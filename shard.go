package lazyxml

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/xmltree"
)

// shard is one independent store of a ShardedCollection: named XML
// documents inside one lazy database — the paper's model of "the whole
// XML database, whether it has been organized with a tree or many
// sub-trees" as a single super document under a dummy root. Each named
// document is one top-level segment, and the name→segment map is store
// state (core names.go): writers resolve names at the head, readers
// through the view they pin. Queries can run over the whole store or be
// scoped to one document by restricting matches to the document's global
// span in that view.
//
// Every write takes one path (write): under the shard's write lock it
// resolves names and offsets against the head and builds one commit unit
// — a Put is its segment and its name, a Collapse the copy, the name
// moved to it and the original's removal — which core.Store.Apply
// checks, appends to the journal when there is one, and applies. Replay
// and followers apply units through the same Apply, so the log order is
// the apply order, a refused unit never reaches the log, and a crash
// leaves every operation whole or absent.
//
// Durability is a field: in memory, j and lane are nil (OpenJournal
// builds a durable shard). Segment ids are deterministic — a snapshot
// preserves the id counter and replay re-applies units in order — so a
// unit's name op can name the segment its own insert will get.
type shard struct {
	// mu is the write lock, held by every write from resolving its
	// offsets to applying its unit, by the lane's leader for a batch and
	// by Compact and re-seed capture. Readers never take it. Lock order:
	// mu → j.mu.
	mu sync.Mutex
	db *DB
	qp atomic.Pointer[QueryPlanner] // planned-query state; nil until EnablePlanner

	// j is the shard's journal; nil in memory.
	j *JournaledDB
	// lane is the commit queue (DESIGN.md §15) when the journal was
	// opened with WithGroupCommit; every write then routes through it.
	lane *commitLane
}

// write runs one operation down the write path, on the commit lane when
// there is one (returning after its batch is fsynced), else directly.
// build runs under the write lock and returns the operation's unit.
func (sh *shard) write(build func() ([]core.Op, error)) error {
	if sh.lane != nil {
		op := &commitOp{build: build}
		sh.lane.submit(op)
		return op.err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.commit(build)
}

// commit builds a unit, then checks, logs and applies it
// (core.Store.Apply), and counts its record once the store shows it. The
// caller holds mu.
func (sh *shard) commit(build func() ([]core.Op, error)) error {
	ops, err := build()
	if err != nil {
		return err
	}
	if sh.j == nil {
		return sh.db.store.Apply(ops, nil)
	}
	var rec []byte
	err = sh.db.store.Apply(ops, func() (err error) {
		rec, err = sh.j.append(ops)
		return err
	})
	if rec != nil {
		sh.j.advance(rec)
	}
	return err
}

// insert inserts frag at the global offset at resolves under the write
// lock. frag is parsed before the lock; its error is reported after at's.
func (sh *shard) insert(at func() (int, error), frag []byte) (SID, error) {
	doc, perr := xmltree.ParseFragment(frag)
	var sid SID
	err := sh.write(func() ([]core.Op, error) {
		gp, err := at()
		if err == nil {
			err = perr
		}
		if err != nil {
			return nil, err
		}
		sid = sh.db.store.SegmentTree().NextSID()
		return []core.Op{{Kind: core.OpInsert, GP: gp, Frag: frag, Doc: doc}}, nil
	})
	if err != nil {
		return 0, err
	}
	return sid, nil
}

// remove removes the global range at resolves under the write lock.
func (sh *shard) remove(at func() (gp, l int, err error)) error {
	return sh.write(func() ([]core.Op, error) {
		gp, l, err := at()
		if err != nil {
			return nil, err
		}
		return []core.Op{{Kind: core.OpRemove, GP: gp, L: l}}, nil
	})
}

// Put adds a named document (one well-formed XML document). The name
// must be new. Its segment and its name are one unit.
func (sh *shard) Put(name string, text []byte) error {
	doc, perr := xmltree.ParseFragment(text)
	return sh.write(func() ([]core.Op, error) {
		if _, exists := sh.db.store.NameSID(name); exists {
			return nil, fmt.Errorf("lazyxml: document %q already exists", name)
		}
		if perr != nil {
			return nil, perr
		}
		return []core.Op{
			{Kind: core.OpInsert, GP: sh.db.Len(), Frag: text, Doc: doc},
			{Kind: core.OpNamePut, Name: name, SID: sh.db.store.SegmentTree().NextSID()},
		}, nil
	})
}

// Delete removes a named document, its text and its name, as one unit.
func (sh *shard) Delete(name string) error {
	return sh.write(func() ([]core.Op, error) {
		sid, lo, hi, err := sh.span(name)
		if err != nil {
			return nil, err
		}
		return []core.Op{
			{Kind: core.OpRemove, GP: lo, L: hi - lo},
			{Kind: core.OpNameDel, Name: name, SID: sid},
		}, nil
	})
}

// Insert inserts a fragment at an offset relative to the named document.
func (sh *shard) Insert(name string, off int, frag []byte) (SID, error) {
	return sh.insert(func() (int, error) {
		_, lo, hi, err := sh.span(name)
		if err != nil {
			return 0, err
		}
		if off < 0 || lo+off > hi {
			return 0, fmt.Errorf("lazyxml: offset %d outside document %q (%d bytes)", off, name, hi-lo)
		}
		return lo + off, nil
	}, frag)
}

// Remove removes the byte range [off, off+l) relative to the named
// document. The range must lie inside the document's span and cover
// whole elements so the super document stays well-formed.
func (sh *shard) Remove(name string, off, l int) error {
	return sh.remove(func() (int, int, error) {
		_, lo, hi, err := sh.span(name)
		if err != nil {
			return 0, 0, err
		}
		if l <= 0 {
			return 0, 0, fmt.Errorf("lazyxml: removal length %d must be positive", l)
		}
		if off < 0 || lo+off+l > hi {
			return 0, 0, fmt.Errorf("lazyxml: range [%d,%d) outside document %q (%d bytes)", off, off+l, name, hi-lo)
		}
		return lo + off, l, wholeDoc(name, lo, hi, lo+off, l)
	})
}

// RemoveElementAt removes the single element whose start tag begins at
// the given offset relative to the named document. The element's extent
// comes from the element index (DB.ElementExtentAt).
func (sh *shard) RemoveElementAt(name string, off int) error {
	return sh.remove(func() (int, int, error) {
		_, lo, hi, err := sh.span(name)
		if err != nil {
			return 0, 0, err
		}
		if off < 0 || lo+off >= hi {
			return 0, 0, fmt.Errorf("lazyxml: offset %d outside document %q (%d bytes)", off, name, hi-lo)
		}
		l, err := sh.db.ElementExtentAt(lo + off)
		if err != nil {
			return 0, 0, err
		}
		if lo+off+l > hi {
			return 0, 0, fmt.Errorf("lazyxml: element at %d extends past document %q", off, name)
		}
		return lo + off, l, wholeDoc(name, lo, hi, lo+off, l)
	})
}

// wholeDoc refuses removing a document's whole span, a Delete that
// would leave the name bound to a deleted segment.
func wholeDoc(name string, lo, hi, gp, l int) error {
	if gp == lo && l == hi-lo {
		return fmt.Errorf("lazyxml: removing all of document %q; use Delete", name)
	}
	return nil
}

// Names lists the document names in sorted order, as of one view: during
// a group-commit batch the pre-batch names, so a name is never listed
// before its record is durable.
func (sh *shard) Names() []string {
	v := sh.db.store.AcquireView()
	defer v.Release()
	return v.Names()
}

// Len returns the number of documents (as of one view, matching Names).
func (sh *shard) Len() int {
	v := sh.db.store.AcquireView()
	defer v.Release()
	return v.NumNames()
}

// span resolves a named document at the head and returns its segment and
// current global span. The caller holds the write lock, so the head (and
// the segment tree's id counter) cannot move before the unit applies.
func (sh *shard) span(name string) (sid SID, lo, hi int, err error) {
	sid, ok := sh.db.store.NameSID(name)
	if !ok {
		return 0, 0, 0, fmt.Errorf("lazyxml: unknown document %q", name)
	}
	lo, hi, ok = sh.db.store.SegmentSpan(sid)
	if !ok {
		return 0, 0, 0, fmt.Errorf("lazyxml: document %q segment %d vanished", name, sid)
	}
	return sid, lo, hi, nil
}

// Collapse packs a named document's segment subtree into one fresh
// segment (the paper's §5.3 remedy when the update log grows too large
// for query performance) and returns the document's new segment id.
//
// It is one unit of three ops: the copy of the document inserted at the
// document's start (a boundary insert shifts the original right and
// creates a sibling, never a nested child), the name re-pointed to the
// copy, the original removed. Readers and a crash see all three or none.
// Being maintenance, it takes the write lock between lane batches rather
// than queuing behind them, so it acts on the document as it stands.
func (sh *shard) Collapse(name string) (SID, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var nsid SID
	err := sh.commit(func() ([]core.Op, error) {
		sid, gp, end, err := sh.span(name)
		if err != nil {
			return nil, err
		}
		region, ok, err := sh.db.store.SegmentText(sid)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("lazyxml: document %q segment %d vanished", name, sid)
		}
		nsid = sh.db.store.SegmentTree().NextSID()
		l := end - gp
		return []core.Op{
			{Kind: core.OpInsert, GP: gp, Frag: region},
			{Kind: core.OpNamePut, Name: name, SID: nsid},
			{Kind: core.OpRemove, GP: gp + l, L: l},
		}, nil
	})
	if err != nil {
		return 0, err
	}
	return nsid, nil
}

// CollapseAll collapses every document in turn — the store's equivalent
// of Rebuild that keeps the name→segment map valid — and, on a durable
// shard, then compacts, folding the collapse records into a fresh
// snapshot.
func (sh *shard) CollapseAll() error {
	for _, name := range sh.Names() {
		if _, err := sh.Collapse(name); err != nil {
			return err
		}
	}
	if sh.j == nil {
		return nil
	}
	return sh.Compact()
}

// DocSegments reports the segment count of every document's subtree,
// sorted by name, all taken from one view: the census is one consistent
// cut of the shard.
func (sh *shard) DocSegments() []DocSegStat {
	v := sh.db.store.AcquireView()
	defer v.Release()
	names := v.Names()
	out := make([]DocSegStat, 0, len(names))
	for _, name := range names {
		sid, _ := v.NameSID(name)
		if n, ok := v.SubtreeSegments(sid); ok {
			out = append(out, DocSegStat{Name: name, Segments: n})
		}
	}
	return out
}

// stat reports the shard's document count and store statistics and, on
// a durable shard, its journal footprint and replication sequence.
func (sh *shard) stat() ShardStat {
	st := ShardStat{Docs: sh.Len(), Stats: sh.db.Stats()}
	if sh.j != nil {
		st.Seq, _ = sh.j.ReplState()
		st.JournalRecords, st.JournalBytes = sh.j.footprint()
	}
	return st
}

// Compact folds the journal into a snapshot (see JournaledDB.compact).
// The write lock keeps every unit on one side of it, so the snapshot's
// sequence and store state agree.
func (sh *shard) Compact() error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.j.compact()
}

// Close stops the commit lane — no new batch may start once the file is
// closing — then flushes and closes the journal; the shard remains
// usable in memory but further updates fail. An in-memory shard closes
// to a no-op.
func (sh *shard) Close() error {
	if sh.j == nil {
		return nil
	}
	if sh.lane != nil {
		sh.lane.close()
	}
	return sh.j.closeLog()
}
