package lazyxml

import (
	"fmt"
	"sync"
)

// JournaledCollection is a Collection whose state — the documents' text,
// the update log, and the name→segment map — survives restarts. Segment
// updates and name changes go through the underlying JournaledDB's one
// write-ahead log as typed records, folded together by Compact.
//
// Segment ids are deterministic: a snapshot preserves the id counter and
// WAL replay re-applies updates in order, so the persisted name→SID map
// stays valid across restarts.
type JournaledCollection struct {
	*Collection
	j *JournaledDB

	// cmu serializes whole-collection compaction, re-seed capture and
	// staged commits: none of them ever observes another half done. Lock
	// order everywhere is cmu → mu → j.mu.
	cmu sync.Mutex

	// Group commit (DESIGN.md §15): when the journal was opened with
	// WithGroupCommit, lane is the shard's commit queue + leader; every
	// public write routes through it.
	lane *commitLane
}

// OpenJournaledCollection opens (or creates) a durable collection in
// dir. The mode and options apply when no snapshot exists yet. On open
// the log is replayed over the snapshot; a name whose segment no longer
// exists (a crash between a document's two records) is dropped, so the
// collection always reopens consistent.
func OpenJournaledCollection(dir string, mode Mode, dbOpts []Option, jOpts ...JournalOption) (*JournaledCollection, error) {
	j, err := OpenJournal(dir, mode, dbOpts, jOpts...)
	if err != nil {
		return nil, err
	}
	jc := &JournaledCollection{Collection: &Collection{db: j.DB, eng: j, docs: j.docs}, j: j}
	if j.groupCommit {
		jc.lane = newCommitLane(jc, j.window)
	}
	return jc, nil
}

// Journal exposes the underlying journaled database.
func (jc *JournaledCollection) Journal() *JournaledDB { return jc.j }

// Put adds a named document and records the name durably. With group
// commit on, the op rides the shard's commit lane and the call returns
// only after its records are fsynced as part of a batch.
func (jc *JournaledCollection) Put(name string, text []byte) error {
	if jc.lane != nil {
		op := &commitOp{kind: ckPut, name: name, data: text}
		jc.lane.submit(op)
		return op.err
	}
	return jc.directPut(name, text)
}

func (jc *JournaledCollection) directPut(name string, text []byte) error {
	if err := jc.Collection.Put(name, text); err != nil {
		return err
	}
	sid, _ := jc.SID(name)
	return jc.j.append(walRecord{op: opNamePut, sid: sid, name: name})
}

// Delete removes a named document and records the deletion durably.
func (jc *JournaledCollection) Delete(name string) error {
	if jc.lane != nil {
		op := &commitOp{kind: ckDelete, name: name}
		jc.lane.submit(op)
		return op.err
	}
	return jc.directDelete(name)
}

func (jc *JournaledCollection) directDelete(name string) error {
	sid, ok := jc.SID(name)
	if !ok {
		return fmt.Errorf("lazyxml: unknown document %q", name)
	}
	if err := jc.Collection.Delete(name); err != nil {
		return err
	}
	return jc.j.append(walRecord{op: opNameDel, sid: sid, name: name})
}

// Insert routes a lazy in-document insert through the commit lane when
// group commit is on; otherwise it is the plain Collection insert.
func (jc *JournaledCollection) Insert(name string, off int, frag []byte) (SID, error) {
	if jc.lane != nil {
		op := &commitOp{kind: ckInsert, name: name, off: off, data: frag}
		jc.lane.submit(op)
		return op.sid, op.err
	}
	return jc.Collection.Insert(name, off, frag)
}

// Remove routes a lazy in-document delete through the commit lane when
// group commit is on.
func (jc *JournaledCollection) Remove(name string, off, l int) error {
	if jc.lane != nil {
		op := &commitOp{kind: ckRemove, name: name, off: off, l: l}
		jc.lane.submit(op)
		return op.err
	}
	return jc.Collection.Remove(name, off, l)
}

// RemoveElementAt routes an element removal through the commit lane when
// group commit is on.
func (jc *JournaledCollection) RemoveElementAt(name string, off int) error {
	if jc.lane != nil {
		op := &commitOp{kind: ckRemoveElement, name: name, off: off}
		jc.lane.submit(op)
		return op.err
	}
	return jc.Collection.RemoveElementAt(name, off)
}

// Collapse packs a named document into one fresh segment, durably: the
// copy insert and the original's removal go through the WAL via the
// engine, and the name re-points between the two, so a crash at any
// record boundary replays to either the old document or the collapsed
// one — never a dangling name. (A crash exactly between the insert and
// the name record leaves the copy as an anonymous segment; the document
// itself stays intact under its old segment.)
func (jc *JournaledCollection) Collapse(name string) (SID, error) {
	return jc.collapseVia(name, func(nsid SID) error {
		return jc.j.append(walRecord{op: opNamePut, sid: nsid, name: name})
	})
}

// CollapseAll collapses every document's segment subtree and then
// compacts, folding the collapse records into fresh snapshots.
func (jc *JournaledCollection) CollapseAll() error {
	for _, name := range jc.Names() {
		if _, err := jc.Collapse(name); err != nil {
			return err
		}
	}
	return jc.Compact()
}

// Compact folds the journal into a snapshot (see JournaledDB.Compact).
// The collection write lock is held only while the name map is encoded,
// together with the journal lock that keeps it current until the
// snapshot is written; lock order everywhere is cmu → mu → j.mu.
func (jc *JournaledCollection) Compact() error {
	jc.cmu.Lock()
	defer jc.cmu.Unlock()
	jc.mu.Lock()
	jc.j.mu.Lock()
	header := encodeSnapshotHeader(jc.j.seq, jc.docs)
	jc.mu.Unlock()
	err := jc.j.compactLocked(header)
	jc.j.mu.Unlock()
	if err != nil {
		return err
	}
	// Compaction leaves query results unchanged, but it rewrites the
	// snapshot the store would be rebuilt from; bumping the generation
	// keeps planner statistics and cached results conservatively fresh
	// across the maintenance event.
	jc.db.store.BumpGeneration()
	return nil
}

// CompactShard folds shard i's journal — a single-store collection has
// exactly one shard, so only index 0 is valid. It exists so durable
// backends expose one uniform per-shard compaction surface.
func (jc *JournaledCollection) CompactShard(i int) error {
	if i != 0 {
		return fmt.Errorf("lazyxml: shard %d out of range [0,1)", i)
	}
	return jc.Compact()
}

// Close stops the commit lane — no new batch may start once the file is
// closing — then flushes and closes the journal; the collection remains
// usable in memory but further updates fail.
func (jc *JournaledCollection) Close() error {
	if jc.lane != nil {
		jc.lane.close()
	}
	return jc.j.Close()
}
