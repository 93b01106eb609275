package lazyxml

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// engine is the mutation surface a shard drives. Both *DB and
// *JournaledDB satisfy it, so the same named-document layer works over
// an in-memory database and a journal-backed one: a durable shard routes
// every update — name ops included — through the write-ahead log while
// reads keep using the shared in-memory store.
type engine interface {
	Append(fragment []byte) (SID, error)
	Insert(gp int, fragment []byte) (SID, error)
	Remove(gp, l int) error
	putName(name string, sid SID) error
	deleteName(name string, sid SID) error
}

var (
	_ engine = (*DB)(nil)
	_ engine = (*JournaledDB)(nil)
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
// Durability is a field. In memory, j and lane are nil and eng is the
// database itself. A durable shard's eng is its JournaledDB, so its
// documents' text, update log and name map survive restarts: segment
// updates and name changes go through the one write-ahead log as typed
// records, folded together by Compact. Segment ids are deterministic — a
// snapshot preserves the id counter and replay re-applies updates in
// order — so the persisted name→SID map stays valid across restarts.
// Put writes the segment record then the name record, Delete the removal
// then the name deletion, Collapse the copy, the name, then the removal:
// a crash at any record boundary replays to the old document or the new
// one, never a dangling name.
type shard struct {
	// mu keeps a writer's span lookup and its apply on one side of every
	// rename-class operation (Put, Delete, Collapse), which hold it
	// exclusively.
	mu  sync.RWMutex
	db  *DB
	eng engine
	qp  atomic.Pointer[QueryPlanner] // planned-query state; nil until enablePlanner

	// j is the shard's journal; nil in memory.
	j *JournaledDB
	// cmu serializes collapses, compaction, re-seed capture and staged
	// commits: none of them ever observes another half done, and at most
	// one generation publish batch is open. Lock order everywhere is
	// cmu → mu → j.mu.
	cmu sync.Mutex
	// lane is the shard's commit queue and leader (DESIGN.md §15) when the
	// journal was opened with WithGroupCommit; every public write then
	// routes through it. nil otherwise.
	lane *commitLane
}

// newShard returns an empty in-memory shard.
func newShard(mode Mode, opts ...Option) *shard {
	db := Open(mode, opts...)
	return &shard{db: db, eng: db}
}

// openShard opens (or creates) a durable shard in dir. The mode and
// options apply when no snapshot exists yet. On open the log is replayed
// over the snapshot; a name whose segment no longer exists (a crash
// between a document's two records) is dropped, so the shard always
// reopens consistent.
func openShard(dir string, mode Mode, dbOpts []Option, jOpts ...JournalOption) (*shard, error) {
	j, err := OpenJournal(dir, mode, dbOpts, jOpts...)
	if err != nil {
		return nil, err
	}
	sh := &shard{db: j.DB, eng: j, j: j}
	if j.groupCommit {
		sh.lane = newCommitLane(sh, j.window)
	}
	return sh, nil
}

// submit runs a write: on the commit lane when the shard has one — the
// call then returns only after its records are fsynced as part of a
// batch — or directly otherwise. The op carries the result.
func (sh *shard) submit(op *commitOp) *commitOp {
	if sh.lane != nil {
		sh.lane.submit(op)
	} else {
		sh.runOp(op)
	}
	return op
}

// Put adds a named document (see put).
func (sh *shard) Put(name string, text []byte) error {
	return sh.submit(&commitOp{kind: ckPut, name: name, data: text}).err
}

// Delete removes a named document (see del).
func (sh *shard) Delete(name string) error {
	return sh.submit(&commitOp{kind: ckDelete, name: name}).err
}

// Insert inserts a fragment inside a named document (see insert).
func (sh *shard) Insert(name string, off int, frag []byte) (SID, error) {
	op := sh.submit(&commitOp{kind: ckInsert, name: name, off: off, data: frag})
	return op.sid, op.err
}

// Remove removes a byte range of a named document (see remove).
func (sh *shard) Remove(name string, off, l int) error {
	return sh.submit(&commitOp{kind: ckRemove, name: name, off: off, l: l}).err
}

// RemoveElementAt removes one element of a named document (see
// removeElement).
func (sh *shard) RemoveElementAt(name string, off int) error {
	return sh.submit(&commitOp{kind: ckRemoveElement, name: name, off: off}).err
}

// put adds a named document (one well-formed XML document). The name
// must be new. The segment goes first, then the name, so every prefix of
// the two records names only existing segments.
func (sh *shard) put(name string, text []byte) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, exists := sh.db.store.NameSID(name); exists {
		return fmt.Errorf("lazyxml: document %q already exists", name)
	}
	sid, err := sh.eng.Append(text)
	if err != nil {
		return err
	}
	return sh.eng.putName(name, sid)
}

// del removes a named document and its text: the segment first, then
// the name. In between, a view holds the name but not its segment, and
// so reads the document as unknown.
func (sh *shard) del(name string) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sid, gp, end, err := sh.span(name)
	if err != nil {
		return err
	}
	if err := sh.eng.Remove(gp, end-gp); err != nil {
		return err
	}
	return sh.eng.deleteName(name, sid)
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
func (sh *shard) Len() int { return len(sh.Names()) }

// span resolves a named document at the head and returns its segment and
// current global span, each read under the store lock. The caller holds
// sh.mu, so no rename-class operation runs between the two reads.
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

// insert inserts a fragment at an offset relative to the named document.
func (sh *shard) insert(name string, off int, fragment []byte) (SID, error) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	_, lo, hi, err := sh.span(name)
	if err != nil {
		return 0, err
	}
	if off < 0 || lo+off > hi {
		return 0, fmt.Errorf("lazyxml: offset %d outside document %q (%d bytes)", off, name, hi-lo)
	}
	return sh.eng.Insert(lo+off, fragment)
}

// remove removes the byte range [off, off+l) relative to the named
// document. The range must lie inside the document's span and cover
// whole elements so the super document stays well-formed.
func (sh *shard) remove(name string, off, l int) error {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	_, lo, hi, err := sh.span(name)
	if err != nil {
		return err
	}
	if l <= 0 {
		return fmt.Errorf("lazyxml: removal length %d must be positive", l)
	}
	if off < 0 || lo+off+l > hi {
		return fmt.Errorf("lazyxml: range [%d,%d) outside document %q (%d bytes)", off, off+l, name, hi-lo)
	}
	return sh.eng.Remove(lo+off, l)
}

// removeElement removes the single element whose start tag begins at the
// given offset relative to the named document. The element's extent
// comes from the element index (DB.ElementExtentAt).
func (sh *shard) removeElement(name string, off int) error {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	_, lo, hi, err := sh.span(name)
	if err != nil {
		return err
	}
	if off < 0 || lo+off >= hi {
		return fmt.Errorf("lazyxml: offset %d outside document %q (%d bytes)", off, name, hi-lo)
	}
	l, err := sh.db.ElementExtentAt(lo + off)
	if err != nil {
		return err
	}
	if lo+off+l > hi {
		return fmt.Errorf("lazyxml: element at %d extends past document %q", off, name)
	}
	return sh.eng.Remove(lo+off, l)
}

// Collapse packs a named document's segment subtree into one fresh
// segment (the paper's §5.3 remedy when the update log grows too large
// for query performance) and returns the document's new segment id.
//
// It is three engine operations, so a journaled engine records each and
// replay reproduces them: the copy of the document is inserted at the
// document's start (a boundary insert shifts the original right and
// creates a sibling, never a nested child), then the name is re-pointed,
// then the original is removed. Each prefix of that record sequence
// recovers to a consistent old-or-new state: after the insert alone the
// original still owns the name; once the name moves, the original is the
// unreferenced copy. Readers see the three as one update, through one
// generation publish batch: a view taken between the copy and the
// removal would hold the document twice.
func (sh *shard) Collapse(name string) (SID, error) {
	sh.cmu.Lock()
	defer sh.cmu.Unlock()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// Opened under mu, so no other writer's update joins the batch.
	sh.db.store.BeginGenBatch()
	defer sh.db.store.EndGenBatch()
	sid, gp, end, err := sh.span(name)
	if err != nil {
		return 0, err
	}
	l := end - gp
	region, ok, err := sh.db.store.SegmentText(sid)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("lazyxml: document %q segment %d vanished", name, sid)
	}
	nsid, err := sh.eng.Insert(gp, region)
	if err != nil {
		return 0, err
	}
	if err := sh.eng.putName(name, nsid); err != nil {
		return 0, err
	}
	if err := sh.eng.Remove(gp+l, l); err != nil {
		return nsid, err
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

// DocSegments reports the current segment count of every document's
// subtree, sorted by name. Each count is taken under the store lock but
// the walk over documents is not atomic as a whole — the census is a
// maintenance signal, not a snapshot.
func (sh *shard) DocSegments() []DocSegStat {
	docs := sh.db.store.NameMap()
	out := make([]DocSegStat, 0, len(docs))
	for name, sid := range docs {
		if n, ok := sh.db.store.SubtreeSegments(sid); ok {
			out = append(out, DocSegStat{Name: name, Segments: n})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
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

// Compact folds the journal into a snapshot (see JournaledDB.Compact).
// The shard write lock keeps every writer's append and apply on one side
// of it, so the snapshot's sequence and store state agree.
func (sh *shard) Compact() error {
	sh.cmu.Lock()
	defer sh.cmu.Unlock()
	sh.mu.Lock()
	err := sh.j.Compact()
	sh.mu.Unlock()
	if err != nil {
		return err
	}
	// Compaction leaves query results unchanged, but it rewrites the
	// snapshot the store would be rebuilt from; bumping the generation
	// keeps planner statistics and cached results conservatively fresh
	// across the maintenance event.
	sh.db.store.BumpGeneration()
	return nil
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
	return sh.j.Close()
}
