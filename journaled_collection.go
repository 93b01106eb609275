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
// stays valid across restarts. Name ops are engine operations, so the
// one Collection body records them: Put writes the segment record then
// the name record, Delete the removal then the name deletion, Collapse
// the copy, the name, then the removal — a crash at any record boundary
// replays to the old document or the new one, never a dangling name.
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
	jc := &JournaledCollection{Collection: &Collection{db: j.DB, eng: j}, j: j}
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
	return jc.Collection.Put(name, text)
}

// Delete removes a named document and records the deletion durably.
func (jc *JournaledCollection) Delete(name string) error {
	if jc.lane != nil {
		op := &commitOp{kind: ckDelete, name: name}
		jc.lane.submit(op)
		return op.err
	}
	return jc.Collection.Delete(name)
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
// The collection write lock keeps every writer's append and apply on one
// side of it, so the snapshot's sequence and store state agree; lock
// order everywhere is cmu → mu → j.mu.
func (jc *JournaledCollection) Compact() error {
	jc.cmu.Lock()
	defer jc.cmu.Unlock()
	jc.mu.Lock()
	err := jc.j.Compact()
	jc.mu.Unlock()
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
