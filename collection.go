package lazyxml

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// engine is the mutation surface a Collection drives. Both *DB and
// *JournaledDB satisfy it, so the same named-document layer works over
// an in-memory database and a journal-backed one: a journaled collection
// routes every update — name ops included — through the write-ahead log
// while reads keep using the shared in-memory store.
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

// Collection manages named XML documents inside one lazy database — the
// paper's model of "the whole XML database, whether it has been organized
// with a tree or many sub-trees" as a single super document under a dummy
// root. Each named document is one top-level segment, and the name→segment
// map is store state (core names.go): writers resolve names at the head,
// readers through the view they pin. Queries can run over the whole
// collection or be scoped to one document by restricting matches to the
// document's global span in that view.
type Collection struct {
	// mu keeps a writer's span lookup and its apply on one side of every
	// rename-class operation (Put, Delete, Collapse), which hold it
	// exclusively.
	mu  sync.RWMutex
	db  *DB
	eng engine
	qp  atomic.Pointer[QueryPlanner] // planned-query state; nil until EnablePlanner
}

// NewCollection returns an empty collection backed by a fresh database.
func NewCollection(mode Mode, opts ...Option) *Collection {
	db := Open(mode, opts...)
	return &Collection{db: db, eng: db}
}

// DB exposes the underlying database (whole-collection queries, stats,
// snapshots).
func (c *Collection) DB() *DB { return c.db }

// Put adds a named document (one well-formed XML document) to the
// collection. The name must be new. The segment goes first, then the
// name, so every prefix of the two records names only existing segments.
func (c *Collection) Put(name string, text []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.db.store.NameSID(name); exists {
		return fmt.Errorf("lazyxml: document %q already exists", name)
	}
	sid, err := c.eng.Append(text)
	if err != nil {
		return err
	}
	return c.eng.putName(name, sid)
}

// Delete removes a named document and its text: the segment first, then
// the name. In between, a view holds the name but not its segment, and
// so reads the document as unknown.
func (c *Collection) Delete(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	sid, gp, end, err := c.span(name)
	if err != nil {
		return err
	}
	if err := c.eng.Remove(gp, end-gp); err != nil {
		return err
	}
	return c.eng.deleteName(name, sid)
}

// Names lists the document names in sorted order, as of one view: during
// a group-commit batch the pre-batch names, so a name is never listed
// before its record is durable.
func (c *Collection) Names() []string {
	v := c.db.store.AcquireView()
	defer v.Release()
	return v.Names()
}

// Len returns the number of documents (as of one view, matching Names).
func (c *Collection) Len() int { return len(c.Names()) }

// span resolves a named document at the head and returns its segment and
// current global span, each read under the store lock. The caller holds
// c.mu, so no rename-class operation runs between the two reads.
func (c *Collection) span(name string) (sid SID, lo, hi int, err error) {
	sid, ok := c.db.store.NameSID(name)
	if !ok {
		return 0, 0, 0, fmt.Errorf("lazyxml: unknown document %q", name)
	}
	lo, hi, ok = c.db.store.SegmentSpan(sid)
	if !ok {
		return 0, 0, 0, fmt.Errorf("lazyxml: document %q segment %d vanished", name, sid)
	}
	return sid, lo, hi, nil
}

// Text returns the current text of a named document, read from an MVCC
// snapshot view: name, span and text come from one immutable generation,
// so a concurrent writer shifting the document can never tear the slice —
// and is never blocked by the read.
func (c *Collection) Text(name string) ([]byte, error) {
	dv, err := c.View(name)
	if err != nil {
		return nil, err
	}
	defer dv.Release()
	return dv.Text()
}

// Insert inserts a fragment at an offset relative to the named document.
func (c *Collection) Insert(name string, off int, fragment []byte) (SID, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, lo, hi, err := c.span(name)
	if err != nil {
		return 0, err
	}
	if off < 0 || lo+off > hi {
		return 0, fmt.Errorf("lazyxml: offset %d outside document %q (%d bytes)", off, name, hi-lo)
	}
	return c.eng.Insert(lo+off, fragment)
}

// Remove removes the byte range [off, off+l) relative to the named
// document. The range must lie inside the document's span and cover
// whole elements so the super document stays well-formed.
func (c *Collection) Remove(name string, off, l int) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, lo, hi, err := c.span(name)
	if err != nil {
		return err
	}
	if l <= 0 {
		return fmt.Errorf("lazyxml: removal length %d must be positive", l)
	}
	if off < 0 || lo+off+l > hi {
		return fmt.Errorf("lazyxml: range [%d,%d) outside document %q (%d bytes)", off, off+l, name, hi-lo)
	}
	return c.eng.Remove(lo+off, l)
}

// RemoveElementAt removes the single element whose start tag begins at
// the given offset relative to the named document. The element's extent
// comes from the element index (DB.ElementExtentAt).
func (c *Collection) RemoveElementAt(name string, off int) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, lo, hi, err := c.span(name)
	if err != nil {
		return err
	}
	if off < 0 || lo+off >= hi {
		return fmt.Errorf("lazyxml: offset %d outside document %q (%d bytes)", off, name, hi-lo)
	}
	l, err := c.db.ElementExtentAt(lo + off)
	if err != nil {
		return err
	}
	if lo+off+l > hi {
		return fmt.Errorf("lazyxml: element at %d extends past document %q", off, name)
	}
	return c.eng.Remove(lo+off, l)
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
// unreferenced copy.
func (c *Collection) Collapse(name string) (SID, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sid, gp, end, err := c.span(name)
	if err != nil {
		return 0, err
	}
	l := end - gp
	region, ok, err := c.db.store.SegmentText(sid)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("lazyxml: document %q segment %d vanished", name, sid)
	}
	nsid, err := c.eng.Insert(gp, region)
	if err != nil {
		return 0, err
	}
	if err := c.eng.putName(name, nsid); err != nil {
		return 0, err
	}
	if err := c.eng.Remove(gp+l, l); err != nil {
		return nsid, err
	}
	return nsid, nil
}

// CollapseAll collapses every document in turn — the collection's
// equivalent of Rebuild that keeps the name→segment map valid.
func (c *Collection) CollapseAll() error {
	for _, name := range c.Names() {
		if _, err := c.Collapse(name); err != nil {
			return err
		}
	}
	return nil
}

// DocSegments reports the current segment count of every document's
// subtree, sorted by name. Each count is taken under the store lock but
// the walk over documents is not atomic as a whole — the census is a
// maintenance signal, not a snapshot.
func (c *Collection) DocSegments() []DocSegStat {
	docs := c.db.store.NameMap()
	out := make([]DocSegStat, 0, len(docs))
	for name, sid := range docs {
		if n, ok := c.db.store.SubtreeSegments(sid); ok {
			out = append(out, DocSegStat{Name: name, Segments: n})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SID returns the segment id of a named document at the head.
func (c *Collection) SID(name string) (SID, bool) { return c.db.store.NameSID(name) }

// Stats returns the underlying database's sizes and counters.
func (c *Collection) Stats() Stats { return c.db.Stats() }

// CheckConsistency verifies the update log and element index against the
// re-parsed super document.
func (c *Collection) CheckConsistency() error { return c.db.CheckConsistency() }

// ShardCount reports one shard: a plain collection is a single store.
func (c *Collection) ShardCount() int { return 1 }

// ShardOf routes every name to the only shard.
func (c *Collection) ShardOf(name string) int { return 0 }

// ShardStats reports the whole collection as shard 0, so the /stats
// shard dimension is uniform whether or not the store is sharded.
func (c *Collection) ShardStats() []ShardStat {
	return []ShardStat{{Shard: 0, Docs: c.Len(), Stats: c.Stats()}}
}

// Count returns the number of matches of path over the whole collection.
func (c *Collection) Count(path string) (int, error) { return c.db.Count(path) }

// Query evaluates a path expression over the whole collection.
func (c *Collection) Query(path string) ([]Match, error) { return c.db.Query(path) }

// QueryDoc evaluates a path expression scoped to one named document:
// only matches whose elements lie inside the document's span qualify.
// Positions in the returned matches remain global. Span resolution and
// query run against one MVCC snapshot view, so the result is a
// consistent cut even under concurrent writers and maintenance.
func (c *Collection) QueryDoc(name, path string) ([]Match, error) {
	dv, err := c.View(name)
	if err != nil {
		return nil, err
	}
	defer dv.Release()
	return dv.Query(path)
}

// CountDoc returns the number of matches of path inside one document.
func (c *Collection) CountDoc(name, path string) (int, error) {
	dv, err := c.View(name)
	if err != nil {
		return 0, err
	}
	defer dv.Release()
	return dv.Count(path)
}
