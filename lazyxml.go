// Package lazyxml is a lazy XML update and structural-join engine: a Go
// implementation of "Lazy XML Updates: Laziness as a Virtue of Update and
// Structural Join Efficiency" (Catania, Wang, Ooi, Wang — SIGMOD 2005).
//
// The whole XML database is modeled as a single super document. Updates
// insert or remove XML segments (well-formed fragments) identified only
// by a global character offset and a length — exactly the information a
// plain text edit provides. Elements are indexed under immutable local
// labels, so updates never rewrite existing index records; a small
// in-memory update log (the SB-tree over segments plus a tag-list) makes
// the labels interpretable, and the segment-aware Lazy-Join algorithm
// uses it to skip whole segments during structural joins.
//
// # Quick start
//
//	db := lazyxml.Open(lazyxml.LD)
//	db.Append([]byte("<library><shelf></shelf></library>"))
//	db.Insert(16, []byte("<book><title/></book>"))
//	matches, _ := db.Query("shelf//title")
//
// See the examples directory for complete programs.
package lazyxml

import (
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/join"
	"repro/internal/plan"
	"repro/internal/segment"
)

// Mode selects the update-log maintenance strategy of Section 5.1 of the
// paper.
type Mode = core.Mode

// Maintenance modes.
const (
	// LD (lazy dynamic) keeps the update log incrementally sorted; the
	// log is always ready for querying.
	LD = core.LD
	// LS (lazy static) appends to the tag-list in O(1) and sorts it just
	// before each query, minimizing update cost.
	LS = core.LS
)

// Algorithm selects the structural-join implementation.
type Algorithm = core.Algorithm

// Join algorithms.
const (
	// LazyJoin is the segment-aware algorithm of the paper (Figure 9).
	LazyJoin = core.LazyJoin
	// STD is the classic Stack-Tree-Desc merge over global positions
	// reconstructed through the SB-tree.
	STD = core.STD
	// SkipSTD is STD with galloping skips over non-joining runs.
	SkipSTD = core.SkipSTD
)

// Axis selects the structural relationship.
type Axis = join.Axis

// Axes.
const (
	// Descendant joins ancestor//descendant pairs.
	Descendant = join.Descendant
	// Child joins parent/child pairs.
	Child = join.Child
)

// Match is one structural-join result: global positions plus the lazy
// (segment id, immutable local label) identity of both elements.
type Match = core.Match

// ElemRef is one element of a match: the segment it belongs to and its
// immutable local (start, end, level) label.
type ElemRef = join.ElemRef

// Stats summarizes the store's contents and update-log footprint.
type Stats = core.Stats

// SID identifies a segment of the super document.
type SID = segment.SID

// DB is a lazy XML database.
type DB struct {
	store    *core.Store
	coreOpts []core.Option
	// planc memoizes planner statistics against the store generation; it
	// exists on every DB (planning is always available, caching is opt-in
	// at the collection layer via EnablePlanner).
	planc *plan.Collector
}

// Option configures Open.
type Option func(*DB)

// WithoutText disables retention of the super-document text: updates and
// queries work unchanged (the engine only needs positions and lengths),
// but Text, Rebuild, RemoveElementAt and SaveFile become unavailable
// (RemoveElementAt does not read the text; it answers ErrNoText to keep
// this contract).
func WithoutText() Option {
	return func(db *DB) { db.coreOpts = append(db.coreOpts, core.WithoutText()) }
}

// WithAttributes indexes attributes as pseudo-elements named "@attr",
// one level below their owner element, so path steps like "person/@id"
// work (the paper treats attributes as subelements).
func WithAttributes() Option {
	return func(db *DB) { db.coreOpts = append(db.coreOpts, core.WithAttributes()) }
}

// WithValues maintains a (tag, value) → elements index so twig patterns
// can use equality predicates: person[name='Ann'], person[@id='p1'].
// Values are whitespace-trimmed and capped at 64 bytes; like element
// labels, value records are never rewritten by updates — which also
// means removals must cover whole elements (the documented contract of
// Remove) for indexed values to stay accurate.
func WithValues() Option {
	return func(db *DB) { db.coreOpts = append(db.coreOpts, core.WithValues()) }
}

// Open returns an empty lazy XML database.
func Open(mode Mode, opts ...Option) *DB {
	db := &DB{}
	for _, o := range opts {
		o(db)
	}
	db.store = core.NewStore(mode, db.coreOpts...)
	db.planc = plan.NewCollector(db.store, nil, 0)
	return db
}

// OpenFile loads an XML file as the initial single segment of a new
// database.
func OpenFile(path string, mode Mode, opts ...Option) (*DB, error) {
	text, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	db := Open(mode, opts...)
	if len(text) > 0 {
		if _, err := db.Insert(0, text); err != nil {
			return nil, fmt.Errorf("lazyxml: %s: %w", path, err)
		}
	}
	return db, nil
}

// Insert inserts a well-formed XML fragment at global byte offset gp and
// returns the id of the new segment. The fragment must keep the super
// document well-formed; the engine trusts the caller on that (it sees
// only positions, as in the paper) and CheckConsistency can audit it.
func (db *DB) Insert(gp int, fragment []byte) (SID, error) {
	return db.store.InsertSegment(gp, fragment)
}

// Append inserts the fragment at the end of the super document as a new
// top-level segment.
func (db *DB) Append(fragment []byte) (SID, error) {
	return db.store.InsertSegment(db.store.Len(), fragment)
}

// Remove removes the byte range [gp, gp+l) from the super document. The
// range must cover whole elements so the super document stays
// well-formed.
func (db *DB) Remove(gp, l int) error { return db.store.RemoveSegment(gp, l) }

// putName binds a document name to segment sid — an update, like Insert.
func (db *DB) putName(name string, sid SID) error {
	db.store.PutName(name, sid)
	return nil
}

// deleteName unbinds a document name (sid is what the journal records).
func (db *DB) deleteName(name string, sid SID) error {
	db.store.DeleteName(name)
	return nil
}

// ErrNotAnElement is returned by RemoveElementAt when no element starts
// at the given offset.
var ErrNotAnElement = core.ErrNotAnElement

// ElementExtentAt returns the byte length of the element whose start tag
// begins at global offset gp. The extent comes from the update log (the
// segment tree and the element index), not from the text; a WithoutText
// database keeps answering ErrNoText all the same.
func (db *DB) ElementExtentAt(gp int) (int, error) { return db.store.ElementExtentAt(gp) }

// RemoveElementAt removes the single element whose start tag begins at
// global offset gp, resolving its extent with ElementExtentAt (ErrNoText
// on a WithoutText database).
func (db *DB) RemoveElementAt(gp int) error {
	l, err := db.ElementExtentAt(gp)
	if err != nil {
		return err
	}
	return db.store.RemoveSegment(gp, l)
}

// Query evaluates a path expression of the form
//
//	tag1//tag2/tag3...
//
// where // selects descendants and / selects children, and returns the
// matches of the final step paired with their ancestors from the
// preceding step. A single-step path (just "tag") returns every element
// with that tag (as Desc, with a zero Anc). The first binary step runs
// Lazy-Join; later steps join intermediate results with Stack-Tree-Desc
// over reconstructed global positions. A Collection's planned queries
// (StreamOpt.Planned) let the cost model pick the algorithm instead.
// Queries run against an MVCC snapshot view of the store (see
// internal/core/view.go and DESIGN.md §12), so they never hold the store
// lock while joining and never block behind a writer or a maintenance
// pass.
func (db *DB) Query(path string) ([]Match, error) {
	v := db.store.AcquireView()
	defer v.Release()
	return db.collect(scope{v: v}, path)
}

// QueryPair runs a single structural join between two tags on the given
// axis with the given algorithm, bypassing the path parser.
func (db *DB) QueryPair(aTag, dTag string, axis Axis, alg Algorithm) ([]Match, error) {
	v := db.store.AcquireView()
	defer v.Release()
	return v.Query(aTag, dTag, axis, alg)
}

// QueryPairParallel runs Lazy-Join with the descendant segment list
// partitioned across the given number of goroutines (the
// parallelization the paper's introduction attributes to segments).
// Results are identical to QueryPair(..., LazyJoin), order included.
func (db *DB) QueryPairParallel(aTag, dTag string, axis Axis, workers int) ([]Match, error) {
	v := db.store.AcquireView()
	defer v.Release()
	return v.QueryParallel(aTag, dTag, axis, workers)
}

// Count returns the number of matches of the path expression without
// materializing them.
func (db *DB) Count(path string) (int, error) {
	v := db.store.AcquireView()
	defer v.Release()
	return db.count(scope{v: v}, path)
}

// Text returns a copy of the current super document, read from an MVCC
// snapshot view so a concurrent writer is never blocked.
func (db *DB) Text() ([]byte, error) {
	v := db.store.AcquireView()
	defer v.Release()
	return v.Text()
}

// ViewStats returns the store's MVCC view-lifecycle counters.
func (db *DB) ViewStats() ViewStats { return db.store.ViewStats() }

// Len returns the length of the super document in bytes.
func (db *DB) Len() int { return db.store.Len() }

// Segments returns the number of segments (excluding the dummy root).
func (db *DB) Segments() int { return db.store.Segments() }

// Stats returns sizes and counters, including the update-log footprint.
func (db *DB) Stats() Stats { return db.store.Stats() }

// Mode returns the maintenance mode.
func (db *DB) Mode() Mode { return db.store.Mode() }

// Rebuild collapses the database into a single segment, clearing the
// update log — the paper's "maintenance hours" re-index.
func (db *DB) Rebuild() error { return db.store.Rebuild() }

// Collapse merges segment sid and all its descendant segments into one
// fresh segment covering the same text (the paper's §5.3 remedy when the
// segment count grows too large for query performance). It returns the
// new segment's id.
func (db *DB) Collapse(sid SID) (SID, error) { return db.store.CollapseSegment(sid) }

// CheckConsistency re-parses the super document and verifies that the
// update log and element index describe it exactly.
func (db *DB) CheckConsistency() error { return db.store.CheckAgainstText() }

// SaveFile writes the super document to a file; OpenFile reloads it (as
// a single segment — persistence implies a rebuild, matching the paper's
// maintenance model).
func (db *DB) SaveFile(path string) error {
	text, err := db.store.Text()
	if err != nil {
		return err
	}
	return os.WriteFile(path, text, 0o644)
}

// Snapshot writes the complete database state — update log, element
// index, tag dictionary and (when retained) the text — to w. Unlike
// SaveFile, a snapshot preserves the segment structure, so restoring it
// does not imply a rebuild.
func (db *DB) Snapshot(w io.Writer) error { return db.store.Snapshot(w) }

// SnapshotFile writes a snapshot to a file.
func (db *DB) SnapshotFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := db.Snapshot(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Restore reads a snapshot written by Snapshot and returns the restored
// database. The maintenance mode and every option — text retention,
// attribute and value indexing — are taken from the snapshot; opts are
// accepted so a caller can pass what it would pass Open, and ignored.
func Restore(r io.Reader, opts ...Option) (*DB, error) {
	store, err := core.RestoreStore(r)
	if err != nil {
		return nil, err
	}
	return &DB{store: store, planc: plan.NewCollector(store, nil, 0)}, nil
}

// RestoreFile reads a snapshot from a file.
func RestoreFile(path string, opts ...Option) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Restore(f, opts...)
}

// DumpSegments renders the ER-tree (segments, spans, local positions,
// tombstones) as indented text for inspection.
func (db *DB) DumpSegments() string { return db.store.SegmentTree().Dump() }

// Store exposes the underlying engine for benchmarks and tests.
func (db *DB) Store() *core.Store { return db.store }
