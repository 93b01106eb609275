package lazyxml

// Backend is the named-document contract every store variant satisfies:
// the explicit form of what was previously implicit — the engine
// interface Collection drives plus the read surface the HTTP server
// consumed. *Collection (ephemeral), *JournaledCollection (durable) and
// *ShardedCollection (N independent stores routed by name hash)
// all implement it, so every layer above (server, daemon, load driver)
// is written against Backend and never against a concrete store.
type Backend interface {
	// Documents.
	Put(name string, text []byte) error
	Delete(name string) error
	Text(name string) ([]byte, error)
	Names() []string
	Len() int
	SID(name string) (SID, bool)

	// Offset updates (the paper's model: insert/remove a well-formed
	// fragment at a byte offset inside a named document).
	Insert(name string, off int, fragment []byte) (SID, error)
	Remove(name string, off, l int) error
	RemoveElementAt(name string, off int) error

	// Structural queries: whole-collection (fanned out across shards in
	// a sharded backend) and document-scoped, unplanned and uncached,
	// drained from the path executor on the caller's goroutine.
	Query(path string) ([]Match, error)
	Count(path string) (int, error)
	QueryDoc(name, path string) ([]Match, error)
	CountDoc(name, path string) (int, error)

	// Streaming queries (DESIGN.md §13): the same executor — identical
	// matches in identical order — delivered through a pull iterator
	// executing against a pinned MVCC view, with an optional per-query
	// memory budget, context cancellation between pulls, and true early
	// termination via StreamOpt.Limit. StreamOpt.Planned selects
	// cost-based (or ?algo=-forced) algorithm selection with an
	// explainable plan per shard touched, served from the
	// generation-keyed result cache when a planner is attached. A sharded
	// backend merges per-shard iterators over its consistent cut with
	// bounded fan-out. The returned stream must be Closed exactly once;
	// Close releases the pinned views.
	QueryStream(path string, opt StreamOpt) (*ResultStream, error)
	QueryDocStream(name, path string, opt StreamOpt) (*ResultStream, error)

	// EnablePlanner attaches the shared planner state (one QueryPlanner
	// serves every shard — cache keys embed each shard's store identity);
	// TagCardinality sums a tag's indexed-element count across shards.
	TagCardinality(tag string) int
	EnablePlanner(qp *QueryPlanner)

	// Maintenance and introspection. Collapse packs one named document's
	// segment subtree into a single fresh segment (§5.3); DocSegments is
	// the cheap per-document segment census the maintenance policy polls
	// to decide which documents earn one.
	Stats() Stats
	Collapse(name string) (SID, error)
	CollapseAll() error
	DocSegments() []DocSegStat
	CheckConsistency() error

	// Shard topology. A single-store backend reports one shard and
	// routes every name to it; a sharded backend reports the shard its
	// name hashes to, where the document lives (or a Put would place it).
	ShardCount() int
	ShardOf(name string) int
	ShardStats() []ShardStat

	// MVCC snapshot reads (DESIGN.md §12). View pins one document at one
	// generation; ViewAll pins the whole backend, one view per shard.
	// Queries on a view handle never take a store lock and never block
	// behind writers or maintenance; the handle must be Released exactly
	// once. ViewStats reports the per-shard view lifecycle counters
	// (live handles, oldest retained generation, reclamations).
	View(name string) (*DocView, error)
	ViewAll() (*CollectionView, error)
	ViewStats() []ShardViewStats
}

// ShardStat is one shard's slice of a backend's statistics: the signal
// feed for per-shard maintenance decisions (when does shard i's update
// log earn a Collapse, when has its WAL earned a Compact?).
type ShardStat struct {
	Shard int
	Docs  int
	Stats Stats

	// Journal footprint and replication sequence; zero on in-memory
	// backends. JournalRecords/JournalBytes count what currently sits in
	// the shard's WAL file — the denominator for compaction policy and
	// replication lag. Seq is the shard's monotonic replication position
	// (records ever appended to its log).
	JournalRecords int64
	JournalBytes   int64
	Seq            int64
	// Always 0: the name log this counted folded into the one log. The
	// field stays only because benchmark/layers.go sums it; the next
	// benchmark PR removes both.
	DocSeq int64
}

// DocSegStat is one document's slice of the segment census: how many
// segments its ER-subtree currently holds, and which shard it lives on.
// The count is the direct §5.3 signal — a document whose subtree has
// fragmented into many small segments pays for it on every Lazy-Join,
// and a Collapse folds it back to one.
type DocSegStat struct {
	Name     string
	Shard    int
	Segments int
}

var (
	_ Backend = (*Collection)(nil)
	_ Backend = (*JournaledCollection)(nil)
	_ Backend = (*ShardedCollection)(nil)
)
