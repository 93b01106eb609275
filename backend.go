package lazyxml

// Backend is the old name of the one store type, kept only because
// benchmark/ spells it; the next benchmark change removes it.
type Backend = *ShardedCollection

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
	// Checkpoints and CheckpointErrors count the snapshots a checkpoint
	// renamed into place, and the checkpoints that failed, since open;
	// ReplayedBytes is the log above the snapshot that open applied.
	Checkpoints      int64
	CheckpointErrors int64
	ReplayedBytes    int64
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
