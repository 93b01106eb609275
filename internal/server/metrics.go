package server

import (
	"sync/atomic"
	"time"
)

// numBuckets covers latencies from <1µs up to >=2^30µs (~18 min) in
// power-of-two buckets — enough range for any request this server can
// serve, cheap enough to update with one atomic add.
const numBuckets = 32

// histogram is a lock-free log2 latency histogram in microseconds.
type histogram struct {
	buckets [numBuckets]atomic.Int64
	count   atomic.Int64
	sumUS   atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	h.observeValue(d.Microseconds())
}

// observeValue records a raw value in the log2 buckets — the same
// machinery serves dimensionless distributions (batch sizes) as well as
// microsecond latencies.
func (h *histogram) observeValue(v int64) {
	b := 0
	for x := v; x > 0 && b < numBuckets-1; x >>= 1 {
		b++
	}
	h.buckets[b].Add(1)
	h.count.Add(1)
	h.sumUS.Add(v)
}

// quantile returns an upper bound (the bucket boundary) for the q-th
// latency quantile in microseconds.
func (h *histogram) quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for b := 0; b < numBuckets; b++ {
		seen += h.buckets[b].Load()
		if seen >= rank {
			return int64(1) << b // upper boundary of bucket b: 2^b µs
		}
	}
	return int64(1) << (numBuckets - 1)
}

// snapshot renders the histogram as JSON-friendly summary numbers.
func (h *histogram) snapshot() HistogramStats {
	count := h.count.Load()
	s := HistogramStats{Count: count}
	if count > 0 {
		s.MeanUS = h.sumUS.Load() / count
		s.P50US = h.quantile(0.50)
		s.P95US = h.quantile(0.95)
		s.P99US = h.quantile(0.99)
	}
	return s
}

// HistogramStats is the JSON form of a latency histogram. Quantiles are
// upper bounds of power-of-two microsecond buckets.
type HistogramStats struct {
	Count  int64 `json:"count"`
	MeanUS int64 `json:"meanMicros"`
	P50US  int64 `json:"p50Micros"`
	P95US  int64 `json:"p95Micros"`
	P99US  int64 `json:"p99Micros"`
}

// ValueStats is the JSON form of a dimensionless log2 histogram (batch
// sizes). Quantiles are upper bounds of power-of-two buckets.
type ValueStats struct {
	Count int64 `json:"count"`
	Mean  int64 `json:"mean"`
	P50   int64 `json:"p50"`
	P95   int64 `json:"p95"`
	P99   int64 `json:"p99"`
}

// snapshotValues renders the histogram as a dimensionless summary.
func (h *histogram) snapshotValues() ValueStats {
	count := h.count.Load()
	s := ValueStats{Count: count}
	if count > 0 {
		s.Mean = h.sumUS.Load() / count
		s.P50 = h.quantile(0.50)
		s.P95 = h.quantile(0.95)
		s.P99 = h.quantile(0.99)
	}
	return s
}

// metrics aggregates request counters for the /metrics endpoint. All
// fields are updated with atomics; reads are approximate but torn-free
// per counter.
type metrics struct {
	start time.Time

	requests atomic.Int64 // all requests
	errors   atomic.Int64 // responses with status >= 400
	timeouts atomic.Int64 // requests that hit the per-request deadline
	shed     atomic.Int64 // writes refused by overload shedding (503 + Retry-After)
	inflight atomic.Int64

	queries atomic.Int64 // read-path requests (query/count/text/stats)
	updates atomic.Int64 // write-path requests (put/insert/remove/delete)
	admin   atomic.Int64 // compact/rebuild/check

	readLatency  histogram
	writeLatency histogram

	// Streaming-query counters (?stream=1).
	streamsInflight atomic.Int64 // streams currently being drained (gauge)
	streamsOpened   atomic.Int64 // streams ever opened
	streamedRows    atomic.Int64 // rows delivered across all streams
	streamedBytes   atomic.Int64 // NDJSON bytes written across all streams
	budgetKills     atomic.Int64 // queries failed by the per-query memory budget
	streamCancels   atomic.Int64 // streams ended by client disconnect/cancellation

	// Group-commit lane feed (the backend's commit observer): one
	// observation per committed batch — its op count and its flush
	// (WAL write + fsync) wall time.
	gcEnabled  atomic.Bool
	gcBatches  atomic.Int64
	gcOps      atomic.Int64
	gcMaxBatch atomic.Int64
	batchSize  histogram // dimensionless: ops per batch
	flushLat   histogram // per-batch flush latency

	// perShard tracks the write path per shard lane, sized once at
	// construction to the backend's shard count.
	perShard []shardCounters
}

// observeBatch records one committed group-commit batch.
func (m *metrics) observeBatch(ops int, flush time.Duration) {
	m.gcBatches.Add(1)
	m.gcOps.Add(int64(ops))
	for {
		cur := m.gcMaxBatch.Load()
		if int64(ops) <= cur || m.gcMaxBatch.CompareAndSwap(cur, int64(ops)) {
			break
		}
	}
	m.batchSize.observeValue(int64(ops))
	m.flushLat.observe(flush)
}

// shardCounters is the write-path slice of one shard's traffic.
type shardCounters struct {
	updates      atomic.Int64
	writeLatency histogram
}

func newMetrics(shards int) *metrics {
	if shards < 1 {
		shards = 1
	}
	return &metrics{start: time.Now(), perShard: make([]shardCounters, shards)}
}

// observeWrite records one write on its shard lane and in the global
// write histogram.
func (m *metrics) observeWrite(shard int, d time.Duration) {
	m.writeLatency.observe(d)
	if shard >= 0 && shard < len(m.perShard) {
		m.perShard[shard].writeLatency.observe(d)
	}
}

func (m *metrics) countUpdate(shard int) {
	m.updates.Add(1)
	if shard >= 0 && shard < len(m.perShard) {
		m.perShard[shard].updates.Add(1)
	}
}

// MetricsSnapshot is the JSON body of GET /metrics.
type MetricsSnapshot struct {
	UptimeSeconds float64        `json:"uptimeSeconds"`
	Requests      int64          `json:"requests"`
	Errors        int64          `json:"errors"`
	Timeouts      int64          `json:"timeouts"`
	Shed          int64          `json:"shed"`
	Inflight      int64          `json:"inflight"`
	Queries       int64          `json:"queries"`
	Updates       int64          `json:"updates"`
	Admin         int64          `json:"admin"`
	ReadLatency   HistogramStats `json:"readLatency"`
	WriteLatency  HistogramStats `json:"writeLatency"`
	// Streams is the streaming-query readout: in-flight and lifetime
	// stream counts, delivered rows and bytes, budget kills and client
	// cancellations.
	Streams StreamMetrics `json:"streams"`
	// GroupCommit is the commit-lane readout: batch counts, the
	// batch-size distribution and per-batch flush latency. Enabled is
	// false when the backend journals per-op.
	GroupCommit GroupCommitMetrics `json:"groupCommit"`
	// Shards is the write path broken down by shard lane: the evidence
	// that writes to different shards really run in parallel.
	Shards []ShardMetrics `json:"shards"`
}

// GroupCommitMetrics is the group-commit slice of the counters.
type GroupCommitMetrics struct {
	Enabled      bool           `json:"enabled"`
	Batches      int64          `json:"batches"`
	Ops          int64          `json:"ops"`
	MaxBatch     int64          `json:"maxBatch"`
	BatchSize    ValueStats     `json:"batchSize"`
	FlushLatency HistogramStats `json:"flushLatency"`
}

// StreamMetrics is the streaming-query slice of the counters.
type StreamMetrics struct {
	Inflight      int64 `json:"inflight"`
	Opened        int64 `json:"opened"`
	StreamedRows  int64 `json:"streamedRows"`
	StreamedBytes int64 `json:"streamedBytes"`
	BudgetKills   int64 `json:"budgetKills"`
	Cancels       int64 `json:"cancels"`
}

// ShardMetrics is one shard lane's write-path counters.
type ShardMetrics struct {
	Shard        int            `json:"shard"`
	Updates      int64          `json:"updates"`
	WriteLatency HistogramStats `json:"writeLatency"`
}

func (m *metrics) snapshot() MetricsSnapshot {
	shards := make([]ShardMetrics, len(m.perShard))
	for i := range m.perShard {
		shards[i] = ShardMetrics{
			Shard:        i,
			Updates:      m.perShard[i].updates.Load(),
			WriteLatency: m.perShard[i].writeLatency.snapshot(),
		}
	}
	return MetricsSnapshot{
		UptimeSeconds: time.Since(m.start).Seconds(),
		Requests:      m.requests.Load(),
		Errors:        m.errors.Load(),
		Timeouts:      m.timeouts.Load(),
		Shed:          m.shed.Load(),
		Inflight:      m.inflight.Load(),
		Queries:       m.queries.Load(),
		Updates:       m.updates.Load(),
		Admin:         m.admin.Load(),
		ReadLatency:   m.readLatency.snapshot(),
		WriteLatency:  m.writeLatency.snapshot(),
		Streams: StreamMetrics{
			Inflight:      m.streamsInflight.Load(),
			Opened:        m.streamsOpened.Load(),
			StreamedRows:  m.streamedRows.Load(),
			StreamedBytes: m.streamedBytes.Load(),
			BudgetKills:   m.budgetKills.Load(),
			Cancels:       m.streamCancels.Load(),
		},
		GroupCommit: GroupCommitMetrics{
			Enabled:      m.gcEnabled.Load(),
			Batches:      m.gcBatches.Load(),
			Ops:          m.gcOps.Load(),
			MaxBatch:     m.gcMaxBatch.Load(),
			BatchSize:    m.batchSize.snapshotValues(),
			FlushLatency: m.flushLat.snapshot(),
		},
		Shards: shards,
	}
}
