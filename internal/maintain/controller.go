package maintain

import (
	"context"
	"fmt"
	"sync"
	"time"

	lazyxml "repro"
)

// Config wires a Controller to its store and host process. Every
// function field is optional; nil means the permissive default noted on
// the field.
type Config struct {
	// Interval is the polling period of Run (default 5s).
	Interval time.Duration

	// Policy holds the thresholds; zero fields take their defaults.
	Policy Policy

	// IsPrimary reports whether this node currently accepts writes.
	// nil: always primary. Checked every cycle, so a demotion (or a
	// follower's promotion) takes effect at the next tick.
	IsPrimary func() bool

	// SubscriberLag reports the worst live replication subscriber's
	// record deficit; nil or 0 means no one is behind. Drives the
	// bounded horizon-advancing deferral.
	SubscriberLag func() int64

	// GateShard runs fn holding shard i's write slot — the same
	// discipline a write request follows, so maintenance and writers
	// never interleave inside a shard. nil: fn runs unguarded (bare
	// backends are internally locked; the gate only adds fairness).
	GateShard func(ctx context.Context, shard int, fn func() error) error

	// Logf receives one line per action and per error; nil discards.
	Logf func(format string, args ...any)

	// now is the test clock; nil means time.Now.
	now func() time.Time
}

// Controller polls one store and applies the Policy, shard by shard.
type Controller struct {
	cfg     Config
	backend *lazyxml.ShardedCollection

	mu     sync.Mutex
	states []ShardState
	stats  stats
}

// stats is the counter block behind Snapshot, guarded by Controller.mu.
type stats struct {
	cycles        int64
	collapseRuns  int64
	collapsedDocs int64
	collapseAlls  int64
	compacts      int64
	skips         map[string]int64
	errors        int64
	lastError     string
	lastAction    time.Time
	lastReason    string
	busyNanos     int64
}

// New builds a controller over a store. An in-memory store has nothing
// to compact, so its shards are only ever collapsed.
func New(backend *lazyxml.ShardedCollection, cfg Config) *Controller {
	if cfg.Interval <= 0 {
		cfg.Interval = 5 * time.Second
	}
	cfg.Policy = cfg.Policy.withDefaults()
	if cfg.now == nil {
		cfg.now = time.Now
	}
	c := &Controller{
		cfg:     cfg,
		backend: backend,
		states:  make([]ShardState, backend.ShardCount()),
	}
	c.stats.skips = map[string]int64{}
	return c
}

// Run polls until ctx is done. One cycle's work is strictly sequential
// across shards — maintenance never claims more than one write lane at
// a time, so writers to other shards proceed throughout.
func (c *Controller) Run(ctx context.Context) {
	t := time.NewTicker(c.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if err := c.RunOnce(ctx); err != nil && ctx.Err() == nil {
				c.logf("maintain: %v", err)
			}
		}
	}
}

// RunOnce executes one full policy cycle over every shard and returns
// the first action error (skips are not errors). It is the
// deterministic entry point the property harness drives directly.
func (c *Controller) RunOnce(ctx context.Context) error {
	start := c.cfg.now()
	env := Env{Now: start, Primary: true}
	if c.cfg.IsPrimary != nil {
		env.Primary = c.cfg.IsPrimary()
	}
	if c.cfg.SubscriberLag != nil {
		env.FollowerLag = c.cfg.SubscriberLag()
	}

	shardStats := c.backend.ShardStats()
	perShard := make(map[int][]lazyxml.DocSegStat, len(shardStats))
	for _, ds := range c.backend.DocSegments() {
		perShard[ds.Shard] = append(perShard[ds.Shard], ds)
	}
	viewsByShard := make(map[int]lazyxml.ViewStats, len(shardStats))
	for _, sv := range c.backend.ViewStats() {
		viewsByShard[sv.Shard] = sv.Views
	}

	var firstErr error
	for _, ss := range shardStats {
		if ss.Shard >= len(c.states) {
			continue
		}
		sig := ShardSignals{
			Shard:        ss.Shard,
			Docs:         ss.Docs,
			Segments:     ss.Stats.Segments,
			JournalBytes: ss.JournalBytes,
			DocSegments:  perShard[ss.Shard],
			Durable:      c.backend.IsDurable(),
		}
		if vs, ok := viewsByShard[ss.Shard]; ok && vs.Live > 0 && vs.HeadGen > vs.OldestGen {
			sig.ViewLag = vs.HeadGen - vs.OldestGen
			sig.OldestViewAge = vs.OldestAge
		}
		c.mu.Lock()
		st := c.states[ss.Shard]
		d := c.cfg.Policy.Decide(&st, sig, env)
		c.states[ss.Shard] = st
		if d.Skip != "" {
			c.stats.skips[d.Skip]++
		}
		c.mu.Unlock()
		if d.Op == OpNone {
			continue
		}
		if err := c.execute(ctx, sig.Shard, d); err != nil {
			c.mu.Lock()
			c.stats.errors++
			c.stats.lastError = err.Error()
			c.mu.Unlock()
			c.logf("maintain: shard %d %s: %v", sig.Shard, d.Op, err)
			if firstErr == nil {
				firstErr = fmt.Errorf("shard %d %s: %w", sig.Shard, d.Op, err)
			}
		}
	}

	c.mu.Lock()
	c.stats.cycles++
	c.stats.busyNanos += int64(c.cfg.now().Sub(start))
	c.mu.Unlock()
	return firstErr
}

// execute applies one decision to one shard under the shard's write
// slot. Collapses run per document; on a durable shard the run ends
// with a shard Compact that makes the collapses durable and advances
// the replication horizon.
func (c *Controller) execute(ctx context.Context, shard int, d Decision) error {
	gate := c.cfg.GateShard
	if gate == nil {
		gate = func(_ context.Context, _ int, fn func() error) error { return fn() }
	}
	var collapsed int
	err := gate(ctx, shard, func() error {
		switch d.Op {
		case OpCollapseDocs, OpCollapseAll:
			for _, name := range d.Docs {
				if _, err := c.backend.Collapse(name); err != nil {
					// A document deleted between census and collapse is
					// not a failure; the rest of the run proceeds.
					continue
				}
				collapsed++
			}
			if d.FollowCompact {
				return c.backend.CompactShard(shard)
			}
			return nil
		case OpCompact:
			return c.backend.CompactShard(shard)
		}
		return nil
	})

	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.collapsedDocs += int64(collapsed)
	switch d.Op {
	case OpCollapseDocs:
		c.stats.collapseRuns++
	case OpCollapseAll:
		c.stats.collapseAlls++
	case OpCompact:
		c.stats.compacts++
	}
	if d.FollowCompact && err == nil {
		c.stats.compacts++
	}
	if err == nil {
		c.stats.lastAction = c.cfg.now()
		c.stats.lastReason = fmt.Sprintf("shard %d: %s (%s)", shard, d.Op, d.Reason)
		c.logf("maintain: shard %d: %s, %d docs (%s)", shard, d.Op, collapsed, d.Reason)
	}
	return err
}

func (c *Controller) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// ShardSnap is one shard's state-machine position in a Snapshot.
type ShardSnap struct {
	Shard         int    `json:"shard"`
	Engaged       bool   `json:"engaged"`
	CompactDefers int    `json:"compactDefers,omitempty"`
	LastAction    string `json:"lastAction,omitempty"`
}

// Snapshot is the observability block the server publishes under
// "maintenance" in /stats and /metrics.
type Snapshot struct {
	Enabled       bool             `json:"enabled"`
	IntervalMs    int64            `json:"intervalMs"`
	SegmentsHigh  int              `json:"segmentsHigh"`
	SegmentsLow   int              `json:"segmentsLow"`
	LogBytesHigh  int64            `json:"logBytesHigh"`
	MaxViewAgeMs  int64            `json:"maxRetainedViewAgeMs"`
	Cycles        int64            `json:"cycles"`
	CollapseRuns  int64            `json:"collapseRuns"`
	CollapsedDocs int64            `json:"collapsedDocs"`
	CollapseAlls  int64            `json:"collapseAlls"`
	Compacts      int64            `json:"compacts"`
	Skips         map[string]int64 `json:"skips,omitempty"`
	Errors        int64            `json:"errors"`
	LastError     string           `json:"lastError,omitempty"`
	LastAction    string           `json:"lastAction,omitempty"`
	LastReason    string           `json:"lastReason,omitempty"`
	BusyMs        int64            `json:"busyMs"`
	Shards        []ShardSnap      `json:"shards"`
}

// Snapshot returns the controller's counters and per-shard machine
// state. Safe to call concurrently with Run.
func (c *Controller) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Snapshot{
		Enabled:       true,
		IntervalMs:    c.cfg.Interval.Milliseconds(),
		SegmentsHigh:  c.cfg.Policy.SegmentsHigh,
		SegmentsLow:   c.cfg.Policy.SegmentsLow,
		LogBytesHigh:  c.cfg.Policy.LogBytesHigh,
		MaxViewAgeMs:  c.cfg.Policy.MaxRetainedViewAge.Milliseconds(),
		Cycles:        c.stats.cycles,
		CollapseRuns:  c.stats.collapseRuns,
		CollapsedDocs: c.stats.collapsedDocs,
		CollapseAlls:  c.stats.collapseAlls,
		Compacts:      c.stats.compacts,
		Skips:         make(map[string]int64, len(c.stats.skips)),
		Errors:        c.stats.errors,
		LastError:     c.stats.lastError,
		LastReason:    c.stats.lastReason,
		BusyMs:        c.stats.busyNanos / int64(time.Millisecond),
		Shards:        make([]ShardSnap, len(c.states)),
	}
	for k, v := range c.stats.skips {
		s.Skips[k] = v
	}
	if !c.stats.lastAction.IsZero() {
		s.LastAction = c.stats.lastAction.UTC().Format(time.RFC3339Nano)
	}
	for i, st := range c.states {
		s.Shards[i] = ShardSnap{Shard: i, Engaged: st.Engaged, CompactDefers: st.CompactDefers}
		if !st.LastAction.IsZero() {
			s.Shards[i].LastAction = st.LastAction.UTC().Format(time.RFC3339Nano)
		}
	}
	return s
}
