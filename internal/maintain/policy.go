// Package maintain is the background maintenance controller: it turns
// the paper's §5.3 observation — Lazy-Join degrades as segments
// accumulate, so collapse once the count crosses a threshold — into a
// policy that runs without an operator. The controller polls the cheap
// signals every backend already exports (per-shard segment count and
// journal footprint, per-document segment depth) and schedules
// per-document Collapse or per-shard Compact under the server's write
// gate, with hysteresis so it neither flaps around the threshold nor
// starves writers.
package maintain

import (
	"fmt"
	"sort"
	"time"

	lazyxml "repro"
)

// Policy holds the thresholds of the maintenance state machine. The
// zero value is completed by withDefaults; a field left zero takes its
// default, so callers only set what they tune.
type Policy struct {
	// SegmentsHigh engages collapsing when a shard's segment count
	// reaches it; SegmentsLow disengages once the count falls below —
	// the hysteresis band that keeps the controller from flapping when
	// writes hover at the threshold (default 64 / half of high).
	SegmentsHigh int
	SegmentsLow  int

	// LogBytesHigh triggers a shard Compact once its WAL footprint
	// reaches it; 0 keeps the default
	// (4 MiB). Only meaningful on durable backends.
	LogBytesHigh int64

	// MinActionGap is the per-shard rate limit: after an action, the
	// shard is left alone at least this long (default 10s), so
	// maintenance can never occupy a write lane back-to-back.
	MinActionGap time.Duration

	// MaxDocsPerCycle caps how many documents one cycle collapses on
	// one shard (default 8) — the concurrency/latency bound that keeps
	// a single cycle short even on a badly fragmented shard.
	MaxDocsPerCycle int

	// CollapseAllFraction: when the documents chosen for collapsing
	// exceed this fraction of the shard's documents, the whole shard is
	// collapsed instead (default 0.5) — at that point per-document
	// surgery costs more than the paper's Rebuild-style sweep.
	CollapseAllFraction float64

	// MaxCompactDefers bounds how many consecutive cycles a horizon-
	// advancing action is deferred because a live subscriber still lags
	// (default 3; negative never defers). After that the compact proceeds anyway: the follower
	// re-seeds automatically via the snapshot path, whereas an unbounded
	// deferral would let one dead-slow follower pin the WAL forever.
	MaxCompactDefers int

	// MaxRetainedViewAge defers a collapse while a reader still holds
	// an MVCC snapshot view of an older generation at least this old
	// (default 30s; negative disables the deferral). Each collapse
	// advances the store generation and stacks another immutable view
	// clone on top of the history the slow reader already pins, so
	// waiting briefly bounds memory churn. A compact leaves the
	// generation alone, saves nothing by waiting and is never deferred
	// for view age. The deferral shares MaxCompactDefers with the
	// follower-lag courtesy: a stuck reader degrades to memory
	// pressure, never stalled maintenance.
	MaxRetainedViewAge time.Duration
}

// Defaults for the zero Policy.
const (
	DefaultSegmentsHigh    = 64
	DefaultLogBytesHigh    = 4 << 20
	DefaultMinActionGap    = 10 * time.Second
	DefaultMaxDocsPerCycle = 8
	DefaultCollapseAllFrac = 0.5
	DefaultMaxCompactDefer = 3
	DefaultMaxViewAge      = 30 * time.Second
)

// withDefaults fills every zero field with its default. Negative
// sentinels ("never defer") are kept as they are — the state machine
// reads them directly — so normalising a normalised policy changes
// nothing.
func (p Policy) withDefaults() Policy {
	if p.SegmentsHigh <= 0 {
		p.SegmentsHigh = DefaultSegmentsHigh
	}
	if p.SegmentsLow <= 0 || p.SegmentsLow > p.SegmentsHigh {
		p.SegmentsLow = (p.SegmentsHigh + 1) / 2
	}
	if p.LogBytesHigh <= 0 {
		p.LogBytesHigh = DefaultLogBytesHigh
	}
	if p.MinActionGap <= 0 {
		p.MinActionGap = DefaultMinActionGap
	}
	if p.MaxDocsPerCycle <= 0 {
		p.MaxDocsPerCycle = DefaultMaxDocsPerCycle
	}
	if p.CollapseAllFraction <= 0 || p.CollapseAllFraction > 1 {
		p.CollapseAllFraction = DefaultCollapseAllFrac
	}
	if p.MaxCompactDefers == 0 {
		p.MaxCompactDefers = DefaultMaxCompactDefer
	}
	if p.MaxRetainedViewAge == 0 {
		p.MaxRetainedViewAge = DefaultMaxViewAge
	}
	return p
}

// Op is what one policy step tells the controller to do to one shard.
type Op int

const (
	OpNone Op = iota
	// OpCollapseDocs collapses the named documents (Decision.Docs).
	OpCollapseDocs
	// OpCollapseAll collapses every document on the shard.
	OpCollapseAll
	// OpCompact folds the shard's journals without touching segments.
	OpCompact
)

func (o Op) String() string {
	switch o {
	case OpNone:
		return "none"
	case OpCollapseDocs:
		return "collapse-docs"
	case OpCollapseAll:
		return "collapse-all"
	case OpCompact:
		return "compact"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Skip reasons, the keys of the skip counters in /stats and /metrics.
const (
	SkipFollower    = "follower"     // this node is not the primary
	SkipRateLimit   = "rate-limit"   // inside the MinActionGap window
	SkipFollowerLag = "follower-lag" // horizon-advancing work deferred
	SkipViewAge     = "view-age"     // collapse deferred: old view pinned
)

// ShardState is the per-shard memory of the state machine, owned by the
// controller and threaded through Decide.
type ShardState struct {
	// Engaged is the hysteresis latch: set when segments reach the high
	// watermark, cleared only when they fall below the low one.
	Engaged bool
	// LastAction stamps the most recent executed action (rate limit).
	LastAction time.Time
	// CompactDefers counts consecutive follower-lag deferrals.
	CompactDefers int
}

// ShardSignals is one shard's observed state for one policy step.
type ShardSignals struct {
	Shard        int
	Docs         int
	Segments     int
	JournalBytes int64
	DocSegments  []lazyxml.DocSegStat // this shard's documents only
	Durable      bool

	// MVCC view pressure: ViewLag is how many generations the oldest
	// live snapshot view trails the store head (0 when every live view
	// is current — a current view never defers maintenance, however old,
	// since a generation bump costs it nothing extra); OldestViewAge is
	// that oldest view's age.
	ViewLag       uint64
	OldestViewAge time.Duration
}

// Env is the cluster-level context of one policy step.
type Env struct {
	Now     time.Time
	Primary bool
	// FollowerLag is the worst live subscriber's record deficit
	// (0 when no subscriber lags, or none are connected).
	FollowerLag int64
}

// Decision is the outcome of one policy step over one shard.
type Decision struct {
	Op   Op
	Docs []string // documents to collapse, worst-fragmented first
	// FollowCompact: on a durable shard, follow the collapses with a
	// shard Compact — a Collapse rewrites the update log in memory only,
	// so the fresh snapshot is what makes it durable (and what advances
	// the replication horizon).
	FollowCompact bool
	Reason        string // why the op fires, for logs and /stats
	Skip          string // non-empty when work was wanted but withheld
}

// Decide runs one step of the threshold/hysteresis state machine for one
// shard. It is pure apart from mutating st — no I/O, no clock reads —
// which is what makes the machine table-testable: feed signal sequences,
// assert the decisions. p must already be complete (withDefaults); the
// controller normalises its policy once, in New.
func (p Policy) Decide(st *ShardState, sig ShardSignals, env Env) Decision {
	if !env.Primary {
		// Followers never self-maintain: they receive the primary's
		// collapses via the WAL stream or re-seed below the horizon.
		// State is retained so a later promotion resumes where the
		// signals stand, not from scratch.
		return Decision{Skip: SkipFollower}
	}

	// Hysteresis latch: engage at the high watermark, release below the
	// low one. The latch moves even on skipped cycles so the machine
	// tracks the signal, not its own scheduling luck.
	if st.Engaged && sig.Segments < p.SegmentsLow {
		st.Engaged = false
	}
	if !st.Engaged && sig.Segments >= p.SegmentsHigh {
		st.Engaged = true
	}

	var d Decision
	switch {
	case st.Engaged:
		d.Docs = p.pickDocs(sig)
		if sig.Docs > 0 && float64(len(d.Docs)) > p.CollapseAllFraction*float64(sig.Docs) {
			d.Op = OpCollapseAll
			docs := make([]string, 0, len(sig.DocSegments))
			for _, ds := range sig.DocSegments {
				docs = append(docs, ds.Name)
			}
			d.Docs = docs
		} else {
			d.Op = OpCollapseDocs
		}
		d.FollowCompact = sig.Durable
		d.Reason = fmt.Sprintf("segments %d ≥ high watermark %d", sig.Segments, p.SegmentsHigh)
	case sig.Durable && sig.JournalBytes >= p.LogBytesHigh:
		d.Op = OpCompact
		d.Reason = fmt.Sprintf("journal %dB ≥ %dB", sig.JournalBytes, p.LogBytesHigh)
	default:
		return Decision{}
	}
	if len(d.Docs) == 0 && d.Op != OpCompact {
		// Engaged but nothing to collapse (e.g. every document already
		// single-segment while inter-document segments linger): nothing
		// per-document surgery can do.
		return Decision{}
	}

	// Rate limit: one action per shard per MinActionGap.
	if !st.LastAction.IsZero() && env.Now.Sub(st.LastAction) < p.MinActionGap {
		return Decision{Skip: SkipRateLimit}
	}

	// Horizon courtesy: everything this controller does to a durable
	// shard ends in a Compact, which moves the resume horizon. While a
	// live subscriber still lags, defer — bounded, so a stuck follower
	// degrades to a re-seed instead of pinning the WAL.
	if sig.Durable && env.FollowerLag > 0 && st.CompactDefers < p.MaxCompactDefers {
		st.CompactDefers++
		return Decision{Skip: SkipFollowerLag}
	}

	// View courtesy: a collapse bumps the store generation, stacking a
	// fresh view clone on top of whatever generations slow readers still
	// pin. While a stale view (ViewLag > 0) has been held
	// past MaxRetainedViewAge, defer — bounded by the same counter as the
	// follower courtesy, so a reader that never releases degrades to
	// memory pressure instead of stalled maintenance. A compact bumps
	// nothing, so it does not wait.
	if d.Op != OpCompact && p.MaxRetainedViewAge > 0 && sig.ViewLag > 0 &&
		sig.OldestViewAge >= p.MaxRetainedViewAge && st.CompactDefers < p.MaxCompactDefers {
		st.CompactDefers++
		return Decision{Skip: SkipViewAge}
	}
	st.CompactDefers = 0
	st.LastAction = env.Now
	return d
}

// pickDocs chooses the worst-fragmented documents, most segments first,
// until the projected shard segment count falls below the low watermark
// or the per-cycle cap is hit. Collapsing a document folds its subtree
// to one segment, so each pick projects a saving of (segments-1).
func (p Policy) pickDocs(sig ShardSignals) []string {
	ds := append([]lazyxml.DocSegStat(nil), sig.DocSegments...)
	sort.SliceStable(ds, func(i, j int) bool { return ds[i].Segments > ds[j].Segments })
	var out []string
	projected := sig.Segments
	for _, d := range ds {
		if d.Segments <= 1 || len(out) >= p.MaxDocsPerCycle || projected < p.SegmentsLow {
			break
		}
		out = append(out, d.Name)
		projected -= d.Segments - 1
	}
	return out
}
