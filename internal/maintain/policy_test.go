package maintain

import (
	"reflect"
	"testing"
	"time"

	lazyxml "repro"
)

// The state machine is pure: each test drives one ShardState through a
// sequence of (signals, env) steps and asserts the decision at every
// step — watermark crossings, hysteresis, rate-limit windows, follower
// demotion, lag deferral.

type step struct {
	sig ShardSignals
	env Env

	wantOp   Op
	wantSkip string
	wantDocs []string // nil: don't check
}

func runSteps(t *testing.T, p Policy, steps []step) *ShardState {
	t.Helper()
	p = p.withDefaults() // what New does for the controller's policy
	st := &ShardState{}
	for i, s := range steps {
		d := p.Decide(st, s.sig, s.env)
		if d.Op != s.wantOp {
			t.Fatalf("step %d: op = %v, want %v (decision %+v)", i, d.Op, s.wantOp, d)
		}
		if d.Skip != s.wantSkip {
			t.Fatalf("step %d: skip = %q, want %q", i, d.Skip, s.wantSkip)
		}
		if s.wantDocs != nil && !reflect.DeepEqual(d.Docs, s.wantDocs) {
			t.Fatalf("step %d: docs = %v, want %v", i, d.Docs, s.wantDocs)
		}
	}
	return st
}

func at(sec int) time.Time { return time.Unix(int64(sec), 0) }

func sig(segments int, docs ...lazyxml.DocSegStat) ShardSignals {
	return ShardSignals{Docs: len(docs), Segments: segments, DocSegments: docs}
}

func TestDecideWatermarkHysteresis(t *testing.T) {
	p := Policy{SegmentsHigh: 10, SegmentsLow: 4, MinActionGap: time.Second, CollapseAllFraction: 0.9}
	frag := []lazyxml.DocSegStat{{Name: "a", Segments: 7}, {Name: "b", Segments: 3}, {Name: "c", Segments: 1}}
	steps := []step{
		// Below the high watermark: nothing.
		{sig: sig(9, frag...), env: Env{Now: at(0), Primary: true}, wantOp: OpNone},
		// Crossing it engages and collapses the worst documents first.
		{sig: sig(11, frag...), env: Env{Now: at(10), Primary: true},
			wantOp: OpCollapseDocs, wantDocs: []string{"a", "b"}},
		// Still above the LOW watermark: the latch holds, work continues
		// even though the count is back under the high mark.
		{sig: sig(6, frag...), env: Env{Now: at(20), Primary: true},
			wantOp: OpCollapseDocs},
		// Below the low watermark: disengage, and stay quiet at levels
		// that would re-trigger only via the high mark.
		{sig: sig(3, frag...), env: Env{Now: at(30), Primary: true}, wantOp: OpNone},
		{sig: sig(9, frag...), env: Env{Now: at(40), Primary: true}, wantOp: OpNone},
	}
	st := runSteps(t, p, steps)
	if st.Engaged {
		t.Fatal("machine still engaged after falling below the low watermark")
	}
}

func TestDecideRateLimitWindow(t *testing.T) {
	p := Policy{SegmentsHigh: 10, SegmentsLow: 4, MinActionGap: 10 * time.Second, MaxDocsPerCycle: 1}
	frag := []lazyxml.DocSegStat{{Name: "a", Segments: 9}, {Name: "b", Segments: 5}}
	runSteps(t, p, []step{
		{sig: sig(12, frag...), env: Env{Now: at(0), Primary: true}, wantOp: OpCollapseDocs},
		// Inside the gap: wanted work is withheld, not forgotten.
		{sig: sig(12, frag...), env: Env{Now: at(5), Primary: true}, wantSkip: SkipRateLimit},
		{sig: sig(12, frag...), env: Env{Now: at(9), Primary: true}, wantSkip: SkipRateLimit},
		// The window closes exactly at the gap.
		{sig: sig(12, frag...), env: Env{Now: at(10), Primary: true}, wantOp: OpCollapseDocs},
	})
}

func TestDecideFollowerNeverActs(t *testing.T) {
	p := Policy{SegmentsHigh: 5, SegmentsLow: 2, MinActionGap: time.Second}
	frag := []lazyxml.DocSegStat{{Name: "a", Segments: 50}}
	runSteps(t, p, []step{
		{sig: sig(100, frag...), env: Env{Now: at(0)}, wantSkip: SkipFollower},
		{sig: sig(1000, frag...), env: Env{Now: at(60)}, wantSkip: SkipFollower},
	})
}

// TestDecideDemotionMidCycle: a primary engages, is demoted (skips as a
// follower while the signal persists), and on promotion resumes exactly
// where the hysteresis latch stood — it does not wait for a fresh
// high-watermark crossing.
func TestDecideDemotionMidCycle(t *testing.T) {
	p := Policy{SegmentsHigh: 10, SegmentsLow: 4, MinActionGap: time.Second, MaxDocsPerCycle: 1}
	frag := []lazyxml.DocSegStat{{Name: "a", Segments: 5}, {Name: "b", Segments: 3}}
	runSteps(t, p, []step{
		{sig: sig(11, frag...), env: Env{Now: at(0), Primary: true}, wantOp: OpCollapseDocs},
		// Demoted: the count is between the watermarks, a fresh machine
		// would stay idle — but the latch is retained, not the role.
		{sig: sig(7, frag...), env: Env{Now: at(10)}, wantSkip: SkipFollower},
		{sig: sig(7, frag...), env: Env{Now: at(20)}, wantSkip: SkipFollower},
		// Promoted back: still engaged, resumes collapsing at once.
		{sig: sig(7, frag...), env: Env{Now: at(30), Primary: true}, wantOp: OpCollapseDocs},
	})
}

func TestDecideJournalBytesCompact(t *testing.T) {
	p := Policy{SegmentsHigh: 100, SegmentsLow: 50, LogBytesHigh: 1 << 20, MinActionGap: time.Second}
	big := ShardSignals{Docs: 1, Segments: 3, JournalBytes: 2 << 20, Durable: true,
		DocSegments: []lazyxml.DocSegStat{{Name: "a", Segments: 3}}}
	small := big
	small.JournalBytes = 100
	runSteps(t, p, []step{
		{sig: small, env: Env{Now: at(0), Primary: true}, wantOp: OpNone},
		{sig: big, env: Env{Now: at(10), Primary: true}, wantOp: OpCompact},
	})

	// The same footprint on a non-durable shard has no WAL to fold.
	ephemeral := big
	ephemeral.Durable = false
	runSteps(t, p, []step{
		{sig: ephemeral, env: Env{Now: at(0), Primary: true}, wantOp: OpNone},
	})
}

// TestDecideFollowerLagDeferral: horizon-advancing work on a durable
// shard is deferred while a live subscriber lags — but only
// MaxCompactDefers times, after which it proceeds (the follower can
// re-seed; an unbounded deferral would pin the WAL forever).
func TestDecideFollowerLagDeferral(t *testing.T) {
	p := Policy{SegmentsHigh: 100, SegmentsLow: 50, LogBytesHigh: 1 << 20,
		MinActionGap: time.Second, MaxCompactDefers: 2}
	s := ShardSignals{Docs: 1, Segments: 3, JournalBytes: 2 << 20, Durable: true,
		DocSegments: []lazyxml.DocSegStat{{Name: "a", Segments: 3}}}
	st := runSteps(t, p, []step{
		{sig: s, env: Env{Now: at(0), Primary: true, FollowerLag: 40}, wantSkip: SkipFollowerLag},
		{sig: s, env: Env{Now: at(10), Primary: true, FollowerLag: 40}, wantSkip: SkipFollowerLag},
		// Third cycle: the deferral budget is spent, compact anyway.
		{sig: s, env: Env{Now: at(20), Primary: true, FollowerLag: 40}, wantOp: OpCompact},
	})
	if st.CompactDefers != 0 {
		t.Fatalf("defer counter = %d after acting, want 0", st.CompactDefers)
	}

	// A caught-up subscriber never defers.
	runSteps(t, p, []step{
		{sig: s, env: Env{Now: at(0), Primary: true}, wantOp: OpCompact},
	})
}

// TestDecideViewAgeDeferral: generation-bumping work is deferred while
// a reader pins an MVCC view of an older generation past
// MaxRetainedViewAge — bounded by the same budget as the follower
// courtesy, and only when the pinned view is actually stale: a current
// view, however old, costs a bump nothing extra.
func TestDecideViewAgeDeferral(t *testing.T) {
	p := Policy{SegmentsHigh: 100, SegmentsLow: 50, LogBytesHigh: 1 << 20,
		MinActionGap: time.Second, MaxCompactDefers: 2, MaxRetainedViewAge: 5 * time.Second}
	s := ShardSignals{Docs: 1, Segments: 3, JournalBytes: 2 << 20, Durable: true,
		DocSegments: []lazyxml.DocSegStat{{Name: "a", Segments: 3}}}

	stale := s
	stale.ViewLag = 2
	stale.OldestViewAge = 8 * time.Second
	st := runSteps(t, p, []step{
		{sig: stale, env: Env{Now: at(0), Primary: true}, wantSkip: SkipViewAge},
		{sig: stale, env: Env{Now: at(10), Primary: true}, wantSkip: SkipViewAge},
		// Budget spent: the reader degrades to memory pressure, not
		// stalled maintenance.
		{sig: stale, env: Env{Now: at(20), Primary: true}, wantOp: OpCompact},
	})
	if st.CompactDefers != 0 {
		t.Fatalf("defer counter = %d after acting, want 0", st.CompactDefers)
	}

	// A long-held but current view (no generation lag) never defers.
	current := s
	current.OldestViewAge = time.Hour
	runSteps(t, p, []step{
		{sig: current, env: Env{Now: at(0), Primary: true}, wantOp: OpCompact},
	})

	// A stale view younger than the threshold never defers either.
	young := stale
	young.OldestViewAge = time.Second
	runSteps(t, p, []step{
		{sig: young, env: Env{Now: at(0), Primary: true}, wantOp: OpCompact},
	})

	// Negative MaxRetainedViewAge disables the courtesy outright.
	off := p
	off.MaxRetainedViewAge = -1
	runSteps(t, off, []step{
		{sig: stale, env: Env{Now: at(0), Primary: true}, wantOp: OpCompact},
	})
}

func TestDecideCollapseAllFraction(t *testing.T) {
	p := Policy{SegmentsHigh: 10, SegmentsLow: 2, MinActionGap: time.Second,
		CollapseAllFraction: 0.5, MaxDocsPerCycle: 8}
	// Every document fragmented: per-document surgery would touch all
	// of them, so the sweep wins.
	frag := []lazyxml.DocSegStat{
		{Name: "a", Segments: 4}, {Name: "b", Segments: 4}, {Name: "c", Segments: 4}}
	runSteps(t, p, []step{
		{sig: sig(12, frag...), env: Env{Now: at(0), Primary: true},
			wantOp: OpCollapseAll, wantDocs: []string{"a", "b", "c"}},
	})
}

func TestDecideMaxDocsPerCycle(t *testing.T) {
	p := Policy{SegmentsHigh: 10, SegmentsLow: 1, MinActionGap: time.Second,
		MaxDocsPerCycle: 2, CollapseAllFraction: 0.9}
	frag := []lazyxml.DocSegStat{
		{Name: "a", Segments: 5}, {Name: "b", Segments: 4}, {Name: "c", Segments: 3},
		{Name: "d", Segments: 2}, {Name: "e", Segments: 2}, {Name: "f", Segments: 2}}
	runSteps(t, p, []step{
		// 2 of 6 docs stays under the 0.9 fraction → per-doc collapse,
		// capped at two, worst first.
		{sig: sig(18, frag...), env: Env{Now: at(0), Primary: true},
			wantOp: OpCollapseDocs, wantDocs: []string{"a", "b"}},
	})
}

// TestDecideStopsAtProjectedLow: picking stops once the projected count
// falls under the low watermark — no point collapsing documents whose
// savings the shard no longer needs.
func TestDecideStopsAtProjectedLow(t *testing.T) {
	p := Policy{SegmentsHigh: 10, SegmentsLow: 5, MinActionGap: time.Second,
		MaxDocsPerCycle: 8, CollapseAllFraction: 0.9}
	frag := []lazyxml.DocSegStat{
		{Name: "a", Segments: 8}, {Name: "b", Segments: 3}, {Name: "c", Segments: 2}}
	// 13 segments; collapsing "a" projects 13-7=6, still ≥ low → also
	// pick "b" (projects 4 < 5) → stop before "c".
	runSteps(t, p, []step{
		{sig: sig(13, frag...), env: Env{Now: at(0), Primary: true},
			wantOp: OpCollapseDocs, wantDocs: []string{"a", "b"}},
	})
}

// TestDecideSingleSegmentDocsIgnored: engagement with nothing to
// collapse (every document already one segment) decides nothing rather
// than spinning on no-op collapses.
func TestDecideSingleSegmentDocsIgnored(t *testing.T) {
	p := Policy{SegmentsHigh: 3, SegmentsLow: 1, MinActionGap: time.Second}
	flat := []lazyxml.DocSegStat{{Name: "a", Segments: 1}, {Name: "b", Segments: 1}}
	runSteps(t, p, []step{
		{sig: sig(4, flat...), env: Env{Now: at(0), Primary: true}, wantOp: OpNone},
	})
}

func TestPolicyDefaults(t *testing.T) {
	p := Policy{}.withDefaults()
	if p.SegmentsHigh != DefaultSegmentsHigh || p.SegmentsLow != (DefaultSegmentsHigh+1)/2 {
		t.Fatalf("watermark defaults = %d/%d", p.SegmentsHigh, p.SegmentsLow)
	}
	if p.LogBytesHigh != DefaultLogBytesHigh || p.MinActionGap != DefaultMinActionGap {
		t.Fatalf("log/gap defaults = %d/%s", p.LogBytesHigh, p.MinActionGap)
	}
	// A low watermark above the high one is repaired, not honored.
	p = Policy{SegmentsHigh: 10, SegmentsLow: 20}.withDefaults()
	if p.SegmentsLow > p.SegmentsHigh {
		t.Fatalf("low %d above high %d survived withDefaults", p.SegmentsLow, p.SegmentsHigh)
	}
	// Normalising is idempotent, the negative "never defer" sentinels
	// included: a second pass must not turn them into the defaults.
	for _, raw := range []Policy{{}, {SegmentsHigh: 10, SegmentsLow: 20},
		{MaxCompactDefers: -1}, {MaxRetainedViewAge: -1}} {
		once := raw.withDefaults()
		if twice := once.withDefaults(); twice != once {
			t.Fatalf("withDefaults not idempotent on %+v: %+v then %+v", raw, once, twice)
		}
	}
	if p = (Policy{MaxCompactDefers: -1, MaxRetainedViewAge: -1}).withDefaults(); p.MaxCompactDefers >= 0 || p.MaxRetainedViewAge >= 0 {
		t.Fatalf("negative sentinels rewritten: %+v", p)
	}
}
