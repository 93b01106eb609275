package stream

import (
	"context"
	"errors"
	"io"
	"testing"

	"repro/internal/core"
)

func msOf(starts ...int) []core.Match {
	out := make([]core.Match, len(starts))
	for i, s := range starts {
		out[i] = core.Match{DescStart: s, DescEnd: s + 1}
	}
	return out
}

func starts(ms []core.Match) []int {
	out := make([]int, len(ms))
	for i, m := range ms {
		out[i] = m.DescStart
	}
	return out
}

func eqInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestFromMatchesConsumptionDiscipline(t *testing.T) {
	it := FromMatches(msOf(1, 2, 3))
	got, err := Drain(it)
	if err != nil || !eqInts(starts(got), []int{1, 2, 3}) {
		t.Fatalf("drain: %v %v", starts(got), err)
	}
	// The janus-datalog rule: a second consumption is loud, not empty.
	if _, err := it.Next(); err != ErrExhausted {
		t.Fatalf("Next after EOF: %v, want ErrExhausted", err)
	}
	if err := it.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := it.Next(); err != ErrClosed {
		t.Fatalf("Next after Close: %v, want ErrClosed", err)
	}
}

func TestGeneratorStreamsBatchesInOrder(t *testing.T) {
	const n = 3*batchSize + 17 // crosses several batch boundaries
	g := NewGenerator(context.Background(), func(ctx context.Context, emit func(core.Match) bool) error {
		for i := 0; i < n; i++ {
			if !emit(core.Match{DescStart: i}) {
				return nil
			}
		}
		return nil
	})
	got, err := Drain(g)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if len(got) != n {
		t.Fatalf("got %d matches, want %d", len(got), n)
	}
	for i, m := range got {
		if m.DescStart != i {
			t.Fatalf("out of order at %d: %d", i, m.DescStart)
		}
	}
	if _, err := g.Next(); err != ErrExhausted {
		t.Fatalf("Next after EOF: %v", err)
	}
	if err := g.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestGeneratorProducerErrorSurfacesOnce(t *testing.T) {
	boom := errors.New("boom")
	g := NewGenerator(context.Background(), func(ctx context.Context, emit func(core.Match) bool) error {
		// A full batch flushes before the failure; the trailing partial
		// batch is intentionally dropped — a failed stream ends at its
		// last delivered boundary, it does not trickle partial data.
		for i := 0; i < batchSize+5; i++ {
			if !emit(core.Match{DescStart: i}) {
				return nil
			}
		}
		return boom
	})
	for i := 0; i < batchSize; i++ {
		m, err := g.Next()
		if err != nil || m.DescStart != i {
			t.Fatalf("match %d: %v %v", i, m, err)
		}
	}
	if _, err := g.Next(); err != boom {
		t.Fatalf("terminal: %v, want boom", err)
	}
	if _, err := g.Next(); err != ErrExhausted {
		t.Fatalf("after terminal: %v, want ErrExhausted", err)
	}
}

func TestGeneratorCloseStopsProducer(t *testing.T) {
	stopped := make(chan struct{})
	g := NewGenerator(context.Background(), func(ctx context.Context, emit func(core.Match) bool) error {
		defer close(stopped)
		for i := 0; ; i++ {
			if !emit(core.Match{DescStart: i}) {
				return nil
			}
		}
	})
	if _, err := g.Next(); err != nil {
		t.Fatalf("Next: %v", err)
	}
	if err := g.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	<-stopped // producer goroutine must exit, not leak
	if _, err := g.Next(); err != ErrClosed {
		t.Fatalf("Next after Close: %v", err)
	}
	if err := g.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestGeneratorContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := NewGenerator(ctx, func(ctx context.Context, emit func(core.Match) bool) error {
		for i := 0; ; i++ {
			if !emit(core.Match{DescStart: i}) {
				return nil
			}
		}
	})
	if _, err := g.Next(); err != nil {
		t.Fatalf("Next: %v", err)
	}
	cancel()
	var err error
	for err == nil {
		_, err = g.Next()
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("terminal error: %v, want context.Canceled", err)
	}
	g.Close()
}

func TestBudgetChargeReleasePeak(t *testing.T) {
	b := NewBudget(100)
	if err := b.Charge(60); err != nil {
		t.Fatalf("charge 60: %v", err)
	}
	if err := b.Charge(40); err != nil {
		t.Fatalf("charge 40: %v", err)
	}
	b.Release(50)
	if b.Used() != 50 || b.Peak() != 100 {
		t.Fatalf("used=%d peak=%d", b.Used(), b.Peak())
	}
	err := b.Charge(60)
	if err == nil {
		t.Fatal("overflow charge succeeded")
	}
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("errors.Is(ErrBudgetExceeded) false for %v", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Limit != 100 || be.Used != 110 {
		t.Fatalf("budget error detail: %+v", be)
	}
	if b.Peak() != 110 {
		t.Fatalf("peak after overflow: %d", b.Peak())
	}
	if b.Used() != 50 {
		t.Fatalf("a failed charge kept its bytes: used=%d, want 50", b.Used())
	}
}

func TestBudgetNilAndDisabled(t *testing.T) {
	if NewBudget(0) != nil || NewBudget(-5) != nil {
		t.Fatal("non-positive budget should be nil (unlimited)")
	}
	var b *Budget
	if err := b.Charge(1 << 40); err != nil {
		t.Fatalf("nil budget charge: %v", err)
	}
	b.Release(1)
	if b.Used() != 0 || b.Peak() != 0 {
		t.Fatal("nil budget accounting should read zero")
	}
}

func TestLimitedStopsPullingUpstream(t *testing.T) {
	pulls := 0
	g := NewGenerator(context.Background(), func(ctx context.Context, emit func(core.Match) bool) error {
		for i := 0; i < 10*batchSize; i++ {
			pulls++
			if !emit(core.Match{DescStart: i}) {
				return nil
			}
		}
		return nil
	})
	it := Limited(g, 3)
	got, err := Drain(it)
	if err != nil || !eqInts(starts(got), []int{0, 1, 2}) {
		t.Fatalf("limited drain: %v %v", starts(got), err)
	}
	if _, err := it.Next(); err != ErrExhausted {
		t.Fatalf("after EOF: %v", err)
	}
	it.Close()
	// The producer ran ahead at most a couple of batch windows before the
	// cap cut it off — never the full 10*batchSize result.
	if pulls > 3*batchSize {
		t.Fatalf("limit did not bound production: %d emits", pulls)
	}
	if Limited(FromMatches(nil), 0) == nil {
		t.Fatal("Limited(it, 0) should pass through")
	}
}

func TestConcatOrderAndPrefetch(t *testing.T) {
	started := make([]bool, 3)
	mk := func(i int, ms []core.Match) Iterator {
		return NewGenerator(context.Background(), func(ctx context.Context, emit func(core.Match) bool) error {
			started[i] = true
			for _, m := range ms {
				if !emit(m) {
					return nil
				}
			}
			return nil
		})
	}
	its := []Iterator{mk(0, msOf(1, 2)), mk(1, msOf(3)), mk(2, msOf(4, 5))}
	it := Concat(its, 1)
	got, err := Drain(it)
	if err != nil || !eqInts(starts(got), []int{1, 2, 3, 4, 5}) {
		t.Fatalf("concat: %v %v", starts(got), err)
	}
	if _, err := it.Next(); err != ErrExhausted {
		t.Fatalf("after EOF: %v", err)
	}
	if err := it.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i, s := range started {
		if !s {
			t.Fatalf("iterator %d never started", i)
		}
	}
}

func TestConcatCloseClosesRemaining(t *testing.T) {
	stopped := make(chan struct{})
	endless := NewGenerator(context.Background(), func(ctx context.Context, emit func(core.Match) bool) error {
		defer close(stopped)
		for i := 0; ; i++ {
			if !emit(core.Match{DescStart: i}) {
				return nil
			}
		}
	})
	it := Concat([]Iterator{FromMatches(msOf(1)), endless}, 1)
	if m, err := it.Next(); err != nil || m.DescStart != 1 {
		t.Fatalf("first: %v %v", m, err)
	}
	if err := it.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	<-stopped // prefetched producer must be shut down too
}

func TestConcatPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	bad := NewGenerator(context.Background(), func(ctx context.Context, emit func(core.Match) bool) error {
		return boom
	})
	it := Concat([]Iterator{FromMatches(msOf(1)), bad, FromMatches(msOf(2))}, 0)
	got, err := Drain(it)
	if err != boom || !eqInts(starts(got), []int{1}) {
		t.Fatalf("drain: %v %v, want boom after [1]", starts(got), err)
	}
	it.Close()
}

func TestDrainDoesNotClose(t *testing.T) {
	it := FromMatches(msOf(1))
	if _, err := Drain(it); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Drain leaves closing to the caller; Close still works and flips the
	// error discipline.
	if err := it.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := it.Next(); err != ErrClosed {
		t.Fatalf("after Close: %v", err)
	}
}

func TestGeneratorEOFWithNoMatches(t *testing.T) {
	g := NewGenerator(nil, func(ctx context.Context, emit func(core.Match) bool) error {
		return nil
	})
	if _, err := g.Next(); err != io.EOF {
		t.Fatalf("empty producer: %v, want io.EOF", err)
	}
	g.Close()
}

// TestGeneratorStopAfter: a capped producer stops at its cap — it is
// asked for no match past it — delivers the capped rows, and ends in
// ErrCapped, never io.EOF, so a cut result cannot pass for a complete
// one. A producer that finishes below its cap ends in io.EOF.
func TestGeneratorStopAfter(t *testing.T) {
	for _, tc := range []struct{ total, cap, want int }{
		{1000, 100, 100},
		{1000, batchSize, batchSize},
		{1000, batchSize + 1, batchSize + 1},
		{50, 100, 50},
	} {
		asked := 0
		g := NewGenerator(context.Background(), func(ctx context.Context, emit func(core.Match) bool) error {
			for i := 0; i < tc.total; i++ {
				asked++
				if !emit(core.Match{DescStart: i}) {
					return nil
				}
			}
			return nil
		})
		g.StopAfter(tc.cap)
		got, err := Drain(g) // nil: the drain met io.EOF
		if capped := tc.total > tc.cap; capped && err != ErrCapped || !capped && err != nil {
			t.Fatalf("%+v: drain ended in %v", tc, err)
		}
		if len(got) != tc.want || asked != tc.want {
			t.Fatalf("%+v: delivered %d, producer emitted %d; want %d", tc, len(got), asked, tc.want)
		}
		g.Close()
	}
}
