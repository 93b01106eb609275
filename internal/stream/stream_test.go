package stream

import (
	"context"
	"errors"
	"io"
	"sync/atomic"
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
	b, err := g.Next()
	if err != nil || len(b) != batchSize {
		t.Fatalf("first batch: %d matches, %v", len(b), err)
	}
	for i, m := range b {
		if m.DescStart != i {
			t.Fatalf("match %d: %v", i, m)
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
	if b, err := it.Next(); err != nil || !eqInts(starts(b), []int{1}) {
		t.Fatalf("first: %v %v", starts(b), err)
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

// TestBatchIteratorsSingleConsumption holds every iterator of the
// package to the consumption discipline on the batch API: each batch is
// non-empty, the terminal io.EOF comes once, Next after it is
// ErrExhausted, and Next after Close is ErrClosed.
func TestBatchIteratorsSingleConsumption(t *testing.T) {
	gen := func(n int) Iterator {
		return NewGenerator(context.Background(), func(ctx context.Context, emit func(core.Match) bool) error {
			for i := 0; i < n; i++ {
				if !emit(core.Match{DescStart: i}) {
					return nil
				}
			}
			return nil
		})
	}
	long := make([]core.Match, 2*batchSize+3)
	for _, tc := range []struct {
		name string
		it   Iterator
		rows int
	}{
		{"generator", gen(2*batchSize + 3), 2*batchSize + 3},
		{"generator-empty", gen(0), 0},
		{"slice", FromMatches(long), len(long)},
		{"slice-empty", FromMatches(nil), 0},
		{"limited", Limited(gen(2*batchSize+3), batchSize+1), batchSize + 1},
		{"concat", Concat([]Iterator{gen(3), FromMatches(nil), FromMatches(long)}, 1), 3 + len(long)},
	} {
		rows := 0
		for {
			b, err := tc.it.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if len(b) == 0 || len(b) > batchSize {
				t.Fatalf("%s: batch of %d", tc.name, len(b))
			}
			rows += len(b)
		}
		if rows != tc.rows {
			t.Fatalf("%s: %d rows, want %d", tc.name, rows, tc.rows)
		}
		if _, err := tc.it.Next(); err != ErrExhausted {
			t.Fatalf("%s: Next after EOF: %v, want ErrExhausted", tc.name, err)
		}
		if err := tc.it.Close(); err != nil {
			t.Fatalf("%s: Close: %v", tc.name, err)
		}
		if _, err := tc.it.Next(); err != ErrClosed {
			t.Fatalf("%s: Next after Close: %v, want ErrClosed", tc.name, err)
		}
	}
}

// TestBatchesAreNeverReused: a consumer may keep every batch it was
// handed — the producer writes each one once and starts a fresh one, a
// slice iterator hands out windows of its slice, and Limited trims
// without writing — so after the stream ends each kept batch still
// holds the rows it held when it arrived.
func TestBatchesAreNeverReused(t *testing.T) {
	const n = 5*batchSize + 9
	g := NewGenerator(context.Background(), func(ctx context.Context, emit func(core.Match) bool) error {
		for i := 0; i < n; i++ {
			if !emit(core.Match{DescStart: i}) {
				return nil
			}
		}
		return nil
	})
	it := Limited(g, n-4)
	var kept [][]core.Match
	var firsts []int
	for {
		b, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		kept = append(kept, b)
		firsts = append(firsts, b[0].DescStart)
	}
	it.Close()
	next := 0
	for i, b := range kept {
		if b[0].DescStart != firsts[i] {
			t.Fatalf("batch %d rewritten after handoff", i)
		}
		for _, m := range b {
			if m.DescStart != next {
				t.Fatalf("row %d holds %d", next, m.DescStart)
			}
			next++
		}
	}
	if next != n-4 {
		t.Fatalf("%d rows, want %d", next, n-4)
	}
	if got := g.Produced(); got < n-4 || got > n {
		t.Fatalf("Produced = %d after the stream, want %d..%d", got, n-4, n)
	}
}

// TestFromMatchesWindowsAlias: a materialized slice is served as
// windows of itself — no copy — each capped in capacity, so a consumer
// that appends to a batch cannot write into the next window.
func TestFromMatchesWindowsAlias(t *testing.T) {
	ms := msOf(make([]int, batchSize+2)...)
	it := FromMatches(ms)
	b, err := it.Next()
	if err != nil || len(b) != batchSize || &b[0] != &ms[0] {
		t.Fatalf("first window: %d rows, %v, aliased %v", len(b), err, len(b) > 0 && &b[0] == &ms[0])
	}
	_ = append(b, core.Match{DescStart: -1})
	if ms[batchSize].DescStart == -1 {
		t.Fatal("append to a window wrote into the slice behind it")
	}
	if b, err = it.Next(); err != nil || len(b) != 2 || &b[0] != &ms[batchSize] {
		t.Fatalf("second window: %d rows, %v", len(b), err)
	}
	it.Close()
}

// FuzzBatchPipeline drives the sharded-scan pipeline shape,
// Drain(Limited(Concat(Generators))), with each Generator capped at the
// limit as the engine caps its shard producers. The input picks each
// producer's row count, the limit, the prefetch window and an optional
// cancellation point (a producer cancels the shared context before its
// k-th row). Without a cancel the drain equals the per-row reference —
// every producer's rows in order, cut at the limit — and ends cleanly;
// with one it is a prefix of the reference. Either way, once the chain
// is closed every producer goroutine that started has exited.
func FuzzBatchPipeline(f *testing.F) {
	f.Add([]byte{3, 1, 0, 0, 10, 200, 0})
	f.Add([]byte{4, 2, 20, 1, 120, 0, 0, 255})
	f.Add([]byte{2, 0, 0, 0, 52, 52})
	f.Add([]byte{3, 3, 0, 2, 7, 90, 60, 40})
	f.Fuzz(func(t *testing.T, in []byte) {
		at := func(i int) int {
			if i < len(in) {
				return int(in[i])
			}
			return 0
		}
		parts := 1 + at(0)%4
		prefetch := at(1) % 4
		limit := at(2) * 7
		cancelAt := at(3) // 0: no cancel; else producer (cancelAt-1)%parts before row at(4)*3
		cancelPart, cancelRow := (cancelAt-1)%parts, at(4)*3
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()

		var started, exited atomic.Int32
		var want []int
		its := make([]Iterator, parts)
		for p := 0; p < parts; p++ {
			rows := at(5+p) * 5
			for r := 0; r < rows; r++ {
				want = append(want, p<<16|r)
			}
			g := NewGenerator(ctx, func(ctx context.Context, emit func(core.Match) bool) error {
				started.Add(1)
				defer exited.Add(1)
				for r := 0; r < rows; r++ {
					if cancelAt > 0 && p == cancelPart && r == cancelRow {
						cancel()
					}
					if !emit(core.Match{DescStart: p<<16 | r}) {
						return nil
					}
				}
				return nil
			})
			g.StopAfter(limit)
			its[p] = g
		}
		if limit > 0 && limit < len(want) {
			want = want[:limit]
		}
		it := Limited(Concat(its, prefetch), limit)
		got, err := Drain(it)
		if err := it.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if started.Load() != exited.Load() {
			t.Fatalf("%d producers started, %d exited after Close", started.Load(), exited.Load())
		}
		g := starts(got)
		if len(g) > len(want) || !eqInts(g, want[:len(g)]) {
			t.Fatalf("drained rows are not a prefix of the reference: %d rows of %d", len(g), len(want))
		}
		cancelled := ctx.Err() != nil
		switch {
		case err == nil && len(g) != len(want):
			t.Fatalf("clean drain of %d rows, want %d", len(g), len(want))
		case err != nil && !(cancelled && errors.Is(err, context.Canceled)):
			t.Fatalf("drain ended in %v (cancelled: %v)", err, cancelled)
		}
	})
}
