// Package stream is the pull-based execution spine of streaming
// queries: a small algebra of single-consumer match iterators over the
// push-form (emit) structural joins in internal/join and internal/core.
//
// The inversion works like this: the joins are stack algorithms that
// naturally *push* results as a merge advances, while a network server
// needs to *pull* rows at the client's pace. Generator bridges the two
// with one producer goroutine per query and a bounded channel of small
// batches — the only buffering between the operator and the consumer,
// a constant independent of result size. Everything else in the package
// (FromMatches, Limited, Concat) is plain synchronous
// composition.
//
// Rows cross every operator a batch at a time. A batch is immutable
// once handed out: the producer allocates a fresh one for each handoff
// and never writes it again, so an operator may pass it on, trim it
// (Limited re-slices) or keep a reference to it (a cache tee) without
// copying a row, and a consumer may hold it as long as it likes. The
// per-operator cost is therefore per batch, not per row; a consumer
// that needs a slice of its own (Drain) copies once, at the end.
//
// Two disciplines every iterator here enforces, both learned from the
// janus-datalog lazy-materialization bug (an iterator silently consumed
// twice made a join return zero rows):
//
//   - Single consumption: Next after the terminal io.EOF returns
//     ErrExhausted, and Next after Close returns ErrClosed — loud,
//     structured errors instead of a silent empty re-read.
//   - Fail fast on resource pressure: a Budget charge that would exceed
//     the per-query limit surfaces as a *BudgetError (matchable with
//     errors.Is against ErrBudgetExceeded) from the producing
//     iterator's Next, and context cancellation is checked once per
//     batch so an abandoned consumer stops costing CPU.
//
// Iterators are not safe for concurrent use; one goroutine consumes one
// iterator.
package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/core"
)

// Iterator is a single-consumer stream of match batches. Next returns
// the next non-empty batch, or io.EOF when the stream is naturally
// exhausted; any other error is terminal. A batch is read-only and is
// never reused by the iterator, so the caller may keep it. Close must be
// called exactly once when done (early or not) — it releases the
// producer's resources. After exhaustion Next returns ErrExhausted;
// after Close it returns ErrClosed.
type Iterator interface {
	Next() ([]core.Match, error)
	Close() error
}

// Starter is implemented by iterators whose production can be kicked
// off ahead of the first Next — Concat uses it to overlap shard
// producers within a bounded window.
type Starter interface {
	Start()
}

var (
	// ErrExhausted is returned by Next after the stream already
	// delivered its terminal io.EOF: the caller is re-consuming a
	// one-shot iterator.
	ErrExhausted = errors.New("stream: iterator already consumed")
	// ErrClosed is returned by Next after Close.
	ErrClosed = errors.New("stream: iterator closed")
	// ErrBudgetExceeded matches (via errors.Is) the *BudgetError a
	// budgeted pipeline fails with.
	ErrBudgetExceeded = errors.New("stream: query memory budget exceeded")
	// ErrCapped is returned by a Generator's Next after the rows of a
	// producer that StopAfter stopped at its cap: the result was cut,
	// not exhausted, so nothing may read it as complete (the cache tee
	// admits only on io.EOF). A Limited of the same n above the
	// Generator never pulls far enough to see it.
	ErrCapped = errors.New("stream: producer stopped at its cap")
)

// BudgetError reports a failed budget charge: the query's buffered
// state would have exceeded the per-query limit.
type BudgetError struct {
	Limit int64 // configured budget in bytes
	Used  int64 // bytes charged when the overflowing charge arrived
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("stream: query memory budget exceeded (%d bytes used of %d allowed)", e.Used, e.Limit)
}

// Is makes errors.Is(err, ErrBudgetExceeded) true for *BudgetError.
func (e *BudgetError) Is(target error) bool { return target == ErrBudgetExceeded }

// Budget is a per-query accounting of buffered bytes, shared by every
// operator of one query's pipeline (across shards too, so a fan-out
// cannot multiply the limit). Charges cover materialization points —
// dedup frontiers between path steps, operator result buffers — not the
// constant-size batch window between producer and consumer. A nil
// *Budget is valid and unlimited.
type Budget struct {
	max  int64
	used atomic.Int64
	peak atomic.Int64
}

// NewBudget returns a budget of maxBytes; <= 0 means unlimited (nil is
// returned, which every method accepts).
func NewBudget(maxBytes int64) *Budget {
	if maxBytes <= 0 {
		return nil
	}
	return &Budget{max: maxBytes}
}

// Charge accounts n more buffered bytes, failing with a *BudgetError if
// the total would exceed the limit. A failed charge is taken back before
// Charge returns (only Peak keeps it), so on a shared budget one
// operator's overflow leaves its siblings the room they had.
func (b *Budget) Charge(n int64) error {
	if b == nil {
		return nil
	}
	used := b.used.Add(n)
	for {
		p := b.peak.Load()
		if used <= p || b.peak.CompareAndSwap(p, used) {
			break
		}
	}
	if used > b.max {
		b.used.Add(-n)
		return &BudgetError{Limit: b.max, Used: used}
	}
	return nil
}

// Release returns n previously charged bytes.
func (b *Budget) Release(n int64) {
	if b != nil {
		b.used.Add(-n)
	}
}

// Used returns the bytes currently charged.
func (b *Budget) Used() int64 {
	if b == nil {
		return 0
	}
	return b.used.Load()
}

// Peak returns the high-water mark of charged bytes.
func (b *Budget) Peak() int64 {
	if b == nil {
		return 0
	}
	return b.peak.Load()
}

// batchSize is the number of matches per producer→consumer handoff. Two
// batches (one in the channel, one being filled) bound the in-flight
// window of a Generator.
const batchSize = 256

// Generator adapts a push-form producer (anything that can call emit
// per match) into a pull Iterator. The producer runs in its own
// goroutine, started lazily on the first Next (or explicitly via
// Start), and is stopped by Close through context cancellation — the
// emit callback handed to run returns false once the consumer is gone
// (checked when a batch fills), and the run function must honor it
// promptly (the join emitters do).
type Generator struct {
	run    func(ctx context.Context, emit func(core.Match) bool) error
	ctx    context.Context
	cancel context.CancelFunc

	ch        chan []core.Match
	err       error // producer's terminal error; written before ch closes
	stopAfter int   // producer cap set by StopAfter; 0 = none
	produced  atomic.Int64

	started   bool
	closed    bool
	exhausted bool
}

// NewGenerator wraps run as an Iterator. run must emit matches in
// stream order and return the terminal error (nil for clean
// completion); it must stop when emit returns false or ctx is done.
func NewGenerator(ctx context.Context, run func(ctx context.Context, emit func(core.Match) bool) error) *Generator {
	if ctx == nil {
		ctx = context.Background()
	}
	cctx, cancel := context.WithCancel(ctx)
	return &Generator{run: run, ctx: cctx, cancel: cancel, ch: make(chan []core.Match, 1)}
}

// StopAfter caps the producer at n matches (n <= 0: no cap): its emit
// returns false once n are batched, so no consumer that wants at most n
// rows pays for more. The n rows are delivered, then ErrCapped, never
// io.EOF. Call it before the producer starts.
func (g *Generator) StopAfter(n int) { g.stopAfter = n }

// Produced returns how many matches the producer has emitted: exact
// once it has finished (after exhaustion or Close), and behind by at
// most the batch being filled while it runs.
func (g *Generator) Produced() int64 { return g.produced.Load() }

// Start launches the producer goroutine; it is idempotent and optional
// (Next starts it on demand).
func (g *Generator) Start() {
	if g.started || g.closed {
		return
	}
	g.started = true
	go func() {
		batch := make([]core.Match, 0, batchSize)
		emitted, capped := 0, false
		// flush hands the batch over whole and starts a fresh one: the
		// consumer owns what it receives. It is the producer's one
		// cancellation check.
		flush := func() bool {
			g.produced.Store(int64(emitted))
			if len(batch) == 0 {
				return true
			}
			if g.ctx.Err() != nil {
				return false
			}
			select {
			case g.ch <- batch:
				batch = make([]core.Match, 0, batchSize)
				return true
			case <-g.ctx.Done():
				return false
			}
		}
		err := g.run(g.ctx, func(m core.Match) bool {
			batch = append(batch, m)
			if emitted++; emitted == g.stopAfter {
				capped = true
				return false
			}
			if len(batch) == batchSize {
				return flush()
			}
			return true
		})
		if err == nil {
			// A last batch that cannot be handed over was cut by the
			// cancellation, whatever else ended the producer.
			if err = g.ctx.Err(); err == nil && !flush() {
				err = g.ctx.Err()
			}
			if err == nil && capped {
				err = ErrCapped
			}
		}
		g.produced.Store(int64(emitted))
		g.err = err
		close(g.ch)
	}()
}

// Next returns the next batch, io.EOF at clean exhaustion, or the
// producer's terminal error (budget, cancellation) once.
func (g *Generator) Next() ([]core.Match, error) {
	if g.closed {
		return nil, ErrClosed
	}
	if g.exhausted {
		return nil, ErrExhausted
	}
	g.Start()
	select {
	case b, ok := <-g.ch:
		if ok {
			return b, nil
		}
		g.exhausted = true
		if g.err != nil {
			return nil, g.err
		}
		return nil, io.EOF
	case <-g.ctx.Done():
		g.exhausted = true
		return nil, g.ctx.Err()
	}
}

// Close stops the producer and waits for it to exit. Idempotent; safe
// after exhaustion.
func (g *Generator) Close() error {
	if g.closed {
		return nil
	}
	g.closed = true
	g.cancel()
	if g.started {
		// Drain until the producer observes cancellation and closes the
		// channel, so its goroutine can never leak blocked on a send.
		for range g.ch {
		}
	}
	return nil
}

// sliceIter serves an already-materialized result (a cache hit, a
// buffering operator's output) as batches of at most batchSize, each a
// window of the slice itself — with the same consumption discipline as
// every other iterator.
type sliceIter struct {
	ms        []core.Match
	closed    bool
	exhausted bool
}

// FromMatches returns an Iterator over a materialized match slice. The
// batches it hands out alias ms, which must not change while they are
// in use.
func FromMatches(ms []core.Match) Iterator { return &sliceIter{ms: ms} }

func (s *sliceIter) Next() ([]core.Match, error) {
	if s.closed {
		return nil, ErrClosed
	}
	if s.exhausted {
		return nil, ErrExhausted
	}
	if len(s.ms) == 0 {
		s.exhausted = true
		return nil, io.EOF
	}
	n := min(len(s.ms), batchSize)
	b := s.ms[:n:n]
	s.ms = s.ms[n:]
	return b, nil
}

func (s *sliceIter) Close() error {
	s.closed = true
	s.ms = nil
	return nil
}

// limited truncates a stream after n matches — true early termination:
// the batch that reaches the cap is trimmed to it, and the next Next
// reports io.EOF without pulling the inner iterator again, so upstream
// operators stop being driven.
type limited struct {
	it        Iterator
	remaining int
	closed    bool
	exhausted bool
}

// Limited caps it at n matches; n <= 0 returns it unchanged.
func Limited(it Iterator, n int) Iterator {
	if n <= 0 {
		return it
	}
	return &limited{it: it, remaining: n}
}

func (l *limited) Next() ([]core.Match, error) {
	if l.closed {
		return nil, ErrClosed
	}
	if l.exhausted {
		return nil, ErrExhausted
	}
	if l.remaining <= 0 {
		l.exhausted = true
		return nil, io.EOF
	}
	b, err := l.it.Next()
	if err != nil {
		l.exhausted = true
		return nil, err
	}
	if len(b) > l.remaining {
		b = b[:l.remaining:l.remaining]
	}
	l.remaining -= len(b)
	return b, nil
}

func (l *limited) Close() error {
	l.closed = true
	return l.it.Close()
}

func (l *limited) Start() { startIter(l.it) }

// concat chains iterators back to back, keeping at most prefetch
// upcoming producers started ahead of the one being drained — the
// bounded fan-out of a sharded merge: results arrive in shard order,
// but up to prefetch shard pipelines compute concurrently. The window
// moves only when one iterator ends and the next takes over.
type concat struct {
	its       []Iterator
	cur       int
	prefetch  int
	started   bool
	closed    bool
	exhausted bool
}

// Concat returns an Iterator yielding every iterator's matches in
// order. prefetch is how many upcoming iterators may run ahead of the
// current one (<= 0: none).
func Concat(its []Iterator, prefetch int) Iterator {
	if prefetch < 0 {
		prefetch = 0
	}
	return &concat{its: its, prefetch: prefetch}
}

func startIter(it Iterator) {
	if s, ok := it.(Starter); ok {
		s.Start()
	}
}

func (c *concat) startWindow() {
	for i := c.cur; i < len(c.its) && i <= c.cur+c.prefetch; i++ {
		startIter(c.its[i])
	}
}

func (c *concat) Next() ([]core.Match, error) {
	if c.closed {
		return nil, ErrClosed
	}
	if c.exhausted {
		return nil, ErrExhausted
	}
	c.Start()
	for c.cur < len(c.its) {
		b, err := c.its[c.cur].Next()
		if err == nil {
			return b, nil
		}
		if err != io.EOF {
			c.exhausted = true
			return nil, err
		}
		c.its[c.cur].Close()
		c.cur++
		c.startWindow()
	}
	c.exhausted = true
	return nil, io.EOF
}

func (c *concat) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	var first error
	for i := c.cur; i < len(c.its); i++ {
		if err := c.its[i].Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Start starts the first window of iterators; later windows start as
// Next moves through the chain.
func (c *concat) Start() {
	if !c.started {
		c.started = true
		c.startWindow()
	}
}

// Drain pulls it to exhaustion (or error), returning the matches in a
// slice of the caller's own: the rows are copied out of the batches, so
// nothing returned aliases a producer's or a cache's memory. The
// iterator is not closed — pair with Close as usual.
func Drain(it Iterator) ([]core.Match, error) {
	var out []core.Match
	for {
		b, err := it.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, b...)
	}
}

// Count pulls it to exhaustion (or error), returning how many matches it
// delivered; none is retained. The iterator is not closed.
func Count(it Iterator) (int, error) {
	n := 0
	for {
		b, err := it.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		n += len(b)
	}
}
