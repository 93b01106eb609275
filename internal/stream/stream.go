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
//     iterator's Next, and context cancellation is checked between
//     pulls so an abandoned consumer stops costing CPU.
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

// Iterator is a single-consumer stream of matches. Next returns io.EOF
// when the stream is naturally exhausted; any other error is terminal.
// Close must be called exactly once when done (early or not) — it
// releases the producer's resources. After exhaustion Next returns
// ErrExhausted; after Close it returns ErrClosed.
type Iterator interface {
	Next() (core.Match, error)
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
// the total would exceed the limit.
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
// emit callback handed to run returns false once the consumer is gone,
// and the run function must honor it promptly (the join emitters do).
type Generator struct {
	run    func(ctx context.Context, emit func(core.Match) bool) error
	ctx    context.Context
	cancel context.CancelFunc

	ch  chan []core.Match
	err error // producer's terminal error; written before ch closes

	batch     []core.Match
	pos       int
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

// Start launches the producer goroutine; it is idempotent and optional
// (Next starts it on demand).
func (g *Generator) Start() {
	if g.started || g.closed {
		return
	}
	g.started = true
	go func() {
		batch := make([]core.Match, 0, batchSize)
		flush := func() bool {
			if len(batch) == 0 {
				return true
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
			if g.ctx.Err() != nil {
				return false
			}
			batch = append(batch, m)
			if len(batch) >= batchSize {
				return flush()
			}
			return true
		})
		if err == nil {
			if cerr := g.ctx.Err(); cerr != nil {
				err = cerr
			} else {
				flush()
			}
		}
		g.err = err
		close(g.ch)
	}()
}

// Next returns the next match, io.EOF at clean exhaustion, or the
// producer's terminal error (budget, cancellation) once.
func (g *Generator) Next() (core.Match, error) {
	if g.closed {
		return core.Match{}, ErrClosed
	}
	if g.exhausted {
		return core.Match{}, ErrExhausted
	}
	g.Start()
	if g.pos < len(g.batch) {
		m := g.batch[g.pos]
		g.pos++
		return m, nil
	}
	for {
		select {
		case b, ok := <-g.ch:
			if !ok {
				g.exhausted = true
				if g.err != nil {
					return core.Match{}, g.err
				}
				return core.Match{}, io.EOF
			}
			if len(b) == 0 {
				continue
			}
			g.batch, g.pos = b, 1
			return b[0], nil
		case <-g.ctx.Done():
			g.exhausted = true
			return core.Match{}, g.ctx.Err()
		}
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
// buffering operator's output) with the same consumption discipline as
// every other iterator.
type sliceIter struct {
	ms        []core.Match
	pos       int
	closed    bool
	exhausted bool
}

// FromMatches returns an Iterator over a materialized match slice.
func FromMatches(ms []core.Match) Iterator { return &sliceIter{ms: ms} }

func (s *sliceIter) Next() (core.Match, error) {
	if s.closed {
		return core.Match{}, ErrClosed
	}
	if s.exhausted {
		return core.Match{}, ErrExhausted
	}
	if s.pos < len(s.ms) {
		m := s.ms[s.pos]
		s.pos++
		return m, nil
	}
	s.exhausted = true
	return core.Match{}, io.EOF
}

func (s *sliceIter) Close() error {
	s.closed = true
	s.ms = nil
	return nil
}

// limited truncates a stream after n matches — true early termination:
// the first Next past the cap reports io.EOF without pulling the inner
// iterator again, so upstream operators stop being driven.
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

func (l *limited) Next() (core.Match, error) {
	if l.closed {
		return core.Match{}, ErrClosed
	}
	if l.exhausted {
		return core.Match{}, ErrExhausted
	}
	if l.remaining <= 0 {
		l.exhausted = true
		return core.Match{}, io.EOF
	}
	m, err := l.it.Next()
	if err != nil {
		l.exhausted = true
		return core.Match{}, err
	}
	l.remaining--
	return m, nil
}

func (l *limited) Close() error {
	l.closed = true
	return l.it.Close()
}

func (l *limited) Start() { startIter(l.it) }

// concat chains iterators back to back, keeping at most prefetch
// upcoming producers started ahead of the one being drained — the
// bounded fan-out of a sharded merge: results arrive in shard order,
// but up to prefetch shard pipelines compute concurrently.
type concat struct {
	its       []Iterator
	cur       int
	prefetch  int
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

func (c *concat) Next() (core.Match, error) {
	if c.closed {
		return core.Match{}, ErrClosed
	}
	if c.exhausted {
		return core.Match{}, ErrExhausted
	}
	c.startWindow()
	for c.cur < len(c.its) {
		m, err := c.its[c.cur].Next()
		if err == nil {
			return m, nil
		}
		if err != io.EOF {
			c.exhausted = true
			return core.Match{}, err
		}
		c.its[c.cur].Close()
		c.cur++
		c.startWindow()
	}
	c.exhausted = true
	return core.Match{}, io.EOF
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

func (c *concat) Start() { c.startWindow() }

// Drain pulls it to exhaustion (or error), returning the matches. The
// iterator is not closed — pair with Close as usual.
func Drain(it Iterator) ([]core.Match, error) {
	var out []core.Match
	for {
		m, err := it.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, m)
	}
}

// Count pulls it to exhaustion (or error), returning how many matches it
// delivered; none is retained. The iterator is not closed.
func Count(it Iterator) (int, error) {
	n := 0
	for {
		_, err := it.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		n++
	}
}
