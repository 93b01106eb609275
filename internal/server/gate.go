package server

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// errShed marks a write refused by overload shedding: the shard's write
// queue is saturated (or the request waited past the shed deadline), and
// the client should back off and retry rather than pile onto the queue.
var errShed = errors.New("write queue saturated")

// gate implements the server's write/admin concurrency model. Each
// shard's write lock already makes its writes one at a time, so the gate
// adds only policy on top: per shard, one slot (updates to the same shard
// queue here, where they can be shed, instead of on that lock) or, in
// front of a commit lane, enough slots for concurrent writes to meet in
// a batch; writes to different shards proceed concurrently — the write
// gate scales per shard instead of per process. Reads never pass through the
// gate at all: they run lock-free against MVCC snapshot views, so the
// gate is a write-and-admin construct only. Every acquisition is bounded
// by the request's context so a queued request gives up at its deadline.
type gate struct {
	shards  []chan struct{} // one write-slot channel per shard
	waiting []atomic.Int64  // writers queued (incl. in service of a slot) per lane
	queue   int             // max writers waiting per lane; <=0 unbounded
}

// newGate builds a gate with writersPerShard slots on each of shards
// write lanes and a per-lane write-queue bound (queue <= 0 leaves the
// queue unbounded).
func newGate(shards, writersPerShard, queue int) *gate {
	if shards <= 0 {
		shards = 1
	}
	g := &gate{
		shards:  make([]chan struct{}, shards),
		waiting: make([]atomic.Int64, shards),
		queue:   queue,
	}
	for i := range g.shards {
		g.shards[i] = make(chan struct{}, writersPerShard)
	}
	return g
}

func acquire(ctx context.Context, slots chan struct{}) error {
	if slots == nil {
		return nil
	}
	select {
	case slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func release(slots chan struct{}) {
	if slots != nil {
		<-slots
	}
}

// clamp maps an out-of-range shard index onto a valid lane, so a racing
// topology mismatch degrades to queuing rather than panicking.
func (g *gate) clamp(shard int) int {
	if shard < 0 || shard >= len(g.shards) {
		return 0
	}
	return shard
}

// acquireWrite queues for a slot on the shard's write lane, bounded two
// ways: at most g.queue requests may wait on a lane (the next is shed
// immediately — a saturated queue means the backlog already exceeds what
// the shard will drain in time), and no request waits longer than
// shedAfter (0 disables the deadline). Both bounds surface as errShed,
// which the HTTP layer turns into 503 + Retry-After.
func (g *gate) acquireWrite(ctx context.Context, shard int, shedAfter time.Duration) error {
	i := g.clamp(shard)
	n := g.waiting[i].Add(1)
	defer g.waiting[i].Add(-1)
	if g.queue > 0 && n > int64(g.queue) {
		return errShed
	}
	var deadline <-chan time.Time
	if shedAfter > 0 {
		t := time.NewTimer(shedAfter)
		defer t.Stop()
		deadline = t.C
	}
	select {
	case g.shards[i] <- struct{}{}:
		return nil
	case <-deadline:
		return errShed
	case <-ctx.Done():
		return ctx.Err()
	}
}
func (g *gate) releaseWrite(shard int) { release(g.shards[g.clamp(shard)]) }

// queued reports how many writers are currently waiting or being
// admitted on the shard's lane (a load signal for /metrics).
func (g *gate) queued(shard int) int64 { return g.waiting[g.clamp(shard)].Load() }

// acquireAdmin takes one write slot on every shard in index order (the
// fixed order makes concurrent admins deadlock-free), so a maintenance
// operation excludes one writer per shard exactly as a write does on its
// own shard. On failure the acquired prefix is released.
func (g *gate) acquireAdmin(ctx context.Context) error {
	for i := range g.shards {
		if err := acquire(ctx, g.shards[i]); err != nil {
			for j := i - 1; j >= 0; j-- {
				release(g.shards[j])
			}
			return err
		}
	}
	return nil
}

func (g *gate) releaseAdmin() {
	for i := range g.shards {
		release(g.shards[i])
	}
}

// ExclusiveShard runs fn holding one write slot on the shard's lane —
// the same discipline a doc-scoped write request follows. It is the
// hook the background maintenance controller schedules through, so an
// auto-triggered collapse or compact queues behind in-flight writes to
// that shard (and they behind it) instead of interleaving, while writes
// to every other shard proceed untouched. No shed deadline applies:
// maintenance is patient, bounded only by its context.
func (s *Server) ExclusiveShard(ctx context.Context, shard int, fn func() error) error {
	if err := acquire(ctx, s.gate.shards[s.gate.clamp(shard)]); err != nil {
		return err
	}
	defer s.gate.releaseWrite(shard)
	s.met.admin.Add(1)
	start := time.Now()
	defer func() { s.met.writeLatency.observe(time.Since(start)) }()
	return fn()
}

// ExclusiveAll runs fn holding one write slot on every lane, exactly as
// an admin request (POST /compact) does.
func (s *Server) ExclusiveAll(ctx context.Context, fn func() error) error {
	if err := s.gate.acquireAdmin(ctx); err != nil {
		return err
	}
	defer s.gate.releaseAdmin()
	s.met.admin.Add(1)
	start := time.Now()
	defer func() { s.met.writeLatency.observe(time.Since(start)) }()
	return fn()
}
