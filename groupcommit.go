package lazyxml

// Leader-based group commit (DESIGN.md §15). Every write on a
// group-commit collection is enqueued on the shard's commit lane; the
// lane's leader takes the shard's write lock, commits the queued units in
// arrival order while their WAL records stage in memory, then makes the
// batch durable with one WAL write plus one fsync and publishes one MVCC
// generation for it. No waiter is woken before its record is durable —
// ack-after-fsync is the invariant the crash matrix pins.
//
// Durability cost per op therefore amortizes as O(1/batch): under
// contention the leader's fsync pays for every writer that arrived
// while the previous flush was in flight ("natural batching"), and an
// optional commit window trades bounded extra latency for larger
// batches at low concurrency.

import (
	"sync"
	"time"

	"repro/internal/core"
)

// commitOp is one writer's queued operation plus its result. The
// submitting goroutine blocks on done; the leader commits it
// (shard.commit), filling err, before closing it.
type commitOp struct {
	build func() ([]core.Op, error)
	err   error
	done  chan struct{}
}

// GroupCommitStats is one commit lane's lifetime counters, exported
// through the backend stats surface.
type GroupCommitStats struct {
	Enabled  bool  `json:"enabled"`
	Batches  int64 `json:"batches"`
	Ops      int64 `json:"ops"`
	MaxBatch int64 `json:"maxBatch"`
}

// commitLane is one shard's write queue and its leader. The leader is a
// single long-lived goroutine: writers enqueue and kick it, it sleeps
// the commit window, then drains and commits batches back-to-back until
// the queue is empty — ops that arrive while a flush is in flight form
// the next batch without waiting the window again.
type commitLane struct {
	sh     *shard
	window time.Duration

	mu       sync.Mutex
	queue    []*commitOp
	closed   bool
	batches  int64
	ops      int64
	maxBatch int64
	observer func(ops int, flush time.Duration)

	kick chan struct{}
	stop chan struct{}
	done chan struct{}
}

func newCommitLane(sh *shard, window time.Duration) *commitLane {
	l := &commitLane{
		sh:     sh,
		window: window,
		kick:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	go l.run()
	return l
}

// submit enqueues op and blocks until the leader has committed (or
// refused) it. The op's err field carries the individual result.
func (l *commitLane) submit(op *commitOp) {
	op.done = make(chan struct{})
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		op.err = errClosed
		return
	}
	l.queue = append(l.queue, op)
	l.mu.Unlock()
	select {
	case l.kick <- struct{}{}:
	default:
	}
	<-op.done
}

// run is the leader loop.
func (l *commitLane) run() {
	defer close(l.done)
	for {
		select {
		case <-l.kick:
		case <-l.stop:
			return
		}
		if l.window > 0 {
			t := time.NewTimer(l.window)
			select {
			case <-t.C:
			case <-l.stop:
				t.Stop()
				return
			}
		}
		for {
			l.mu.Lock()
			batch := l.queue
			l.queue = nil
			l.mu.Unlock()
			if len(batch) == 0 {
				break
			}
			flush := l.sh.commitBatch(batch)
			l.mu.Lock()
			l.batches++
			l.ops += int64(len(batch))
			if n := int64(len(batch)); n > l.maxBatch {
				l.maxBatch = n
			}
			obs := l.observer
			l.mu.Unlock()
			if obs != nil {
				obs(len(batch), flush)
			}
			for _, op := range batch {
				close(op.done)
			}
		}
	}
}

// close stops the leader, waits for an in-flight batch to finish, and
// refuses anything still queued.
func (l *commitLane) close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	l.mu.Unlock()
	close(l.stop)
	<-l.done
	l.mu.Lock()
	q := l.queue
	l.queue = nil
	l.mu.Unlock()
	for _, op := range q {
		op.err = errClosed
		close(op.done)
	}
}

// stats returns the lane's counters.
func (l *commitLane) stats() GroupCommitStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return GroupCommitStats{Enabled: true, Batches: l.batches, Ops: l.ops, MaxBatch: l.maxBatch}
}

// setObserver installs a callback invoked after every committed batch
// with its op count and flush (write+fsync) duration — the feed for the
// server's batch-size and flush-latency histograms.
func (l *commitLane) setObserver(fn func(ops int, flush time.Duration)) {
	l.mu.Lock()
	l.observer = fn
	l.mu.Unlock()
}

// commitBatch executes one batch as a staged commit under the write
// lock; an op that applied but whose batch could not be made durable
// gets the flush error. It returns the flush duration.
func (sh *shard) commitBatch(batch []*commitOp) time.Duration {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	flush, err := sh.stagedCommit(func() {
		for _, op := range batch {
			op.err = sh.commit(op.build)
		}
	})
	if err != nil {
		for _, op := range batch {
			if op.err == nil {
				op.err = err
			}
		}
	}
	return flush
}

// stagedCommit opens the staging window, runs apply — whose units'
// records buffer in memory instead of reaching the file — then writes
// them with one write plus one fsync and publishes one generation. The
// lane's batches and a follower's runs commit through it. A poisoned
// shard is refused before apply runs. The caller holds the write lock,
// so Compact and re-seed capture never observe a half-staged batch.
func (sh *shard) stagedCommit(apply func()) (flush time.Duration, err error) {
	if sh.j.failed != nil {
		return 0, sh.j.failed
	}

	// Open the publish batch first (it refreshes the published view so
	// mid-batch readers are served, never building from half-applied
	// state), then the staging window.
	sh.db.store.BeginGenBatch()
	sh.j.staging = true

	apply()

	start := time.Now()
	recs, err := sh.j.flushStaged()
	flush = time.Since(start)
	if err != nil {
		// The journal is poisoned and the generation stays unpublished, so
		// readers keep seeing the pre-batch state the WAL can actually
		// replay.
		return flush, err
	}
	// Publish: one generation for the batch, only now — after the fsync —
	// and only then count its records.
	sh.db.store.EndGenBatch()
	sh.j.advance(recs...)
	sh.checkpoint()
	return flush, nil
}
