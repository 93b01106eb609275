package repl

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	lazyxml "repro"
	"repro/internal/faultline"
)

// runFollower starts f.Run in a goroutine and returns a stop function
// that cancels it and reports its error. Unlike startFollower it does
// not own the store, so tests can keep using it after the run ends.
func runFollower(f *Follower) (stop func() error) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- f.Run(ctx) }()
	stopped := false
	return func() error {
		if stopped {
			return nil
		}
		stopped = true
		cancel()
		return <-done
	}
}

// TestReseedE2E is the re-seed acceptance scenario: the primary takes
// writes and compacts them away, then a FRESH follower connects. Its
// subscribe-from-zero is below the horizon, so it must self-heal through
// the SNAPSHOT stream, then resume the record stream from the snapshot's
// sequences and converge to identical query answers.
func TestReseedE2E(t *testing.T) {
	psc, _, addr := startPrimary(t, t.TempDir(), 2)

	var names []string
	for shard := 0; shard < 2; shard++ {
		for k := 0; k < 3; k++ {
			name := nameForShard(psc, shard, k)
			if err := psc.Put(name, []byte("<d></d>")); err != nil {
				t.Fatal(err)
			}
			names = append(names, name)
		}
	}
	for i := 0; i < 40; i++ {
		if _, err := psc.Insert(names[i%len(names)], 3, []byte("<i/>")); err != nil {
			t.Fatal(err)
		}
	}
	// Fold the history: a fresh follower can no longer WAL-replay.
	if err := psc.Compact(); err != nil {
		t.Fatal(err)
	}

	fsc, err := lazyxml.OpenShardedCollection(t.TempDir(), 2, lazyxml.LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fsc.Close()
	var f *Follower
	var reseeds atomic.Int64
	var sawReseedingState atomic.Bool
	f, err = NewFollower(fsc, addr, FollowerConfig{
		BackoffMin: 10 * time.Millisecond,
		OnReseed: func(shard int) error {
			reseeds.Add(1)
			if f.Status().State == StateReseeding {
				sawReseedingState.Store(true)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := runFollower(f)
	defer stop()

	waitConverged(t, psc, fsc)
	if reseeds.Load() == 0 {
		t.Fatal("follower converged without installing any snapshot — the horizon test is broken")
	}
	if !sawReseedingState.Load() {
		t.Fatal("State never reported reseeding while snapshots installed")
	}
	if err := fsc.CheckConsistency(); err != nil {
		t.Fatalf("re-seeded follower inconsistent: %v", err)
	}
	pn, err := psc.Count("d//i")
	if err != nil {
		t.Fatal(err)
	}
	fn, err := fsc.Count("d//i")
	if err != nil || fn != pn || pn == 0 {
		t.Fatalf("count after re-seed: primary %d, follower %d (%v)", pn, fn, err)
	}
	for _, name := range names {
		pt, _ := psc.Text(name)
		ft, err := fsc.Text(name)
		if err != nil {
			t.Fatalf("follower lost %s after re-seed: %v", name, err)
		}
		if string(pt) != string(ft) {
			t.Fatalf("%s diverged after re-seed:\nprimary  %s\nfollower %s", name, pt, ft)
		}
	}

	// The stream resumed from the snapshot's sequences: post-re-seed
	// writes replicate live.
	if err := psc.Put("after-reseed", []byte("<d><late/></d>")); err != nil {
		t.Fatal(err)
	}
	if _, err := psc.Insert(names[0], 3, []byte("<i/>")); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, psc, fsc)
	if _, err := fsc.Text("after-reseed"); err != nil {
		t.Fatalf("post-re-seed write did not stream: %v", err)
	}

	// Status settles on streaming, and stopping lands on stopped.
	deadline := time.Now().Add(5 * time.Second)
	for f.Status().State != StateStreaming {
		if time.Now().After(deadline) {
			t.Fatalf("state never returned to streaming: %+v", f.Status())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := stop(); err != nil {
		t.Fatalf("run after re-seed: %v", err)
	}
	if st := f.Status().State; st != StateStopped {
		t.Fatalf("state after stop = %q", st)
	}
}

// TestReseedKillAtChunkBoundaries cuts the snapshot stream mid-frame at
// a ladder of byte offsets — every early connection the follower makes
// dies somewhere inside the chunk stream. Installed shards must survive
// each cut (shard-granularity resume), and once the cuts stop the
// follower must converge to the primary's exact state.
func TestReseedKillAtChunkBoundaries(t *testing.T) {
	dir := t.TempDir()
	sc, err := lazyxml.OpenShardedCollection(dir, 2, lazyxml.LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPrimary(sc, PrimaryConfig{
		HeartbeatEvery: 50 * time.Millisecond,
		SnapChunkBytes: 64, // many chunks, so the cuts land inside the stream
	})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Each accepted connection n gets cuts[n] bytes before a mid-stream
	// close; past the ladder, connections run clean. The ladder spans the
	// HELLO, the SNAPBEGIN, and points inside both shards' chunk streams.
	cuts := []int64{1, 30, 80, 150, 250, 400, 650, 1000, 1500, 2200}
	var connIdx, cutConns atomic.Int64
	ln := &faultline.Listener{Listener: raw, Wrap: func(c *faultline.Conn) net.Conn {
		n := connIdx.Add(1) - 1
		if int(n) < len(cuts) {
			c.CutAfter(cuts[n])
			cutConns.Add(1)
		}
		return c
	}}
	go p.Serve(ln)
	t.Cleanup(func() {
		p.Close()
		sc.Close()
	})

	var names []string
	for shard := 0; shard < 2; shard++ {
		for k := 0; k < 4; k++ {
			name := nameForShard(sc, shard, k)
			if err := sc.Put(name, []byte("<d><x/><y/><z/><pad>0123456789abcdef</pad></d>")); err != nil {
				t.Fatal(err)
			}
			names = append(names, name)
		}
	}
	for i := 0; i < 60; i++ {
		if _, err := sc.Insert(names[i%len(names)], 3, []byte("<i/>")); err != nil {
			t.Fatal(err)
		}
	}
	if err := sc.Compact(); err != nil {
		t.Fatal(err)
	}

	fsc, err := lazyxml.OpenShardedCollection(t.TempDir(), 2, lazyxml.LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fsc.Close()
	f, err := NewFollower(fsc, ln.Addr().String(), FollowerConfig{
		BackoffMin: 10 * time.Millisecond,
		BackoffMax: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := runFollower(f)
	defer stop()

	waitConverged(t, sc, fsc)
	if cutConns.Load() == 0 {
		t.Fatal("no connection was ever cut — the fault ladder never armed")
	}
	if err := fsc.CheckConsistency(); err != nil {
		t.Fatalf("follower inconsistent after cut storm: %v", err)
	}
	pn, _ := sc.Count("d//i")
	fn, _ := fsc.Count("d//i")
	if pn != fn || pn == 0 {
		t.Fatalf("count after cut storm: primary %d, follower %d", pn, fn)
	}
	for _, name := range names {
		pt, _ := sc.Text(name)
		ft, err := fsc.Text(name)
		if err != nil || string(pt) != string(ft) {
			t.Fatalf("%s diverged after cut storm (%v)", name, err)
		}
	}
}

// TestPromoteEpochFencing walks the failover dance: a follower converges,
// is promoted (epoch bump), and from then on the deposed primary must be
// refused — by the follower when it sees the stale HELLO, and by the
// primary when a newer-epoch client announces itself.
func TestPromoteEpochFencing(t *testing.T) {
	psc, _, addr := startPrimary(t, t.TempDir(), 2)
	name := nameForShard(psc, 0, 0)
	if err := psc.Put(name, []byte("<d><x/></d>")); err != nil {
		t.Fatal(err)
	}

	fsc, err := lazyxml.OpenShardedCollection(t.TempDir(), 2, lazyxml.LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fsc.Close()
	f, err := NewFollower(fsc, addr, FollowerConfig{BackoffMin: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	stop := runFollower(f)
	waitConverged(t, psc, fsc)
	if err := stop(); err != nil {
		t.Fatalf("follower run before promotion: %v", err)
	}

	// Failover: the caught-up follower becomes the writable primary.
	if e, err := fsc.Promote(); err != nil || e != 1 {
		t.Fatalf("Promote = (%d, %v), want (1, nil)", e, err)
	}
	if err := fsc.Put("written-after-promote", []byte("<w/>")); err != nil {
		t.Fatalf("promoted store refused a write: %v", err)
	}

	// Follower side of the fence: pointed back at the deposed primary,
	// Run must refuse its records fatally — reconnecting cannot help.
	f2, err := NewFollower(fsc, addr, FollowerConfig{BackoffMin: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f2.Run(ctx); !errors.Is(err, ErrStalePrimary) {
		t.Fatalf("follower against deposed primary = %v, want ErrStalePrimary", err)
	}
	if st := f2.Status(); st.State != StateStopped || !strings.Contains(st.LastError, "epoch") {
		t.Fatalf("status after fencing = %+v", st)
	}

	// Primary side of the fence: a raw client claiming a newer epoch is
	// told this primary is stale, with the structured epoch error.
	conn, h := dialHandshake(t, addr)
	if h.Epoch != 0 {
		t.Fatalf("old primary announces epoch %d, want 0", h.Epoch)
	}
	if err := WriteFrame(conn, TypeHello, (Hello{Version: Version, Shards: 2, Epoch: 99}).encode()); err != nil {
		t.Fatal(err)
	}
	e := expectError(t, conn, ErrCodeEpoch)
	if !strings.Contains(e.Msg, "stale") {
		t.Fatalf("epoch error message %q does not say the primary is stale", e.Msg)
	}
}

// TestFollowerAdoptsPrimaryEpoch: a primary ahead in epochs (it was
// itself promoted at some point) pulls the follower's durable epoch
// forward during the handshake, so a later dial to an older primary is
// refused.
func TestFollowerAdoptsPrimaryEpoch(t *testing.T) {
	psc, _, addr := startPrimary(t, t.TempDir(), 2)
	if err := psc.AdvanceEpoch(3); err != nil {
		t.Fatal(err)
	}
	name := nameForShard(psc, 0, 0)
	if err := psc.Put(name, []byte("<d/>")); err != nil {
		t.Fatal(err)
	}

	fsc, f, _ := startFollower(t, t.TempDir(), addr, 2)
	waitConverged(t, psc, fsc)
	if got := fsc.Epoch(); got != 3 {
		t.Fatalf("follower epoch = %d, want the primary's 3", got)
	}
	if st := f.Status(); st.State != StateStreaming {
		t.Fatalf("state = %q, want streaming", st.State)
	}
}

// TestErrorFrameMapping pins the wire-error → sentinel mapping the
// follower's whole control flow keys on: version and shard mismatches
// are fatal incompatibilities, the snapshot code triggers a re-seed, the
// epoch code marks the primary deposed, anything else stays generic.
func TestErrorFrameMapping(t *testing.T) {
	f := &Follower{}
	cases := []struct {
		code uint64
		want error
	}{
		{ErrCodeVersion, ErrIncompatible},
		{ErrCodeShards, ErrIncompatible},
		{ErrCodeSnapshot, ErrSnapshotRequired},
		{ErrCodeEpoch, ErrStalePrimary},
	}
	for _, c := range cases {
		err := f.errorFrame(ErrorFrame{Code: c.code, Msg: "detail-text"}.encode())
		if !errors.Is(err, c.want) {
			t.Fatalf("code %d mapped to %v, want %v", c.code, err, c.want)
		}
		if !strings.Contains(err.Error(), "detail-text") {
			t.Fatalf("code %d lost the primary's message: %v", c.code, err)
		}
	}
	err := f.errorFrame(ErrorFrame{Code: ErrCodeInternal, Msg: "boom"}.encode())
	for _, sentinel := range []error{ErrIncompatible, ErrSnapshotRequired, ErrStalePrimary, ErrDiverged} {
		if errors.Is(err, sentinel) {
			t.Fatalf("generic code %d wrongly mapped to %v", ErrCodeInternal, sentinel)
		}
	}
	if !strings.Contains(err.Error(), "boom") {
		t.Fatalf("generic error lost its message: %v", err)
	}

	// And the frame itself round-trips code and message.
	e, err := decodeError(ErrorFrame{Code: 42, Msg: "a message"}.encode())
	if err != nil || e.Code != 42 || e.Msg != "a message" {
		t.Fatalf("ErrorFrame round-trip = %+v, %v", e, err)
	}
}

// TestFollowerBackoffOnHandshakeFailure pins the hot-dial-loop fix: a
// peer that accepts TCP but never completes the handshake must NOT reset
// the backoff — dials stay bounded, and the status cycles through
// backoff instead of spinning in connecting.
func TestFollowerBackoffOnHandshakeFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var accepts atomic.Int64
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			c.Close() // never sends HELLO: handshake fails every time
		}
	}()

	fsc, err := lazyxml.OpenShardedCollection(t.TempDir(), 2, lazyxml.LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fsc.Close()
	f, err := NewFollower(fsc, ln.Addr().String(), FollowerConfig{
		BackoffMin: 40 * time.Millisecond,
		BackoffMax: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- f.Run(ctx) }()

	sawBackoff := false
	for ctx.Err() == nil {
		if f.Status().State == StateBackoff {
			sawBackoff = true
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := <-done; err != nil {
		t.Fatalf("run against a hanging-up peer: %v", err)
	}
	// Without the fix every failed handshake resets backoff to BackoffMin
	// and 500ms fits hundreds of dials; with exponential backoff held, a
	// handful.
	if n := accepts.Load(); n > 15 {
		t.Fatalf("hot dial loop: %d dials in 500ms with 40ms min backoff", n)
	} else if n == 0 {
		t.Fatal("follower never dialed")
	}
	if !sawBackoff {
		t.Fatal("follower never reported the backoff state")
	}
	if st := f.Status().State; st != StateStopped {
		t.Fatalf("state after cancel = %q", st)
	}
}

// TestFollowerStatusLifecycle drives one follower through its whole
// state arc — connecting/backoff against a dead port, then streaming
// once a real primary appears there.
func TestFollowerStatusLifecycle(t *testing.T) {
	// Reserve an address, then shut it so the first dials fail.
	tmp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := tmp.Addr().String()
	tmp.Close()

	fsc, err := lazyxml.OpenShardedCollection(t.TempDir(), 2, lazyxml.LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fsc.Close()
	f, err := NewFollower(fsc, addr, FollowerConfig{
		BackoffMin: 20 * time.Millisecond,
		BackoffMax: 60 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := runFollower(f)
	defer stop()

	deadline := time.Now().Add(5 * time.Second)
	sawEarly := false
	for !sawEarly {
		if st := f.Status().State; st == StateConnecting || st == StateBackoff {
			sawEarly = true
		}
		if time.Now().After(deadline) {
			t.Fatalf("never observed connecting/backoff: %+v", f.Status())
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Bring a primary up on the very port the follower keeps dialing.
	psc, err := lazyxml.OpenShardedCollection(t.TempDir(), 2, lazyxml.LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPrimary(psc, PrimaryConfig{HeartbeatEvery: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	go p.Serve(ln)
	t.Cleanup(func() {
		p.Close()
		psc.Close()
	})

	for f.Status().State != StateStreaming {
		if time.Now().After(deadline) {
			t.Fatalf("never reached streaming: %+v", f.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := psc.Put(nameForShard(psc, 0, 0), []byte("<d/>")); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, psc, fsc)
	if err := stop(); err != nil {
		t.Fatalf("lifecycle run: %v", err)
	}
	if st := f.Status().State; st != StateStopped {
		t.Fatalf("final state = %q", st)
	}
}

// TestReseedDisabledStaysFatal double-checks the operator escape hatch:
// with DisableReseed the below-horizon condition is surfaced, never
// self-healed (the flag cmd/lazyxmld does NOT set by default).
func TestReseedDisabledStaysFatal(t *testing.T) {
	psc, _, addr := startPrimary(t, t.TempDir(), 1)
	if err := psc.Put("only", []byte("<d><x/></d>")); err != nil {
		t.Fatal(err)
	}
	if err := psc.Compact(); err != nil {
		t.Fatal(err)
	}
	fsc, err := lazyxml.OpenShardedCollection(t.TempDir(), 1, lazyxml.LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fsc.Close()
	f, err := NewFollower(fsc, addr, FollowerConfig{BackoffMin: 5 * time.Millisecond, DisableReseed: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.Run(ctx); !errors.Is(err, ErrSnapshotRequired) {
		t.Fatalf("Run with re-seed disabled = %v, want ErrSnapshotRequired", err)
	}
	if n := fsc.Len(); n != 0 {
		t.Fatalf("disabled re-seed still installed %d documents", n)
	}
}
