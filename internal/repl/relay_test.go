package repl

import (
	"context"
	"encoding/binary"
	"net"
	"sync/atomic"
	"testing"
	"time"

	lazyxml "repro"
	"repro/internal/faultline"
)

// startRelay opens a journaled store in dir, serves the replication
// protocol on a loopback listener (announcing its live relay depth in
// v4 HELLOs), and follows upstream. The returned stop cancels the
// follower loop; promote stops the loop, bumps the epoch and kicks the
// relay's subscribers — the repl-layer half of what cluster.Node does.
func startRelay(t *testing.T, dir, upstream string, shards int) (sc *lazyxml.ShardedCollection, f *Follower, p *Primary, addr string, stop func() error, promote func() int64) {
	t.Helper()
	sc, err := lazyxml.OpenShardedCollection(dir, shards, lazyxml.LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	var promoted atomic.Bool
	var fp atomic.Pointer[Follower]
	p, err = NewPrimary(sc, PrimaryConfig{
		HeartbeatEvery: 50 * time.Millisecond,
		Depth: func() int {
			if promoted.Load() {
				return 0
			}
			if f := fp.Load(); f != nil {
				return f.Status().RelayDepth
			}
			return 1
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go p.Serve(ln)
	f, err = NewFollower(sc, upstream, FollowerConfig{
		BackoffMin: 10 * time.Millisecond,
		OnReseed:   p.ReattachShard,
		// The new epoch must flow down the chain: a relay that adopts a
		// higher epoch from its upstream re-handshakes its subscribers.
		OnEpochAdvance: func(int64) { p.KickSubscribers() },
	})
	if err != nil {
		t.Fatal(err)
	}
	fp.Store(f)
	stop = runFollower(f)
	promote = func() int64 {
		if err := stop(); err != nil {
			t.Fatalf("relay follower stop before promote: %v", err)
		}
		epoch, err := sc.Promote()
		if err != nil {
			t.Fatalf("relay promote: %v", err)
		}
		promoted.Store(true)
		p.KickSubscribers()
		return epoch
	}
	t.Cleanup(func() {
		stop()
		p.Close()
		sc.Close()
	})
	return sc, f, p, ln.Addr().String(), stop, promote
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRelayChainDepthAndPromote runs the cascading topology P → A → B:
// writes against the root converge through the relay, the v4 depth
// gauges report each node's distance from the root, and promoting the
// relay mid-chain re-handshakes the tier below onto the new epoch
// without restarting anything.
func TestRelayChainDepthAndPromote(t *testing.T) {
	psc, _, addrP := startPrimary(t, t.TempDir(), 2)
	asc, fA, _, addrA, _, promoteA := startRelay(t, t.TempDir(), addrP, 2)
	bsc, fB, _ := startFollower(t, t.TempDir(), addrA, 2)

	var names []string
	for shard := 0; shard < 2; shard++ {
		for k := 0; k < 2; k++ {
			name := nameForShard(psc, shard, k)
			if err := psc.Put(name, []byte("<d><x/></d>")); err != nil {
				t.Fatal(err)
			}
			names = append(names, name)
		}
	}
	for i := 0; i < 30; i++ {
		if _, err := psc.Insert(names[i%len(names)], 3, []byte("<i/>")); err != nil {
			t.Fatal(err)
		}
	}
	waitConverged(t, psc, asc)
	waitConverged(t, psc, bsc)

	if d := fA.Status().RelayDepth; d != 1 {
		t.Fatalf("relay depth = %d, want 1 (fed by the root)", d)
	}
	if d := fB.Status().RelayDepth; d != 2 {
		t.Fatalf("tail depth = %d, want 2 (fed through the relay)", d)
	}
	for _, name := range names {
		pt, _ := psc.Text(name)
		bt, err := bsc.Text(name)
		if err != nil || string(pt) != string(bt) {
			t.Fatalf("%s did not converge through the relay (%v)", name, err)
		}
	}

	// Failover mid-chain: the relay becomes the primary. Its kicked
	// subscriber re-handshakes, adopts the new epoch, and its depth
	// drops to 1 — it is now fed by the root.
	if epoch := promoteA(); epoch != 1 {
		t.Fatalf("relay promoted to epoch %d, want 1", epoch)
	}
	if err := asc.Put("post-failover", []byte("<d><late/></d>")); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, asc, bsc)
	waitFor(t, "tail to adopt the new epoch", func() bool { return bsc.Epoch() == 1 })
	waitFor(t, "tail depth to drop to 1", func() bool { return fB.Status().RelayDepth == 1 })
	if _, err := bsc.Text("post-failover"); err != nil {
		t.Fatalf("post-failover write did not reach the tail: %v", err)
	}
	if err := bsc.CheckConsistency(); err != nil {
		t.Fatalf("tail inconsistent after mid-chain promote: %v", err)
	}
}

// TestRelayListenerRefusesNonReplicationFrames sends a relay's listener
// a well-formed handshake followed by a frame number the protocol
// retired: 6 (once a bulk-load PUT) and 13 (once a binary QUERY). Each
// is refused with ErrCodeBadFrame. The relay's store does not move — a
// follower written to from the side would land the next upstream batch
// one sequence off — and it keeps converging with its primary.
func TestRelayListenerRefusesNonReplicationFrames(t *testing.T) {
	psc, _, addrP := startPrimary(t, t.TempDir(), 2)
	asc, _, _, addrA, _, _ := startRelay(t, t.TempDir(), addrP, 2)
	if err := psc.Put("seed", []byte("<d><x/></d>")); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, psc, asc)

	// The payloads are what those frames once carried: a document named
	// "side" and a query for a//b.
	put := append(binary.AppendUvarint(nil, 4), "side<d/>"...)
	query := []byte{0, 4, 'a', '/', '/', 'b', 0, 0}
	for _, tc := range []struct {
		name    string
		typ     byte
		payload []byte
	}{{"type 6", 6, put}, {"type 13", 13, query}} {
		t.Run(tc.name, func(t *testing.T) {
			docs := asc.Len()
			seqs := make([]int64, asc.ShardCount())
			for i := range seqs {
				seqs[i], _ = asc.ShardJournal(i).ReplState()
			}
			conn, h := dialHandshake(t, addrA)
			if err := WriteFrame(conn, TypeHello, (Hello{Version: Version, Shards: h.Shards}).encode()); err != nil {
				t.Fatal(err)
			}
			if err := WriteFrame(conn, tc.typ, tc.payload); err != nil {
				t.Fatal(err)
			}
			expectError(t, conn, ErrCodeBadFrame)
			if n := asc.Len(); n != docs {
				t.Fatalf("relay holds %d documents after the refused frame, want %d", n, docs)
			}
			for i, want := range seqs {
				if seq, _ := asc.ShardJournal(i).ReplState(); seq != want {
					t.Fatalf("relay shard %d at seq %d after the refused frame, want %d", i, seq, want)
				}
			}
		})
	}

	if err := psc.Put("after", []byte("<d><y/></d>")); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, psc, asc)
	if asc.Len() != psc.Len() {
		t.Fatalf("relay holds %d documents, primary %d", asc.Len(), psc.Len())
	}
}

// TestFollowerRetargetLive re-points a streaming follower from the root
// primary onto a relay without restarting its loop: the session tears
// down deliberately (no fatal error, backoff reset), the re-handshake
// lands on the new upstream, and subsequent writes arrive through the
// chain with the deeper relay depth to prove the path.
func TestFollowerRetargetLive(t *testing.T) {
	psc, _, addrP := startPrimary(t, t.TempDir(), 2)
	asc, _, _, addrA, _, _ := startRelay(t, t.TempDir(), addrP, 2)
	bsc, fB, stopB := startFollower(t, t.TempDir(), addrP, 2)

	name := nameForShard(psc, 0, 0)
	if err := psc.Put(name, []byte("<d><x/></d>")); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, psc, asc)
	waitConverged(t, psc, bsc)
	if d := fB.Status().RelayDepth; d != 1 {
		t.Fatalf("depth before retarget = %d, want 1", d)
	}

	fB.Retarget(addrA)
	waitFor(t, "retarget to land on the relay", func() bool { return fB.Status().RelayDepth == 2 })

	for i := 0; i < 10; i++ {
		if _, err := psc.Insert(name, 3, []byte("<i/>")); err != nil {
			t.Fatal(err)
		}
	}
	waitConverged(t, psc, bsc)
	pt, _ := psc.Text(name)
	bt, _ := bsc.Text(name)
	if string(pt) != string(bt) {
		t.Fatal("follower diverged after live retarget")
	}
	// The deliberate teardown must not have registered as a failure.
	if err := stopB(); err != nil {
		t.Fatalf("follower run after retarget: %v", err)
	}
}

// TestRetargetFromIdle: a follower built with no upstream parks idle,
// and a later Retarget wakes it into a normal streaming session — the
// shape of a cluster node waiting for its sentinel after its primary
// died before it ever connected.
func TestRetargetFromIdle(t *testing.T) {
	psc, _, addrP := startPrimary(t, t.TempDir(), 1)
	if err := psc.Put("only", []byte("<d><x/></d>")); err != nil {
		t.Fatal(err)
	}

	fsc, err := lazyxml.OpenShardedCollection(t.TempDir(), 1, lazyxml.LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fsc.Close()
	f, err := NewFollower(fsc, "", FollowerConfig{BackoffMin: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	stop := runFollower(f)
	defer stop()

	waitFor(t, "idle state", func() bool { return f.Status().State == StateIdle })
	f.Retarget(addrP)
	waitConverged(t, psc, fsc)
	if _, err := fsc.Text("only"); err != nil {
		t.Fatalf("idle-then-retargeted follower missed the document: %v", err)
	}
	if err := stop(); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestFollowerStalledFlag pins the heartbeat-age staleness signal: a
// streaming follower is not stalled while heartbeats flow, and flips
// Stalled once its upstream goes silent longer than StallAfter — the
// bit a sentinel reads to distinguish "connected but fed by a corpse"
// from mere lag.
func TestFollowerStalledFlag(t *testing.T) {
	psc, p, addr := startPrimary(t, t.TempDir(), 1)
	if err := psc.Put("only", []byte("<d/>")); err != nil {
		t.Fatal(err)
	}
	fsc, err := lazyxml.OpenShardedCollection(t.TempDir(), 1, lazyxml.LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fsc.Close()
	f, err := NewFollower(fsc, addr, FollowerConfig{
		BackoffMin: 10 * time.Millisecond,
		StallAfter: 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := runFollower(f)
	defer stop()

	waitConverged(t, psc, fsc)
	waitFor(t, "a heartbeat", func() bool { return f.Status().LastHeartbeatUnixMillis != 0 })
	if st := f.Status(); st.Stalled {
		t.Fatalf("follower stalled while heartbeats flow: %+v", st)
	}

	// Silence the upstream: every reconnect now fails, the last
	// heartbeat ages past StallAfter, and the flag must flip.
	p.Close()
	waitFor(t, "the stall flag", func() bool { return f.Status().Stalled })
}

// TestReseedOnDivergeDeposedPrimary is the rejoin scenario SNAPFORCE
// exists for: a primary dies with acknowledged-but-unshipped records,
// its follower is promoted and takes writes of its own, then the
// deposed primary comes back as a follower. Its positions are ahead of
// the new primary's log — resumable-looking, yet diverged — so the
// normal snapshot path would skip every shard. With ReseedOnDiverge the
// follower discards its history through a forced full re-seed and
// converges to the new primary's exact state.
func TestReseedOnDivergeDeposedPrimary(t *testing.T) {
	psc, pPrim, addrP := startPrimary(t, t.TempDir(), 1)
	if err := psc.Put("base", []byte("<d><x/></d>")); err != nil {
		t.Fatal(err)
	}

	adir := t.TempDir()
	asc, _, stopA := startFollower(t, adir, addrP, 1)
	waitConverged(t, psc, asc)
	if err := stopA(); err != nil {
		t.Fatalf("follower before promotion: %v", err)
	}
	// startFollower's stop closes asc; reopen it as the new regime.
	asc, err := lazyxml.OpenShardedCollection(adir, 1, lazyxml.LD, nil)
	if err != nil {
		t.Fatal(err)
	}

	// The doomed writes: applied and acknowledged on the old primary,
	// never shipped anywhere.
	for i := 0; i < 3; i++ {
		if err := psc.Put("p-only-"+string(rune('a'+i)), []byte("<d><lost/></d>")); err != nil {
			t.Fatal(err)
		}
	}

	// Failover: A is promoted and moves on without them.
	if e, err := asc.Promote(); err != nil || e != 1 {
		t.Fatalf("Promote = (%d, %v), want (1, nil)", e, err)
	}
	pA, err := NewPrimary(asc, PrimaryConfig{HeartbeatEvery: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go pA.Serve(lnA)
	t.Cleanup(func() {
		pA.Close()
		asc.Close()
	})
	if err := asc.Put("a-only", []byte("<d><kept/></d>")); err != nil {
		t.Fatal(err)
	}

	// The deposed primary rejoins pointing at its successor.
	var reseeds atomic.Int64
	fP, err := NewFollower(psc, lnA.Addr().String(), FollowerConfig{
		BackoffMin:      10 * time.Millisecond,
		ReseedOnDiverge: true,
		OnReseed: func(shard int) error {
			reseeds.Add(1)
			return pPrim.ReattachShard(shard)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	stopP := runFollower(fP)
	defer stopP()

	waitConverged(t, asc, psc)
	if reseeds.Load() == 0 {
		t.Fatal("deposed primary converged without the forced re-seed — divergence went undetected")
	}
	if got := psc.Epoch(); got != 1 {
		t.Fatalf("rejoined node epoch = %d, want the successor's 1", got)
	}
	for i := 0; i < 3; i++ {
		if _, err := psc.Text("p-only-" + string(rune('a'+i))); err == nil {
			t.Fatalf("fenced record p-only-%c survived the forced re-seed", 'a'+i)
		}
	}
	for _, name := range []string{"base", "a-only"} {
		at, _ := asc.Text(name)
		pt, err := psc.Text(name)
		if err != nil || string(at) != string(pt) {
			t.Fatalf("%s diverged after rejoin (%v)", name, err)
		}
	}
	if err := psc.CheckConsistency(); err != nil {
		t.Fatalf("rejoined node inconsistent: %v", err)
	}
	if err := stopP(); err != nil {
		t.Fatalf("rejoined follower run: %v", err)
	}
}

// TestRelayCatchUpStreamCuts severs the relay→tail stream mid-frame at
// a ladder of byte offsets while the tail catches up through the relay
// — every early connection dies somewhere inside the record stream, and
// the tail must still converge to the root's exact state.
func TestRelayCatchUpStreamCuts(t *testing.T) {
	psc, _, addrP := startPrimary(t, t.TempDir(), 2)
	asc, _, pA, _, _, _ := startRelay(t, t.TempDir(), addrP, 2)

	// Re-serve the relay through a fault-injecting listener.
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cuts := []int64{1, 40, 120, 300, 700, 1400, 2500}
	var connIdx, cutConns atomic.Int64
	lnCut := &faultline.Listener{Listener: raw, Wrap: func(c *faultline.Conn) net.Conn {
		n := connIdx.Add(1) - 1
		if int(n) < len(cuts) {
			c.CutAfter(cuts[n])
			cutConns.Add(1)
		}
		return c
	}}
	go pA.Serve(lnCut)

	var names []string
	for shard := 0; shard < 2; shard++ {
		for k := 0; k < 3; k++ {
			name := nameForShard(psc, shard, k)
			if err := psc.Put(name, []byte("<d><x/><pad>0123456789</pad></d>")); err != nil {
				t.Fatal(err)
			}
			names = append(names, name)
		}
	}
	for i := 0; i < 50; i++ {
		if _, err := psc.Insert(names[i%len(names)], 3, []byte("<i/>")); err != nil {
			t.Fatal(err)
		}
	}
	waitConverged(t, psc, asc)

	bsc, fB, _ := startFollower(t, t.TempDir(), lnCut.Addr().String(), 2)
	waitConverged(t, psc, bsc)
	if cutConns.Load() == 0 {
		t.Fatal("no relay connection was ever cut — the fault ladder never armed")
	}
	if d := fB.Status().RelayDepth; d != 2 {
		t.Fatalf("tail depth through cut relay = %d, want 2", d)
	}
	if err := bsc.CheckConsistency(); err != nil {
		t.Fatalf("tail inconsistent after relay cut storm: %v", err)
	}
	for _, name := range names {
		pt, _ := psc.Text(name)
		bt, err := bsc.Text(name)
		if err != nil || string(pt) != string(bt) {
			t.Fatalf("%s diverged through the cut relay (%v)", name, err)
		}
	}
}

// TestRetargetCatchUpCrashMatrix walks every mutating file operation a
// follower performs while catching up after a re-target, killing the
// filesystem at each in turn (dropped and torn variants). The node must
// reopen CheckConsistency-clean from whatever bytes survived and a
// fresh follower loop must still converge to the primary's exact state
// — a crash mid-catch-up never costs a replica its rejoinability.
func TestRetargetCatchUpCrashMatrix(t *testing.T) {
	psc, _, addrP := startPrimary(t, t.TempDir(), 1)
	if err := psc.Put("doc", []byte("<d><x/></d>")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := psc.Insert("doc", 3, []byte("<i/>")); err != nil {
			t.Fatal(err)
		}
	}

	// catchUp runs one follower loop over fsc until converged (or until
	// the armed crash point fires and progress becomes impossible).
	catchUp := func(fsc *lazyxml.ShardedCollection, ffs *faultline.FaultFS) error {
		f, err := NewFollower(fsc, "", FollowerConfig{BackoffMin: 5 * time.Millisecond})
		if err != nil {
			return err
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- f.Run(ctx) }()
		f.Retarget(addrP)
		deadline := time.Now().Add(15 * time.Second)
		for {
			if ffs != nil && ffs.Crashed() {
				break
			}
			pseq, _ := psc.ShardJournal(0).ReplState()
			fseq, _ := fsc.ShardJournal(0).ReplState()
			if pseq == fseq {
				break
			}
			if time.Now().After(deadline) {
				cancel()
				<-done
				t.Fatal("follower neither converged nor hit the crash point")
			}
			time.Sleep(5 * time.Millisecond)
		}
		cancel()
		return <-done
	}

	// Sizing run: count the catch-up's mutating operations fault-free.
	ffs := faultline.NewFaultFS(nil)
	fsc, err := lazyxml.OpenShardedCollection(t.TempDir(), 1, lazyxml.LD, nil, lazyxml.WithFS(ffs))
	if err != nil {
		t.Fatal(err)
	}
	base := ffs.Mutations()
	if err := catchUp(fsc, nil); err != nil {
		t.Fatalf("fault-free catch-up: %v", err)
	}
	n := ffs.Mutations() - base
	fsc.Close()
	if n == 0 {
		t.Fatal("catch-up performed no mutating I/O; the matrix is empty")
	}

	for _, torn := range []bool{false, true} {
		for k := int64(1); k <= n; k++ {
			dir := t.TempDir()
			ffs := faultline.NewFaultFS(nil)
			if torn {
				ffs.TornWrites()
			}
			fsc, err := lazyxml.OpenShardedCollection(dir, 1, lazyxml.LD, nil, lazyxml.WithFS(ffs))
			if err != nil {
				t.Fatalf("torn=%v k=%d: open: %v", torn, k, err)
			}
			ffs.CrashAfter(ffs.Mutations() + k)
			catchUp(fsc, ffs) // error expected: the crash point fired
			if !ffs.Crashed() {
				t.Fatalf("torn=%v k=%d: crash point did not fire", torn, k)
			}
			fsc.Close() // descriptors only; the fault plan is already dead

			// Restart: clean filesystem over the surviving bytes. The
			// store must reopen consistent and still be able to rejoin.
			re, err := lazyxml.OpenShardedCollection(dir, 1, lazyxml.LD, nil)
			if err != nil {
				t.Fatalf("torn=%v k=%d: reopen after crash: %v", torn, k, err)
			}
			if err := re.CheckConsistency(); err != nil {
				t.Fatalf("torn=%v k=%d: reopened store inconsistent: %v", torn, k, err)
			}
			if err := catchUp(re, nil); err != nil {
				t.Fatalf("torn=%v k=%d: rejoin after crash: %v", torn, k, err)
			}
			pt, _ := psc.Text("doc")
			rt, err := re.Text("doc")
			if err != nil || string(pt) != string(rt) {
				t.Fatalf("torn=%v k=%d: diverged after crash-rejoin (%v)", torn, k, err)
			}
			re.Close()
		}
	}
}
