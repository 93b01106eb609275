package repl

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	lazyxml "repro"
)

// startPrimary opens a journaled sharded collection in dir and serves
// the replication protocol on a loopback listener.
func startPrimary(t *testing.T, dir string, shards int) (*lazyxml.ShardedCollection, *Primary, string) {
	t.Helper()
	sc, err := lazyxml.OpenShardedCollection(dir, shards, lazyxml.LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPrimary(sc, PrimaryConfig{HeartbeatEvery: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go p.Serve(ln)
	t.Cleanup(func() {
		p.Close()
		sc.Close()
	})
	return sc, p, ln.Addr().String()
}

// startFollower opens a journaled sharded collection in dir and streams
// from addr until the returned stop function is called.
func startFollower(t *testing.T, dir, addr string, shards int) (*lazyxml.ShardedCollection, *Follower, func() error) {
	t.Helper()
	sc, err := lazyxml.OpenShardedCollection(dir, shards, lazyxml.LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFollower(sc, addr, FollowerConfig{BackoffMin: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- f.Run(ctx) }()
	stopped := false
	stop := func() error {
		if stopped {
			return nil
		}
		stopped = true
		cancel()
		err := <-done
		sc.Close()
		return err
	}
	t.Cleanup(func() { stop() })
	return sc, f, stop
}

// nameForShard probes for a document name the collection routes to the
// given shard.
func nameForShard(sc *lazyxml.ShardedCollection, shard, k int) string {
	for i := 0; ; i++ {
		name := fmt.Sprintf("d%d-%d-%d", shard, k, i)
		if sc.ShardOf(name) == shard {
			return name
		}
	}
}

// waitConverged polls until the follower's per-shard positions equal the
// primary's.
func waitConverged(t *testing.T, psc, fsc *lazyxml.ShardedCollection) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		converged := true
		for i := 0; i < psc.ShardCount(); i++ {
			pseq, _ := psc.ShardJournal(i).Journal().ReplState()
			fseq, _ := fsc.ShardJournal(i).Journal().ReplState()
			if pseq != fseq {
				converged = false
			}
		}
		if converged {
			return
		}
		if time.Now().After(deadline) {
			for i := 0; i < psc.ShardCount(); i++ {
				pseq, _ := psc.ShardJournal(i).Journal().ReplState()
				fseq, _ := fsc.ShardJournal(i).Journal().ReplState()
				t.Logf("shard %d: primary seq %d, follower seq %d", i, pseq, fseq)
			}
			t.Fatal("follower never converged")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestReplicationE2E is the acceptance scenario: a 2-shard primary takes
// 600 interleaved inserts and removes while a follower streams, and the
// follower converges to a consistent store answering identical queries.
func TestReplicationE2E(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	psc, _, addr := startPrimary(t, pdir, 2)
	fsc, f, _ := startFollower(t, fdir, addr, 2)

	// Three documents per shard, created while the follower is live.
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

	// 600 interleaved inserts/removes round-robin across the documents.
	// Every insert lands at offset 3 (right after "<d>"), so the latest
	// insertion is always the 4-byte segment at [3,7) and a remove of
	// that range is always valid.
	const frag = "<i/>"
	depth := make(map[string]int)
	for i := 0; i < 600; i++ {
		name := names[i%len(names)]
		if i%3 == 2 && depth[name] > 0 {
			if err := psc.Remove(name, 3, len(frag)); err != nil {
				t.Fatalf("op %d remove %s: %v", i, name, err)
			}
			depth[name]--
		} else {
			if _, err := psc.Insert(name, 3, []byte(frag)); err != nil {
				t.Fatalf("op %d insert %s: %v", i, name, err)
			}
			depth[name]++
		}
	}

	waitConverged(t, psc, fsc)

	// The wire format is the file format: a converged follower's logs are
	// the primary's, byte for byte, header included.
	for shard := 0; shard < 2; shard++ {
		wal := filepath.Join(fmt.Sprintf("shard-%04d", shard), "journal.wal")
		pw, err := os.ReadFile(filepath.Join(pdir, wal))
		if err != nil {
			t.Fatal(err)
		}
		fw, err := os.ReadFile(filepath.Join(fdir, wal))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pw, fw) {
			t.Fatalf("%s: primary's (%d bytes) and follower's (%d bytes) differ", wal, len(pw), len(fw))
		}
	}

	if err := fsc.CheckConsistency(); err != nil {
		t.Fatalf("follower CheckConsistency: %v", err)
	}
	pn, err := psc.Count("d//i")
	if err != nil {
		t.Fatal(err)
	}
	fn, err := fsc.Count("d//i")
	if err != nil {
		t.Fatal(err)
	}
	if pn != fn || pn == 0 {
		t.Fatalf("collection count: primary %d, follower %d", pn, fn)
	}
	for _, name := range names {
		pt, err := psc.Text(name)
		if err != nil {
			t.Fatal(err)
		}
		ft, err := fsc.Text(name)
		if err != nil {
			t.Fatalf("follower lost %s: %v", name, err)
		}
		if string(pt) != string(ft) {
			t.Fatalf("%s diverged:\nprimary  %s\nfollower %s", name, pt, ft)
		}
		pq, _ := psc.QueryDoc(name, "d//i")
		fq, _ := fsc.QueryDoc(name, "d//i")
		if len(pq) != len(fq) {
			t.Fatalf("%s query: primary %d matches, follower %d", name, len(pq), len(fq))
		}
	}

	// Lag is exported: zero once converged, heartbeats observed.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := f.Status()
		if st.Lag == 0 && st.Connected && st.LastHeartbeatUnixMillis != 0 && st.SecondsSinceHeartbeat >= 0 {
			if len(st.Shards) != 2 {
				t.Fatalf("status has %d shards", len(st.Shards))
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("status never settled: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestFollowerResume stops a follower mid-stream, keeps writing, then
// restarts it over the same journal directory: it must resume from its
// durable positions and converge without a full re-send.
func TestFollowerResume(t *testing.T) {
	psc, _, addr := startPrimary(t, t.TempDir(), 2)
	fdir := t.TempDir()
	fsc, _, stop := startFollower(t, fdir, addr, 2)

	name0, name1 := nameForShard(psc, 0, 0), nameForShard(psc, 1, 0)
	for _, n := range []string{name0, name1} {
		if err := psc.Put(n, []byte("<d></d>")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		if _, err := psc.Insert(name0, 3, []byte("<i/>")); err != nil {
			t.Fatal(err)
		}
	}
	waitConverged(t, psc, fsc)
	resumeSeq, _ := fsc.ShardJournal(0).Journal().ReplState()
	if err := stop(); err != nil {
		t.Fatalf("first follower run: %v", err)
	}

	// The follower is down; the primary keeps moving.
	for i := 0; i < 50; i++ {
		if _, err := psc.Insert(name0, 3, []byte("<i/>")); err != nil {
			t.Fatal(err)
		}
		if _, err := psc.Insert(name1, 3, []byte("<i/>")); err != nil {
			t.Fatal(err)
		}
	}

	fsc2, _, _ := startFollower(t, fdir, addr, 2)
	if got, _ := fsc2.ShardJournal(0).Journal().ReplState(); got < resumeSeq {
		t.Fatalf("restart lost durable position: seq %d < %d", got, resumeSeq)
	}
	waitConverged(t, psc, fsc2)
	if err := fsc2.CheckConsistency(); err != nil {
		t.Fatalf("resumed follower inconsistent: %v", err)
	}
	pn, _ := psc.Count("d//i")
	fn, _ := fsc2.Count("d//i")
	if pn != fn {
		t.Fatalf("count after resume: primary %d, follower %d", pn, fn)
	}
}

// TestReplBulkClient loads documents over the binary protocol and
// verifies the primary took them — and that a duplicate is rejected
// through the in-order acks.
func TestReplBulkClient(t *testing.T) {
	psc, _, addr := startPrimary(t, t.TempDir(), 2)
	c, err := DialBulk(addr, time.Second, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if err := c.Put(fmt.Sprintf("bulk-%d", i), []byte("<b><x/></b>")); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if psc.Len() != 32 {
		t.Fatalf("primary has %d docs, want 32", psc.Len())
	}
	err = c.Put("bulk-0", []byte("<b/>"))
	if err == nil {
		err = c.Flush()
	}
	if err == nil {
		t.Fatal("duplicate bulk put was not rejected")
	}
	c.Close()

	n, err := psc.Count("b//x")
	if err != nil || n != 32 {
		t.Fatalf("count = %d, %v", n, err)
	}
}

// dialHandshake reads the primary's HELLO and leaves the client ready to
// answer it.
func dialHandshake(t *testing.T, addr string) (net.Conn, Hello) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	typ, payload, err := ReadFrame(conn)
	if err != nil || typ != TypeHello {
		t.Fatalf("server hello: type %d, %v", typ, err)
	}
	h, err := decodeHello(payload)
	if err != nil {
		t.Fatal(err)
	}
	return conn, h
}

func expectError(t *testing.T, conn net.Conn, code uint64) ErrorFrame {
	t.Helper()
	typ, payload, err := ReadFrame(conn)
	if err != nil || typ != TypeError {
		t.Fatalf("expected ERROR frame, got type %d, %v", typ, err)
	}
	e, err := decodeError(payload)
	if err != nil {
		t.Fatal(err)
	}
	if e.Code != code {
		t.Fatalf("error code %d (%s), want %d", e.Code, e.Msg, code)
	}
	return e
}

// TestReplProtocolRobustness drives the primary with misbehaving raw
// clients: wrong protocol version, wrong shard count, garbage frames.
func TestReplProtocolRobustness(t *testing.T) {
	psc, _, addr := startPrimary(t, t.TempDir(), 2)
	if err := psc.Put("seed", []byte("<s/>")); err != nil {
		t.Fatal(err)
	}

	t.Run("version mismatch", func(t *testing.T) {
		conn, h := dialHandshake(t, addr)
		if h.Version != Version || h.Shards != 2 {
			t.Fatalf("server hello = %+v", h)
		}
		if err := WriteFrame(conn, TypeHello, (Hello{Version: 99, Shards: 2}).encode()); err != nil {
			t.Fatal(err)
		}
		expectError(t, conn, ErrCodeVersion)
		// Every former version is refused by its number, however its HELLO
		// was laid out: v1 carried no epoch or depth, v5 both.
		for _, old := range [][]byte{{1, 2}, {5, 2, 0, 0}} {
			conn, _ := dialHandshake(t, addr)
			if err := WriteFrame(conn, TypeHello, append([]byte(helloMagic), old...)); err != nil {
				t.Fatal(err)
			}
			expectError(t, conn, ErrCodeVersion)
		}
	})

	t.Run("shard mismatch", func(t *testing.T) {
		conn, _ := dialHandshake(t, addr)
		if err := WriteFrame(conn, TypeHello, (Hello{Version: Version, Shards: 5}).encode()); err != nil {
			t.Fatal(err)
		}
		expectError(t, conn, ErrCodeShards)
	})

	t.Run("garbage instead of hello", func(t *testing.T) {
		conn, _ := dialHandshake(t, addr)
		if err := WriteFrame(conn, TypeHeartbeat, Heartbeat{UnixMillis: 1}.encode()); err != nil {
			t.Fatal(err)
		}
		expectError(t, conn, ErrCodeBadFrame)
	})

	t.Run("torn frame then hangup", func(t *testing.T) {
		conn, _ := dialHandshake(t, addr)
		// Promise a 100-byte frame, send 3 bytes, hang up: the server
		// must just drop the connection, not wedge or crash.
		if _, err := conn.Write([]byte{0, 0, 0, 100, TypeHello, 1, 2}); err != nil {
			t.Fatal(err)
		}
		conn.Close()
		// The listener still works afterwards.
		conn2, h := dialHandshake(t, addr)
		if h.Version != Version {
			t.Fatalf("server hello after torn client = %+v", h)
		}
		conn2.Close()
	})
}

// TestReplSubscribeBelowHorizon compacts the primary, then subscribes
// from zero: the primary must answer with the structured snapshot error,
// and a Follower must surface it as the fatal ErrSnapshotRequired.
func TestReplSubscribeBelowHorizon(t *testing.T) {
	psc, _, addr := startPrimary(t, t.TempDir(), 2)
	for i := 0; i < 8; i++ {
		if err := psc.Put(fmt.Sprintf("doc-%d", i), []byte("<d><x/></d>")); err != nil {
			t.Fatal(err)
		}
	}
	if err := psc.Compact(); err != nil {
		t.Fatal(err)
	}

	// Raw client: handshake, then subscribe from (0,0) everywhere.
	conn, _ := dialHandshake(t, addr)
	if err := WriteFrame(conn, TypeHello, (Hello{Version: Version, Shards: 2}).encode()); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(conn, TypeSubscribe, encodePositions(nil, make([]int64, 2))); err != nil {
		t.Fatal(err)
	}
	expectError(t, conn, ErrCodeSnapshot)

	// A fresh follower store with re-seeding disabled sees the same as a
	// fatal error from Run (with re-seeding on it would self-heal; that
	// path has its own tests).
	fsc, err := lazyxml.OpenShardedCollection(t.TempDir(), 2, lazyxml.LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fsc.Close()
	f, err := NewFollower(fsc, addr, FollowerConfig{BackoffMin: 10 * time.Millisecond, DisableReseed: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.Run(ctx); !errors.Is(err, ErrSnapshotRequired) {
		t.Fatalf("follower Run = %v, want ErrSnapshotRequired", err)
	}
}

// TestReplFollowerCatchUpFromWAL starts the follower only after the
// primary wrote more records than the in-memory tail retains, forcing
// the catch-up path to read the on-disk WAL before going live.
func TestReplFollowerCatchUpFromWAL(t *testing.T) {
	dir := t.TempDir()
	sc, err := lazyxml.OpenShardedCollection(dir, 2, lazyxml.LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPrimary(sc, PrimaryConfig{HeartbeatEvery: 50 * time.Millisecond, TailRecords: 8})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go p.Serve(ln)
	t.Cleanup(func() {
		p.Close()
		sc.Close()
	})

	name := nameForShard(sc, 0, 0)
	if err := sc.Put(name, []byte("<d></d>")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ { // far past the 8-record tail
		if _, err := sc.Insert(name, 3, []byte("<i/>")); err != nil {
			t.Fatal(err)
		}
	}

	fsc, _, _ := startFollower(t, t.TempDir(), ln.Addr().String(), 2)
	waitConverged(t, sc, fsc)
	if err := fsc.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	fn, err := fsc.Count("d//i")
	if err != nil || fn != 100 {
		t.Fatalf("follower count = %d, %v", fn, err)
	}
}
