package repl

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	lazyxml "repro"
	"repro/internal/faultline"
	"repro/internal/maintain"
)

// startPrimaryOpts is startPrimary with journal options — used to serve
// from a group-commit store.
func startPrimaryOpts(t *testing.T, dir string, shards int, jOpts ...lazyxml.JournalOption) (*lazyxml.ShardedCollection, *Primary, string) {
	t.Helper()
	sc, err := lazyxml.OpenShardedCollection(dir, shards, lazyxml.LD, nil, jOpts...)
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

// TestRecordBatchFrameRoundTrip exercises the RECORDBATCH frame:
// encode/decode identity, and the decoder's refusal of empty, truncated,
// trailing-byte, and absurd-count payloads.
func TestRecordBatchFrameRoundTrip(t *testing.T) {
	b := RecordBatch{
		Shard:    3,
		FirstSeq: 41,
		Datas:    [][]byte{{1, 2, 3}, {}, []byte("segment payload"), {0xff, 0}},
	}
	typ, p := roundTrip(t, TypeRecordBatch, b.encode())
	if typ != TypeRecordBatch {
		t.Fatalf("type = %d", typ)
	}
	got, err := decodeRecordBatch(p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Shard != b.Shard || got.FirstSeq != b.FirstSeq || len(got.Datas) != len(b.Datas) {
		t.Fatalf("record-batch = %+v", got)
	}
	for i := range b.Datas {
		if !bytes.Equal(got.Datas[i], b.Datas[i]) {
			t.Fatalf("record %d = %x, want %x", i, got.Datas[i], b.Datas[i])
		}
	}

	if _, err := decodeRecordBatch((RecordBatch{Shard: 0, FirstSeq: 1}).encode()); err == nil {
		t.Fatal("empty batch accepted")
	}
	enc := b.encode()
	for _, cut := range []int{1, 3, len(enc) / 2, len(enc) - 1} {
		if _, err := decodeRecordBatch(enc[:cut]); err == nil {
			t.Fatalf("truncated batch (cut %d) accepted", cut)
		}
	}
	if _, err := decodeRecordBatch(append(append([]byte{}, enc...), 7)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// A count far past any real batch is refused before allocation.
	huge := []byte{3, 41, 0xff, 0xff, 0xff, 0xff, 0x7f}
	if _, err := decodeRecordBatch(huge); err == nil {
		t.Fatal("absurd record count accepted")
	}
}

// rawSubscribe completes the handshake and subscribes from zero on every
// shard.
func rawSubscribe(t *testing.T, addr string, shards int) net.Conn {
	t.Helper()
	conn, _ := dialHandshake(t, addr)
	if err := WriteFrame(conn, TypeHello, (Hello{Version: Version, Shards: shards}).encode()); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(conn, TypeSubscribe, encodePositions(nil, make([]int64, shards))); err != nil {
		t.Fatal(err)
	}
	return conn
}

// drainRecords reads the stream until total records have been observed,
// tallying RECORDBATCH frames that carry one record and those that carry
// a longer run separately.
func drainRecords(t *testing.T, conn net.Conn, total int64) (singles, batches, batched int64) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var seen int64
	for seen < total {
		typ, payload, err := ReadFrame(conn)
		if err != nil {
			t.Fatalf("after %d/%d records: %v", seen, total, err)
		}
		switch typ {
		case TypeRecordBatch:
			b, err := decodeRecordBatch(payload)
			if err != nil {
				t.Fatal(err)
			}
			seen += int64(len(b.Datas))
			if len(b.Datas) == 1 {
				singles++
				continue
			}
			batches++
			batched += int64(len(b.Datas))
		case TypeHeartbeat: // ignore
		default:
			t.Fatalf("unexpected frame type %d", typ)
		}
	}
	return singles, batches, batched
}

// TestGroupCommitStreamBatching checks the subscriber send path: a
// subscriber catching up over a backlog receives contiguous runs as
// RECORDBATCH frames (the frame protocol v5 introduced, now the only
// record-carrying one) rather than one frame per record.
func TestGroupCommitStreamBatching(t *testing.T) {
	psc, _, addr := startPrimaryOpts(t, t.TempDir(), 2,
		lazyxml.WithSync(), lazyxml.WithGroupCommit(time.Millisecond))

	names := []string{nameForShard(psc, 0, 0), nameForShard(psc, 1, 0)}
	for _, n := range names {
		if err := psc.Put(n, []byte("<d></d>")); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := psc.Insert(names[w%2], 3, []byte("<i/>")); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	var total int64
	for i := 0; i < psc.ShardCount(); i++ {
		seq, _ := psc.ShardJournal(i).ReplState()
		total += seq
	}

	t.Run("v5-batches", func(t *testing.T) {
		conn := rawSubscribe(t, addr, 2)
		defer conn.Close()
		singles, batches, batched := drainRecords(t, conn, total)
		if batches == 0 {
			t.Fatalf("subscriber saw no multi-record RECORDBATCH frames (singles=%d)", singles)
		}
		if singles+batched != total {
			t.Fatalf("record count: %d singles + %d batched != %d", singles, batched, total)
		}
	})
}

// TestGroupCommitFollowerCatchUp starts a follower against a backlog and
// proves the batched apply path: the whole catch-up lands with a handful
// of file operations — not one write+fsync per record — and converges to
// the same store.
func TestGroupCommitFollowerCatchUp(t *testing.T) {
	psc, _, addr := startPrimaryOpts(t, t.TempDir(), 2,
		lazyxml.WithSync(), lazyxml.WithGroupCommit(time.Millisecond))

	names := []string{nameForShard(psc, 0, 0), nameForShard(psc, 1, 0)}
	for _, n := range names {
		if err := psc.Put(n, []byte("<d></d>")); err != nil {
			t.Fatal(err)
		}
	}
	const inserts = 150
	for i := 0; i < inserts; i++ {
		if _, err := psc.Insert(names[i%2], 3, []byte("<i/>")); err != nil {
			t.Fatal(err)
		}
	}

	// Follower on a fault-instrumented filesystem with sync-on-ack: the
	// mutation counter tells us how many writes+fsyncs the catch-up cost.
	fs := faultline.NewFaultFS(nil)
	fsc, err := lazyxml.OpenShardedCollection(t.TempDir(), 2, lazyxml.LD, nil,
		lazyxml.WithSync(), lazyxml.WithFS(fs))
	if err != nil {
		t.Fatal(err)
	}
	base := fs.Mutations()
	f, err := NewFollower(fsc, addr, FollowerConfig{BackoffMin: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- f.Run(t.Context()) }()
	t.Cleanup(func() {
		<-done
		fsc.Close()
	})

	waitConverged(t, psc, fsc)
	cost := fs.Mutations() - base
	// 152 segment + 2 name records. Per-record apply with sync-on-ack
	// would cost >300 mutations; batched apply flushes whole runs, so
	// the bill is a write+fsync per run: 4 when each shard's backlog
	// arrives as one run.
	if cost > 8 {
		t.Fatalf("catch-up cost %d file mutations for %d records — per-record fsync path?", cost, inserts+4)
	}
	t.Logf("catch-up: %d records applied with %d file mutations", inserts+4, cost)

	if err := fsc.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	pn, _ := psc.Count("d//i")
	fn, _ := fsc.Count("d//i")
	if pn != fn || pn != inserts {
		t.Fatalf("count: primary %d, follower %d, want %d", pn, fn, inserts)
	}
}

// gcROp is one step of the deterministic per-document op scripts used by
// the replicated equivalence test.
type gcROp int

const (
	gcRInsert gcROp = iota // insert <i/> at offset 3
	gcRRemove              // remove the innermost <i/> if one exists
	gcRElem                // RemoveElementAt the innermost element
	gcRReput               // delete the doc and put it back empty
)

// applyGcROp applies one scripted op. depth tracks how many <i/> layers
// the document currently has, so guarded ops behave identically in the
// concurrent subject run and the serial oracle run.
func applyGcROp(sc *lazyxml.ShardedCollection, name string, op gcROp, depth *int) error {
	switch op {
	case gcRInsert:
		if _, err := sc.Insert(name, 3, []byte("<i/>")); err != nil {
			return err
		}
		*depth++
	case gcRRemove:
		if *depth == 0 {
			return nil
		}
		if err := sc.Remove(name, 3, len("<i/>")); err != nil {
			return err
		}
		*depth--
	case gcRElem:
		if *depth == 0 {
			return nil
		}
		if err := sc.RemoveElementAt(name, 3); err != nil {
			return err
		}
		*depth--
	case gcRReput:
		if err := sc.Delete(name); err != nil {
			return err
		}
		if err := sc.Put(name, []byte("<d></d>")); err != nil {
			return err
		}
		*depth = 0
	}
	return nil
}

func gcRScript(seed int64, n int) []gcROp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]gcROp, n)
	for i := range ops {
		switch r := rng.Intn(10); {
		case r < 5:
			ops[i] = gcRInsert
		case r < 7:
			ops[i] = gcRRemove
		case r < 9:
			ops[i] = gcRElem
		default:
			ops[i] = gcRReput
		}
	}
	return ops
}

// TestGroupCommitReplicatedEquivalence is the oracle-equivalence
// property across the wire: concurrent writers drive a group-commit
// primary that streams to a follower (opened with group commit itself),
// with a maintenance-controller tick in the middle; the follower is then
// promoted mid-run and takes the tail of the workload as the new
// primary. At every checkpoint the replicated store must be
// indistinguishable from a serial, unbatched oracle that executed the
// same per-document scripts.
func TestGroupCommitReplicatedEquivalence(t *testing.T) {
	const workers = 4
	rounds := 50
	if testing.Short() {
		rounds = 12
	}

	psc, p, addr := startPrimaryOpts(t, t.TempDir(), 2,
		lazyxml.WithSync(), lazyxml.WithGroupCommit(time.Millisecond))
	fsc, err := lazyxml.OpenShardedCollection(t.TempDir(), 2, lazyxml.LD, nil,
		lazyxml.WithSync(), lazyxml.WithGroupCommit(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer fsc.Close()
	f, err := NewFollower(fsc, addr, FollowerConfig{BackoffMin: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	fctx, fcancel := context.WithCancel(t.Context())
	fdone := make(chan error, 1)
	go func() { fdone <- f.Run(fctx) }()
	var stopOnce sync.Once
	stopFollower := func() {
		stopOnce.Do(func() {
			fcancel()
			<-fdone
		})
	}
	t.Cleanup(stopFollower)

	osc, err := lazyxml.OpenShardedCollection(t.TempDir(), 2, lazyxml.LD, nil, lazyxml.WithSync())
	if err != nil {
		t.Fatal(err)
	}
	defer osc.Close()

	names := make([]string, workers)
	for w := range names {
		names[w] = fmt.Sprintf("w%d", w)
		if err := psc.Put(names[w], []byte("<d></d>")); err != nil {
			t.Fatal(err)
		}
		if err := osc.Put(names[w], []byte("<d></d>")); err != nil {
			t.Fatal(err)
		}
	}

	sDepth := make([]int, workers)
	oDepth := make([]int, workers)

	// runPhase drives the subject concurrently (one goroutine per worker,
	// disjoint documents) and the oracle serially with the same scripts.
	runPhase := func(subject *lazyxml.ShardedCollection, phase int) {
		t.Helper()
		scripts := make([][]gcROp, workers)
		for w := range scripts {
			scripts[w] = gcRScript(int64(1000*phase+w), rounds)
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				d := sDepth[w]
				for i, op := range scripts[w] {
					if err := applyGcROp(subject, names[w], op, &d); err != nil {
						t.Errorf("phase %d worker %d op %d: %v", phase, w, i, err)
						return
					}
				}
				sDepth[w] = d
			}(w)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		for w := 0; w < workers; w++ {
			for i, op := range scripts[w] {
				if err := applyGcROp(osc, names[w], op, &oDepth[w]); err != nil {
					t.Fatalf("oracle phase %d worker %d op %d: %v", phase, w, i, err)
				}
			}
		}
	}

	compare := func(sc *lazyxml.ShardedCollection, label string) {
		t.Helper()
		if err := sc.CheckConsistency(); err != nil {
			t.Fatalf("%s: CheckConsistency: %v", label, err)
		}
		for w, name := range names {
			st, err := sc.Text(name)
			if err != nil {
				t.Fatalf("%s: worker %d text: %v", label, w, err)
			}
			ot, err := osc.Text(name)
			if err != nil {
				t.Fatalf("oracle worker %d text: %v", w, err)
			}
			if !bytes.Equal(st, ot) {
				t.Fatalf("%s: worker %d diverged:\nsubject %s\noracle  %s", label, w, st, ot)
			}
		}
		sn, _ := sc.Count("d//i")
		on, _ := osc.Count("d//i")
		if sn != on {
			t.Fatalf("%s: count %d, oracle %d", label, sn, on)
		}
	}

	// Phase 1: concurrent batched writes streamed live to the follower.
	runPhase(psc, 1)
	waitConverged(t, psc, fsc)
	compare(psc, "primary after phase 1")
	compare(fsc, "follower after phase 1")

	// Maintenance tick on the primary between phases: compaction moves
	// the resume horizon while batches keep flowing afterwards.
	ctl := maintain.New(psc, maintain.Config{
		Policy: maintain.Policy{SegmentsHigh: 1 << 30, SegmentsLow: 1,
			LogBytesHigh: 1, MinActionGap: time.Nanosecond,
			MaxCompactDefers: -1},
		SubscriberLag: p.SubscriberLag,
	})
	if err := ctl.RunOnce(t.Context()); err != nil {
		t.Fatalf("maintenance cycle: %v", err)
	}

	// Phase 2: more concurrent batched writes over the compacted store.
	runPhase(psc, 2)
	waitConverged(t, psc, fsc)
	compare(psc, "primary after phase 2")
	compare(fsc, "follower after phase 2")

	// Mid-run promote: stop streaming, promote the follower, and let it
	// take the tail of the workload as the new primary — its own commit
	// lane now does the batching.
	stopFollower()
	if _, err := fsc.Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}
	runPhase(fsc, 3)
	compare(fsc, "promoted follower after phase 3")

	st := fsc.CommitLaneStats()
	var ops int64
	for _, s := range st {
		if !s.Enabled {
			t.Fatalf("promoted follower shard lane disabled: %+v", st)
		}
		ops += s.Ops
	}
	if ops == 0 {
		t.Fatal("promoted follower took phase 3 writes without the commit lane")
	}
}
