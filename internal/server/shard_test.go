package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	lazyxml "repro"
	"repro/internal/faultline"
)

// shardName probes for a document name the store routes to the wanted
// shard.
func shardName(b *lazyxml.ShardedCollection, base string, want int) string {
	for k := 0; ; k++ {
		name := fmt.Sprintf("%s-%d", base, k)
		if b.ShardOf(name) == want {
			return name
		}
	}
}

func TestShardedServerEndToEnd(t *testing.T) {
	sc := lazyxml.NewShardedCollection(4, lazyxml.LD)
	srv := New(sc, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// One document per shard, each updated over HTTP.
	names := make([]string, 4)
	for s := 0; s < 4; s++ {
		names[s] = shardName(sc, "doc", s)
		if st := call(t, ts, "PUT", "/docs/"+names[s], []byte("<d></d>"), nil); st != http.StatusCreated {
			t.Fatalf("put shard %d: %d", s, st)
		}
		for i := 0; i < s+1; i++ {
			if st := call(t, ts, "POST", "/docs/"+names[s]+"/insert?off=3", []byte("<x/>"), nil); st != http.StatusCreated {
				t.Fatalf("insert shard %d: %d", s, st)
			}
		}
	}

	// Whole-collection query fans out and sums: 1+2+3+4 elements.
	var cnt struct {
		Count int `json:"count"`
	}
	if st := call(t, ts, "GET", "/count?path=d//x", nil, &cnt); st != http.StatusOK || cnt.Count != 10 {
		t.Fatalf("fan-out count = %+v (%d)", cnt, st)
	}
	var q QueryResponse
	if st := call(t, ts, "GET", "/query?path=d//x", nil, &q); st != http.StatusOK || q.Count != 10 {
		t.Fatalf("fan-out query = %+v (%d)", q, st)
	}

	// /stats carries the shard dimension: per-shard docs, update
	// counters and update-log footprint.
	var stats StatsResponse
	if st := call(t, ts, "GET", "/stats", nil, &stats); st != http.StatusOK {
		t.Fatal("stats")
	}
	if stats.ShardCount != 4 || len(stats.Shards) != 4 {
		t.Fatalf("stats shard dimension = %d/%d", stats.ShardCount, len(stats.Shards))
	}
	if stats.Durable {
		t.Fatal("in-memory shards report durable")
	}
	var inserts, docs int
	for i, ss := range stats.Shards {
		if ss.Shard != i || ss.Docs != 1 {
			t.Fatalf("shard %d stats = %+v", i, ss)
		}
		docs += ss.Docs
		inserts += ss.Inserts
		if ss.Inserts > 0 && ss.UpdateLogBytes == 0 {
			t.Fatalf("shard %d has %d inserts but no update-log bytes", i, ss.Inserts)
		}
	}
	if docs != stats.Docs || inserts != stats.Inserts {
		t.Fatalf("per-shard sums (%d, %d) disagree with aggregate (%d, %d)",
			docs, inserts, stats.Docs, stats.Inserts)
	}

	// /metrics grew a per-shard write lane; every shard saw writes.
	met := srv.Metrics()
	if len(met.Shards) != 4 {
		t.Fatalf("metrics shards = %d", len(met.Shards))
	}
	for i, sm := range met.Shards {
		if sm.Updates == 0 || sm.WriteLatency.Count == 0 {
			t.Fatalf("shard %d metrics saw no writes: %+v", i, sm)
		}
	}

	// Maintenance spans shards; compaction is refused in memory.
	if st := call(t, ts, "POST", "/rebuild", nil, nil); st != http.StatusOK {
		t.Fatal("rebuild")
	}
	if st := call(t, ts, "POST", "/check", nil, nil); st != http.StatusOK {
		t.Fatal("check")
	}
	if st := call(t, ts, "POST", "/compact", nil, nil); st != http.StatusNotImplemented {
		t.Fatalf("compact on in-memory shards = %d, want 501", st)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("closing in-memory shards: %v", err)
	}
}

// blockingFS parks every journal write once armed, after announcing
// the file it writes, until gate is closed — so a test can observe how
// many updates the server lets in flight at once.
type blockingFS struct {
	faultline.FS
	armed   atomic.Bool
	entered chan string
	gate    chan struct{}
	once    sync.Once
}

func (b *blockingFS) OpenFile(name string, flag int, perm os.FileMode) (faultline.File, error) {
	f, err := b.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &blockingFile{File: f, fs: b, name: name}, nil
}

// release opens the gate for good; idempotent.
func (b *blockingFS) release() {
	b.once.Do(func() { close(b.gate) })
}

type blockingFile struct {
	faultline.File
	fs   *blockingFS
	name string
}

func (f *blockingFile) Write(p []byte) (int, error) {
	if f.fs.armed.Load() {
		f.fs.entered <- f.name
		<-f.fs.gate
	}
	return f.File.Write(p)
}

// openBlocking opens a 2-shard durable store over a blockingFS, puts
// one empty document under each name, then arms the FS.
func openBlocking(t *testing.T, names ...string) (*lazyxml.ShardedCollection, *blockingFS) {
	t.Helper()
	bfs := &blockingFS{FS: faultline.OS, entered: make(chan string, 4), gate: make(chan struct{})}
	sc, err := lazyxml.OpenShardedCollection(t.TempDir(), 2, lazyxml.LD, nil, lazyxml.WithFS(bfs))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sc.Close() })
	t.Cleanup(bfs.release)
	for _, name := range names {
		if err := sc.Put(name, []byte("<d></d>")); err != nil {
			t.Fatal(err)
		}
	}
	bfs.armed.Store(true)
	return sc, bfs
}

// TestConcurrentWritesDistinctShardsNotSerialized is the point of the
// sharded write gate: two updates to documents on different shards must
// both be in flight at once (the old process-wide single-writer gate
// would serialize them), while two updates to the same shard still
// queue.
func TestConcurrentWritesDistinctShardsNotSerialized(t *testing.T) {
	probe := lazyxml.NewShardedCollection(2, lazyxml.LD)
	a := shardName(probe, "a", 0)
	b := shardName(probe, "b", 1)
	c := shardName(probe, "c", 0) // same shard as a

	insert := func(ts *httptest.Server, name string, done *sync.WaitGroup) {
		defer done.Done()
		if st := call(t, ts, "POST", "/docs/"+name+"/insert?off=3", []byte("<x/>"), nil); st != http.StatusCreated {
			t.Errorf("insert %s: %d", name, st)
		}
	}

	// Distinct shards: both inserts reach their shard's journal while
	// neither has been released — they were admitted concurrently.
	sc, bfs := openBlocking(t, a, b, c)
	ts := httptest.NewServer(New(sc, Config{RequestTimeout: 10 * time.Second}).Handler())
	defer ts.Close()
	var wg sync.WaitGroup
	wg.Add(2)
	go insert(ts, a, &wg)
	go insert(ts, b, &wg)
	for i := 0; i < 2; i++ {
		select {
		case <-bfs.entered:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of 2 cross-shard writes in flight: the gate serialized them", i)
		}
	}
	bfs.release()
	wg.Wait()

	// Same shard: the second write must queue at the gate behind the
	// first, holding no slot, rather than reach the store.
	sc2, bfs2 := openBlocking(t, a, b, c)
	srv2 := New(sc2, Config{RequestTimeout: 10 * time.Second})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	wg.Add(2)
	go insert(ts2, a, &wg)
	select {
	case <-bfs2.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("first same-shard write never reached the store")
	}
	go insert(ts2, c, &wg)
	for deadline := time.Now().Add(5 * time.Second); srv2.gate.queued(0) < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("second same-shard write never reached the gate")
		}
	}
	select {
	case name := <-bfs2.entered:
		t.Fatalf("same-shard write to %s admitted alongside the first", name)
	case <-time.After(200 * time.Millisecond):
		// Queued, as it should be.
	}
	if held := len(srv2.gate.shards[0]); held != 1 {
		t.Fatalf("%d write slots held on one shard, want 1", held)
	}
	bfs2.release()
	// The queued write now proceeds through the freed slot and the open
	// gate.
	select {
	case <-bfs2.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("queued same-shard write never ran after release")
	}
	wg.Wait()
}

// TestShardedServerCrashRecoveryTornShard reopens a sharded journaled
// server after a crash that tore one shard's WAL tail: the other shards
// must be untouched and the torn shard must keep every acknowledged
// update.
func TestShardedServerCrashRecoveryTornShard(t *testing.T) {
	dir := t.TempDir()
	sc, err := lazyxml.OpenShardedCollection(dir, 3, lazyxml.LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(sc, Config{}).Handler())

	names := make([]string, 3)
	for s := 0; s < 3; s++ {
		names[s] = shardName(sc, "doc", s)
		if st := call(t, ts, "PUT", "/docs/"+names[s], []byte("<d></d>"), nil); st != http.StatusCreated {
			t.Fatalf("put %d: %d", s, st)
		}
		for i := 0; i < 4; i++ {
			if st := call(t, ts, "POST", "/docs/"+names[s]+"/insert?off=3", []byte("<x/>"), nil); st != http.StatusCreated {
				t.Fatalf("insert %d/%d", s, i)
			}
		}
	}

	// Hard kill, then tear shard 1's WAL tail as a crash mid-append
	// would.
	ts.Close()
	walPath := filepath.Join(dir, "shard-0001", "journal.wal")
	w, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	w.Write([]byte{1, 0x80}) // insert op with a truncated varint
	w.Close()

	sc2, err := lazyxml.OpenShardedCollection(dir, 3, lazyxml.LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(New(sc2, Config{}).Handler())
	defer ts2.Close()
	defer sc2.Close()

	for s := 0; s < 3; s++ {
		var cnt struct {
			Count int `json:"count"`
		}
		if st := call(t, ts2, "GET", "/docs/"+names[s]+"/count?path=d//x", nil, &cnt); st != http.StatusOK || cnt.Count != 4 {
			t.Fatalf("shard %d after recovery: %d matches (%d)", s, cnt.Count, st)
		}
	}
	if st := call(t, ts2, "POST", "/check", nil, nil); st != http.StatusOK {
		t.Fatal("consistency check after torn-shard recovery")
	}
	var stats StatsResponse
	if st := call(t, ts2, "GET", "/stats", nil, &stats); st != http.StatusOK || !stats.Durable || stats.ShardCount != 3 {
		t.Fatalf("stats after recovery = %+v", stats)
	}
}
