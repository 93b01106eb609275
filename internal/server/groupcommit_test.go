package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	lazyxml "repro"
)

// newGroupCommitServer serves a journaled sharded store opened with
// group commit; the server learns of the lane from the store.
func newGroupCommitServer(t *testing.T, shards int, window time.Duration) (*httptest.Server, *Server, *lazyxml.ShardedCollection) {
	t.Helper()
	sc, err := lazyxml.OpenShardedCollection(t.TempDir(), shards, lazyxml.LD, nil,
		lazyxml.WithSync(), lazyxml.WithGroupCommit(window))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(sc, Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		sc.Close()
	})
	return ts, srv, sc
}

// TestServerBatchEndpoint drives POST /batch: per-op results in request
// order, individual failures that do not fail the batch, same-document
// ordering, and the lane/metrics counters agreeing with what happened.
func TestServerBatchEndpoint(t *testing.T) {
	ts, srv, sc := newGroupCommitServer(t, 2, time.Millisecond)

	ops := []map[string]any{
		{"op": "put", "doc": "a", "text": "<d></d>"},
		{"op": "insert", "doc": "a", "off": 3, "text": "<i/>"},
		{"op": "put", "doc": "b", "text": "<d><x/></d>"},
		{"op": "put", "doc": "a", "text": "<dup/>"},   // duplicate: fails alone
		{"op": "delete", "doc": "ghost"},              // unknown: fails alone
		{"op": "removeElement", "doc": "a", "off": 3}, // removes the <i/> again
		{"op": "insert", "doc": "b", "off": 3, "text": "<y/>"},
	}
	body, _ := json.Marshal(map[string]any{"ops": ops})
	var resp struct {
		Results []batchResult `json:"results"`
		Ops     int           `json:"ops"`
		Failed  int           `json:"failed"`
	}
	if st := call(t, ts, "POST", "/batch", body, &resp); st != http.StatusOK {
		t.Fatalf("batch: %d", st)
	}
	if resp.Ops != len(ops) || len(resp.Results) != len(ops) {
		t.Fatalf("response = %+v", resp)
	}
	if resp.Failed != 2 {
		t.Fatalf("failed = %d, want 2 (%+v)", resp.Failed, resp.Results)
	}
	for i, ok := range []bool{true, true, true, false, false, true, true} {
		if resp.Results[i].Ok != ok {
			t.Fatalf("op %d ok=%v, want %v: %+v", i, resp.Results[i].Ok, ok, resp.Results[i])
		}
	}
	if resp.Results[3].Status != http.StatusConflict {
		t.Fatalf("duplicate put status = %d", resp.Results[3].Status)
	}
	if resp.Results[4].Status != http.StatusNotFound {
		t.Fatalf("unknown delete status = %d", resp.Results[4].Status)
	}
	if resp.Results[1].Sid == 0 || resp.Results[6].Sid == 0 {
		t.Fatal("insert results lost their segment ids")
	}

	// Same-document ordering held: a's insert then removeElement leaves
	// the original text; b kept its insert.
	at, err := sc.Text("a")
	if err != nil || string(at) != "<d></d>" {
		t.Fatalf("a = %q, %v", at, err)
	}
	bt, _ := sc.Text("b")
	if string(bt) != "<d><y/><x/></d>" {
		t.Fatalf("b = %q", bt)
	}

	// The failed ops never became visible.
	if _, err := sc.Text("ghost"); err == nil {
		t.Fatal("ghost exists")
	}

	// Lane and metrics agree: every successful lane op was observed.
	m := srv.Metrics()
	if !m.GroupCommit.Enabled {
		t.Fatal("groupCommit disabled in metrics")
	}
	var laneOps int64
	for _, l := range sc.CommitLaneStats() {
		laneOps += l.Ops
	}
	if m.GroupCommit.Ops != laneOps || laneOps == 0 {
		t.Fatalf("metrics ops %d, lane ops %d", m.GroupCommit.Ops, laneOps)
	}
	if m.GroupCommit.Batches == 0 || m.GroupCommit.BatchSize.Count != m.GroupCommit.Batches {
		t.Fatalf("batch histogram: %+v", m.GroupCommit)
	}
	if m.GroupCommit.FlushLatency.Count != m.GroupCommit.Batches {
		t.Fatalf("flush histogram: %+v", m.GroupCommit)
	}

	// /stats embeds the per-shard lanes; /metrics embeds the snapshot.
	var stats StatsResponse
	if st := call(t, ts, "GET", "/stats", nil, &stats); st != http.StatusOK {
		t.Fatalf("stats: %d", st)
	}
	if stats.GroupCommit == nil {
		t.Fatal("stats missing groupCommit lanes")
	}
	var met struct {
		GroupCommit GroupCommitMetrics `json:"groupCommit"`
	}
	if st := call(t, ts, "GET", "/metrics", nil, &met); st != http.StatusOK {
		t.Fatalf("metrics: %d", st)
	}
	if !met.GroupCommit.Enabled || met.GroupCommit.Ops != laneOps {
		t.Fatalf("/metrics groupCommit = %+v", met.GroupCommit)
	}
}

// TestServerLearnsCommitLaneFromStore pins that the store, not the
// config, decides whether the server runs in front of a commit lane: a
// zero Config over a group-commit store gets 32 writer slots per shard and
// lights the batch histograms, and Config.GroupCommit over an in-memory
// store changes neither.
func TestServerLearnsCommitLaneFromStore(t *testing.T) {
	ts, srv, _ := newGroupCommitServer(t, 2, 0)
	if w := srv.WritersPerShard(); w != 32 {
		t.Fatalf("writers = %d over a commit lane, want 32", w)
	}
	if st := call(t, ts, "PUT", "/docs/a", []byte("<d/>"), nil); st != http.StatusCreated {
		t.Fatalf("put: %d", st)
	}
	var met struct {
		GroupCommit GroupCommitMetrics `json:"groupCommit"`
	}
	if st := call(t, ts, "GET", "/metrics", nil, &met); st != http.StatusOK {
		t.Fatalf("metrics: %d", st)
	}
	if !met.GroupCommit.Enabled || met.GroupCommit.Batches != 1 || met.GroupCommit.BatchSize.Count != 1 {
		t.Fatalf("/metrics groupCommit = %+v, want enabled with one observed batch", met.GroupCommit)
	}

	mem := New(lazyxml.NewCollection(lazyxml.LD), Config{GroupCommit: true})
	if mem.WritersPerShard() != 1 || mem.Metrics().GroupCommit.Enabled {
		t.Fatalf("in-memory store: writers = %d, groupCommit = %+v; want 1 and disabled",
			mem.WritersPerShard(), mem.Metrics().GroupCommit)
	}
}

// TestServerBatchValidation exercises the request-level refusals.
func TestServerBatchValidation(t *testing.T) {
	ts, _, _ := newGroupCommitServer(t, 2, 0)

	cases := []struct {
		name string
		body string
	}{
		{"empty ops", `{"ops":[]}`},
		{"not json", `put a please`},
		{"unknown op", `{"ops":[{"op":"upsert","doc":"a"}]}`},
		{"missing doc", `{"ops":[{"op":"put","text":"<d/>"}]}`},
	}
	for _, tc := range cases {
		if st := call(t, ts, "POST", "/batch", []byte(tc.body), nil); st != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", tc.name, st)
		}
	}

	// A follower refuses the batch wholesale, pointing at the primary.
	fsrv := New(lazyxml.NewCollection(lazyxml.LD), Config{PrimaryAddr: "primary:7070"})
	fts := httptest.NewServer(fsrv.Handler())
	defer fts.Close()
	body := `{"ops":[{"op":"put","doc":"a","text":"<d/>"}]}`
	if st := call(t, fts, "POST", "/batch", []byte(body), nil); st != http.StatusForbidden {
		t.Fatalf("follower batch: status %d, want 403", st)
	}
}

// TestServerConcurrentWritesShareBatches proves the transparent path:
// plain single-op PUTs issued concurrently against a group-commit
// server land in shared batches — no client cooperation, no /batch.
func TestServerConcurrentWritesShareBatches(t *testing.T) {
	ts, srv, sc := newGroupCommitServer(t, 1, 2*time.Millisecond)

	const writers = 24
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := call(t, ts, "PUT", fmt.Sprintf("/docs/c%d", w), []byte("<d><x/></d>"), nil)
			if st != http.StatusCreated {
				errs <- fmt.Errorf("put c%d: status %d", w, st)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if sc.Len() != writers {
		t.Fatalf("store has %d docs, want %d", sc.Len(), writers)
	}
	m := srv.Metrics()
	if m.GroupCommit.Ops != writers {
		t.Fatalf("lane saw %d ops, want %d", m.GroupCommit.Ops, writers)
	}
	if m.GroupCommit.Batches >= writers {
		t.Fatalf("%d batches for %d ops: no batching happened", m.GroupCommit.Batches, writers)
	}
	if m.GroupCommit.MaxBatch < 2 {
		t.Fatalf("max batch %d: writers never shared a flush", m.GroupCommit.MaxBatch)
	}
}
