package server

import (
	"net/http"
	"net/http/httptest"
	"testing"

	lazyxml "repro"
)

// newPlannedServer builds a server over a sharded in-memory backend with
// the planner attached — the daemon's wiring.
func newPlannedServer(t *testing.T, shards int) (*httptest.Server, *lazyxml.QueryPlanner) {
	t.Helper()
	sc := lazyxml.NewShardedCollection(shards, lazyxml.LD)
	qp := lazyxml.NewQueryPlanner(1 << 20)
	sc.EnablePlanner(qp)
	ts := httptest.NewServer(New(sc, Config{
		PlanStatus: func() any { return qp.Stats() },
	}).Handler())
	t.Cleanup(ts.Close)
	return ts, qp
}

func TestQueryExplain(t *testing.T) {
	ts, _ := newPlannedServer(t, 1)
	if st := call(t, ts, "PUT", "/docs/d", []byte("<r><a><b/><b/></a></r>"), nil); st != http.StatusCreated {
		t.Fatalf("put: %d", st)
	}
	var q QueryResponse
	if st := call(t, ts, "GET", "/query?path=a//b&explain=1", nil, &q); st != http.StatusOK {
		t.Fatalf("query: %d", st)
	}
	if q.Count != 2 {
		t.Fatalf("count = %d", q.Count)
	}
	if len(q.Plans) != 1 {
		t.Fatalf("plans = %+v", q.Plans)
	}
	pl := q.Plans[0]
	if pl.Algo == "" || pl.Cost <= 0 || len(pl.Ops) == 0 || pl.Gen.Store == 0 {
		t.Fatalf("plan = %+v", pl)
	}
	// Second identical query is served from the cache and says so.
	if st := call(t, ts, "GET", "/query?path=a//b&explain=1", nil, &q); st != http.StatusOK {
		t.Fatalf("query: %d", st)
	}
	if len(q.Plans) != 1 || !q.Plans[0].Cached {
		t.Fatalf("second plan not cached: %+v", q.Plans)
	}
	// Doc-scoped explain works too.
	if st := call(t, ts, "GET", "/docs/d/query?path=a//b&explain=1", nil, &q); st != http.StatusOK {
		t.Fatalf("doc query: %d", st)
	}
	if q.Count != 2 || len(q.Plans) != 1 {
		t.Fatalf("doc query = %+v", q)
	}
	// Without explain, no plans leak into the body.
	q = QueryResponse{}
	if st := call(t, ts, "GET", "/query?path=a//b", nil, &q); st != http.StatusOK {
		t.Fatalf("query: %d", st)
	}
	if len(q.Plans) != 0 {
		t.Fatalf("plans leaked without explain: %+v", q.Plans)
	}
}

func TestQueryAlgoOverride(t *testing.T) {
	// ?algo= forces the algorithm on a server without a planner too.
	ts := newTestServer(t)
	if st := call(t, ts, "PUT", "/docs/d", []byte("<r><a><b/></a></r>"), nil); st != http.StatusCreated {
		t.Fatalf("put: %d", st)
	}
	for _, algo := range []string{"lazy", "std", "skip", "twig", "parallel"} {
		var q QueryResponse
		if st := call(t, ts, "GET", "/query?path=a//b&algo="+algo+"&explain=1", nil, &q); st != http.StatusOK {
			t.Fatalf("algo %s: status %d", algo, st)
		}
		if q.Count != 1 {
			t.Fatalf("algo %s: count %d", algo, q.Count)
		}
		if len(q.Plans) != 1 || !q.Plans[0].Forced {
			t.Fatalf("algo %s: plan %+v", algo, q.Plans)
		}
	}
	var e struct {
		Error string `json:"error"`
	}
	if st := call(t, ts, "GET", "/query?path=a//b&algo=bogus", nil, &e); st != http.StatusBadRequest {
		t.Fatalf("bogus algo accepted: %d", st)
	}
}

func TestQueryLimitParsedBeforeQuery(t *testing.T) {
	ts, _ := newPlannedServer(t, 1)
	if st := call(t, ts, "PUT", "/docs/d", []byte("<r><a><b/><b/><b/></a></r>"), nil); st != http.StatusCreated {
		t.Fatalf("put: %d", st)
	}
	var e struct {
		Error string `json:"error"`
	}
	if st := call(t, ts, "GET", "/query?path=a//b&limit=x", nil, &e); st != http.StatusBadRequest {
		t.Fatalf("bad limit: %d", st)
	}
	var q QueryResponse
	if st := call(t, ts, "GET", "/query?path=a//b&limit=2", nil, &q); st != http.StatusOK {
		t.Fatalf("query: %d", st)
	}
	// Count reports returned matches: the stream-backed handler stops
	// executing at the limit instead of materializing the full result.
	if q.Count != 2 || len(q.Matches) != 2 || !q.Truncated {
		t.Fatalf("limited query = %+v", q)
	}
	// An uncapping limit serves the complete result.
	if st := call(t, ts, "GET", "/query?path=a//b&limit=10", nil, &q); st != http.StatusOK {
		t.Fatalf("query: %d", st)
	}
	if q.Count != 3 || len(q.Matches) != 3 || q.Truncated {
		t.Fatalf("re-limited query = %+v", q)
	}
}

func TestStatsPlannerAndTagCardinality(t *testing.T) {
	ts, qp := newPlannedServer(t, 2)
	for _, d := range []string{"d1", "d2", "d3"} {
		if st := call(t, ts, "PUT", "/docs/"+d, []byte("<r><a><b/></a></r>"), nil); st != http.StatusCreated {
			t.Fatalf("put %s: %d", d, st)
		}
	}
	call(t, ts, "GET", "/query?path=a//b", nil, nil)
	call(t, ts, "GET", "/query?path=a//b", nil, nil)

	var st StatsResponse
	if code := call(t, ts, "GET", "/stats?tags=a,b,nosuch", nil, &st); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if st.Planner == nil {
		t.Fatal("stats carries no planner section")
	}
	if st.TagCardinality["a"] != 3 || st.TagCardinality["b"] != 3 || st.TagCardinality["nosuch"] != 0 {
		t.Fatalf("tagCardinality = %v", st.TagCardinality)
	}
	if s := qp.Stats(); s.Cache.Hits == 0 {
		t.Fatalf("repeat query missed the cache: %+v", s.Cache)
	}

	var met struct {
		Planner *lazyxml.PlannerStats `json:"planner"`
	}
	if code := call(t, ts, "GET", "/metrics", nil, &met); code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	if met.Planner == nil || met.Planner.Cache.Hits == 0 {
		t.Fatalf("metrics planner = %+v", met.Planner)
	}
}

func TestQueryCacheInvalidatedByWrite(t *testing.T) {
	ts, _ := newPlannedServer(t, 1)
	if st := call(t, ts, "PUT", "/docs/d", []byte("<r><a><b/></a></r>"), nil); st != http.StatusCreated {
		t.Fatalf("put: %d", st)
	}
	var q QueryResponse
	call(t, ts, "GET", "/query?path=a//b", nil, &q)
	if q.Count != 1 {
		t.Fatalf("count = %d", q.Count)
	}
	// "<r>" is 3 bytes: insert a sibling subtree right after it.
	if st := call(t, ts, "POST", "/docs/d/insert?off=3", []byte("<a><b/></a>"), nil); st != http.StatusCreated {
		t.Fatalf("insert: %d", st)
	}
	call(t, ts, "GET", "/query?path=a//b&explain=1", nil, &q)
	if q.Count != 2 {
		t.Fatalf("stale count after write: %d", q.Count)
	}
	if len(q.Plans) != 1 || q.Plans[0].Cached {
		t.Fatalf("post-write plan should not be cached: %+v", q.Plans)
	}
}
