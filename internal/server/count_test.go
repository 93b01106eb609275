package server

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	lazyxml "repro"
)

// The count endpoints open their query exactly as the query endpoints
// do: same planner parameters, same budget, same request context. These
// tests pin each of those down on /count and /docs/{name}/count.

func TestCountRejectsUnknownAlgo(t *testing.T) {
	ts := newTestServer(t)
	call(t, ts, "PUT", "/docs/d", []byte("<r><a><b/></a></r>"), nil)
	for _, path := range []string{"/count?path=a//b&algo=nope", "/docs/d/count?path=a//b&algo=nope"} {
		var e struct {
			Error string `json:"error"`
		}
		if st := call(t, ts, "GET", path, nil, &e); st != http.StatusBadRequest || !strings.Contains(e.Error, "algo") {
			t.Fatalf("%s: %d %+v", path, st, e)
		}
	}
}

func TestCountQueryBudget(t *testing.T) {
	// The a//b//c frontier holds one entry per matched b: eight of them
	// overflow a budget two matches wide.
	s := New(lazyxml.NewCollection(lazyxml.LD), Config{QueryBudget: 192})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	call(t, ts, "PUT", "/docs/d", []byte("<r><a>"+strings.Repeat("<b><c/></b>", 8)+"</a></r>"), nil)

	for _, path := range []string{"/count?path=a//b//c", "/docs/d/count?path=a//b//c"} {
		var e struct {
			Error  string `json:"error"`
			Status int    `json:"status"`
		}
		if st := call(t, ts, "GET", path, nil, &e); st != http.StatusInsufficientStorage || !strings.Contains(e.Error, "budget") {
			t.Fatalf("%s: %d %+v", path, st, e)
		}
	}
	var c CountResponse
	if st := call(t, ts, "GET", "/count?path=a//b", nil, &c); st != http.StatusOK || c.Count != 8 {
		t.Fatalf("within-budget count: %d %+v", st, c)
	}
	var met MetricsSnapshot
	call(t, ts, "GET", "/metrics", nil, &met)
	if met.Streams.BudgetKills != 2 {
		t.Fatalf("budgetKills = %d, want 2", met.Streams.BudgetKills)
	}
}

func TestCountStopsOnCancelledRequest(t *testing.T) {
	b := lazyxml.NewCollection(lazyxml.LD)
	if err := b.Put("d", []byte("<r><a>"+strings.Repeat("<b/>", 5000)+"</a></r>")); err != nil {
		t.Fatal(err)
	}
	run := func(s *Server, ctx context.Context, path string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("GET", path, nil).WithContext(ctx)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		return rec
	}

	// The client went away: the count stops with 499 and is a cancel.
	s := New(b, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, path := range []string{"/count?path=a//b", "/docs/d/count?path=a//b"} {
		if rec := run(s, ctx, path); rec.Code != statusClientClosedRequest {
			t.Fatalf("%s cancelled: %d %s", path, rec.Code, rec.Body)
		}
	}
	if n := s.met.streamCancels.Load(); n != 2 {
		t.Fatalf("cancels = %d, want 2", n)
	}

	// The request deadline passed: the count stops with 503 and is a
	// timeout.
	s = New(b, Config{RequestTimeout: time.Nanosecond})
	for _, path := range []string{"/count?path=a//b", "/docs/d/count?path=a//b"} {
		if rec := run(s, context.Background(), path); rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s past deadline: %d %s", path, rec.Code, rec.Body)
		}
	}
	if n := s.met.timeouts.Load(); n != 2 {
		t.Fatalf("timeouts = %d, want 2", n)
	}
	// The store keeps its published view; nothing past it stays pinned.
	if live := serverLiveViews(b); live > b.ShardCount() {
		t.Fatalf("%d live views after the stopped counts (want <= %d)", live, b.ShardCount())
	}
}

func TestCountExplain(t *testing.T) {
	ts, _ := newPlannedServer(t, 1)
	call(t, ts, "PUT", "/docs/d", []byte("<r><a><b/><b/></a></r>"), nil)
	for _, path := range []string{"/count?path=a//b&explain=1", "/docs/d/count?path=a//b&explain=1"} {
		var c CountResponse
		if st := call(t, ts, "GET", path, nil, &c); st != http.StatusOK {
			t.Fatalf("%s: %d", path, st)
		}
		if c.Count != 2 || len(c.Plans) != 1 || c.Plans[0].Algo == "" || len(c.Plans[0].Ops) == 0 {
			t.Fatalf("%s = %+v", path, c)
		}
	}
	// A repeated count is served from the result cache and says so.
	var c CountResponse
	call(t, ts, "GET", "/count?path=a//b&explain=1", nil, &c)
	if len(c.Plans) != 1 || !c.Plans[0].Cached {
		t.Fatalf("repeated count not cached: %+v", c.Plans)
	}
	c = CountResponse{}
	call(t, ts, "GET", "/count?path=a//b", nil, &c)
	if c.Count != 2 || len(c.Plans) != 0 {
		t.Fatalf("plans leaked without explain: %+v", c)
	}
}

// randomTree writes a random element tree over the tags a, b and c.
func randomTree(rng *rand.Rand, sb *strings.Builder, depth int) {
	tag := string(rune('a' + rng.Intn(3)))
	sb.WriteString("<" + tag + ">")
	if depth > 0 {
		for i := rng.Intn(4); i > 0; i-- {
			randomTree(rng, sb, depth-1)
		}
	}
	sb.WriteString("</" + tag + ">")
}

// TestCountEqualsStreamRows: for the cost model's pick and every forced
// algorithm, on whole-collection and document-scoped paths over seeded
// random multi-segment documents, /count is the number of rows
// /query?stream=1 delivers.
func TestCountEqualsStreamRows(t *testing.T) {
	algos := []string{"auto", "lazy", "parallel", "std", "skip", "twig"}
	paths := []string{"a", "a//b", "a/b", "b//c", "a//b//c", "r//a/c", "c//a"}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ts, _ := newPlannedServer(t, 2)
		var docs []string
		for d := 0; d < 4; d++ {
			name := fmt.Sprintf("d%d", d)
			docs = append(docs, name)
			var sb strings.Builder
			sb.WriteString("<r>")
			randomTree(rng, &sb, 4)
			sb.WriteString("</r>")
			if st := call(t, ts, "PUT", "/docs/"+name, []byte(sb.String()), nil); st != http.StatusCreated {
				t.Fatalf("put %s: %d", name, st)
			}
			// Inserts right after "<r>" give every document several
			// segments, so Lazy-Join has segments to skip.
			for i := rng.Intn(3) + 1; i > 0; i-- {
				var frag strings.Builder
				randomTree(rng, &frag, 3)
				if st := call(t, ts, "POST", "/docs/"+name+"/insert?off=3", []byte(frag.String()), nil); st != http.StatusCreated {
					t.Fatalf("insert %s: %d", name, st)
				}
			}
		}
		scopes := []string{""}
		for _, d := range docs {
			scopes = append(scopes, "/docs/"+d)
		}
		for _, algo := range algos {
			for _, path := range paths {
				for _, scope := range scopes {
					q := "?path=" + path + "&algo=" + algo
					var c CountResponse
					if st := call(t, ts, "GET", scope+"/count"+q, nil, &c); st != http.StatusOK {
						t.Fatalf("seed %d %s/count%s: %d", seed, scope, q, st)
					}
					lines := ndjsonLines(t, getStream(t, ts, scope+"/query"+q+"&stream=1"))
					tail := lines[len(lines)-1]
					if rows := len(lines) - 2; tail["done"] != true || c.Count != rows {
						t.Fatalf("seed %d %s%s: count %d, stream %d rows (trailer %v)", seed, scope, q, c.Count, rows, tail)
					}
				}
			}
		}
	}
}
