package server

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	lazyxml "repro"
)

// ndjsonLines reads an ?stream=1 response into decoded lines: the
// header object, then one object per row, then the trailer.
func ndjsonLines(t *testing.T, resp *http.Response) []map[string]any {
	t.Helper()
	defer resp.Body.Close()
	var lines []map[string]any
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %d: decoding %q: %v", len(lines), sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	return lines
}

func getStream(t *testing.T, ts *httptest.Server, path string) *http.Response {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestServerStreamNDJSON(t *testing.T) {
	ts := newTestServer(t)
	call(t, ts, "PUT", "/docs/d", []byte("<d><x/><x/><x/></d>"), nil)

	resp := getStream(t, ts, "/query?path=x&stream=1&algo=lazy&explain=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	lines := ndjsonLines(t, resp)
	if len(lines) != 5 { // header + 3 rows + trailer
		t.Fatalf("lines = %d: %v", len(lines), lines)
	}
	head := lines[0]
	if head["stream"] != true {
		t.Fatalf("header = %v", head)
	}
	plans, ok := head["plans"].([]any)
	if !ok || len(plans) != 1 {
		t.Fatalf("header plans = %v", head["plans"])
	}
	for i, row := range lines[1:4] {
		if _, ok := row["descStart"]; !ok {
			t.Fatalf("row %d is not a match: %v", i, row)
		}
	}
	tail := lines[4]
	if tail["done"] != true || tail["count"] != float64(3) || tail["truncated"] != false {
		t.Fatalf("trailer = %v", tail)
	}

	// Without explain, no plans in the header.
	resp = getStream(t, ts, "/query?path=x&stream=1")
	lines = ndjsonLines(t, resp)
	if _, ok := lines[0]["plans"]; ok {
		t.Fatalf("plans leaked without explain: %v", lines[0])
	}

	// Malformed stream parameter fails fast with 400 JSON, not a stream.
	var e struct {
		Error  string `json:"error"`
		Status int    `json:"status"`
	}
	if st := call(t, ts, "GET", "/query?path=x&stream=2", nil, &e); st != http.StatusBadRequest || e.Error == "" {
		t.Fatalf("stream=2: %d %+v", st, e)
	}
}

func TestServerStreamLimitSemantics(t *testing.T) {
	// MaxMatches caps the buffered response but NOT a stream: streaming
	// exists to deliver unbounded results, so only an explicit ?limit=
	// truncates it.
	s := New(lazyxml.NewCollection(lazyxml.LD), Config{MaxMatches: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	call(t, ts, "PUT", "/docs/d", []byte("<d><x/><x/><x/><x/></d>"), nil)

	var q QueryResponse
	if st := call(t, ts, "GET", "/query?path=x", nil, &q); st != http.StatusOK {
		t.Fatal("query")
	}
	if q.Count != 2 || !q.Truncated {
		t.Fatalf("buffered default cap: %+v", q)
	}

	lines := ndjsonLines(t, getStream(t, ts, "/query?path=x&stream=1"))
	tail := lines[len(lines)-1]
	if len(lines) != 6 || tail["count"] != float64(4) || tail["truncated"] != false {
		t.Fatalf("uncapped stream: %d lines, trailer %v", len(lines), tail)
	}

	lines = ndjsonLines(t, getStream(t, ts, "/query?path=x&stream=1&limit=3"))
	tail = lines[len(lines)-1]
	if len(lines) != 5 || tail["done"] != true || tail["count"] != float64(3) || tail["truncated"] != true {
		t.Fatalf("explicitly limited stream: %d lines, trailer %v", len(lines), tail)
	}
}

func TestServerQueryBudget(t *testing.T) {
	// A budget two matches wide: the a//b//c frontier (one entry per
	// matched b) blows through it on both response shapes.
	s := New(lazyxml.NewCollection(lazyxml.LD), Config{QueryBudget: 192})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	doc := "<r><a>" + strings.Repeat("<b><c/></b>", 8) + "</a></r>"
	call(t, ts, "PUT", "/docs/d", []byte(doc), nil)

	// Buffered: the whole request fails with 507 Insufficient Storage.
	var e struct {
		Error  string `json:"error"`
		Status int    `json:"status"`
	}
	if st := call(t, ts, "GET", "/query?path=a//b//c", nil, &e); st != http.StatusInsufficientStorage {
		t.Fatalf("buffered budget kill: %d %+v", st, e)
	}
	if !strings.Contains(e.Error, "budget") || e.Status != http.StatusInsufficientStorage {
		t.Fatalf("unstructured budget error: %+v", e)
	}

	// Streaming: the status line is already out, so the kill arrives as
	// a structured error trailer.
	resp := getStream(t, ts, "/query?path=a//b//c&stream=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d", resp.StatusCode)
	}
	lines := ndjsonLines(t, resp)
	tail := lines[len(lines)-1]
	if tail["status"] != float64(http.StatusInsufficientStorage) || tail["error"] == nil {
		t.Fatalf("stream budget trailer = %v", tail)
	}

	// A query whose buffered state fits the budget still succeeds.
	var q QueryResponse
	if st := call(t, ts, "GET", "/query?path=a//b", nil, &q); st != http.StatusOK || q.Count != 8 {
		t.Fatalf("within-budget query: %d %+v", st, q)
	}

	// Both kills are counted.
	var met MetricsSnapshot
	call(t, ts, "GET", "/metrics", nil, &met)
	if met.Streams.BudgetKills != 2 {
		t.Fatalf("budgetKills = %d, want 2", met.Streams.BudgetKills)
	}
	var stats StatsResponse
	call(t, ts, "GET", "/stats", nil, &stats)
	if stats.Streams.BudgetKills != 2 {
		t.Fatalf("stats budgetKills = %d", stats.Streams.BudgetKills)
	}
}

// serverLiveViews sums the backend's live MVCC view handles.
func serverLiveViews(b *lazyxml.ShardedCollection) int {
	total := 0
	for _, st := range b.ViewStats() {
		total += st.Views.Live
	}
	return total
}

func TestServerStreamSoakCancelReleasesViews(t *testing.T) {
	// The satellite soak: many concurrent streams, half cancelled
	// mid-flight, and afterwards the backend's live-view gauge is back at
	// its baseline — no cancelled stream leaked its snapshot pin.
	backend := lazyxml.NewCollection(lazyxml.LD)
	s := New(backend, Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	const rows = 20000
	doc := "<d>" + strings.Repeat("<x/>", rows) + "</d>"
	call(t, ts, "PUT", "/docs/d", []byte(doc), nil)

	const streams = 16
	var wg sync.WaitGroup
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/query?path=x&stream=1", nil)
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 1<<20), 1<<20)
			if i%2 == 0 {
				// Cancel after the first row: the server is still deep in
				// the result and must tear the stream down early.
				for n := 0; n < 2 && sc.Scan(); n++ {
				}
				cancel()
				return
			}
			var count float64
			for sc.Scan() {
				var m map[string]any
				if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
					t.Errorf("stream %d: %v", i, err)
					return
				}
				if done, ok := m["done"]; ok && done == true {
					count = m["count"].(float64)
				}
			}
			if count != rows {
				t.Errorf("stream %d drained %v rows, want %d", i, count, rows)
			}
		}(i)
	}
	wg.Wait()

	// The cancelled handlers notice asynchronously; wait for the gauge.
	deadline := time.Now().Add(10 * time.Second)
	for s.Metrics().Streams.Inflight != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("streams still in flight: %+v", s.Metrics().Streams)
		}
		time.Sleep(5 * time.Millisecond)
	}

	met := s.Metrics().Streams
	if met.Opened != streams {
		t.Fatalf("opened = %d, want %d", met.Opened, streams)
	}
	if met.StreamedRows < rows*streams/2 {
		t.Fatalf("streamedRows = %d, want >= %d", met.StreamedRows, rows*streams/2)
	}
	if met.StreamedBytes == 0 {
		t.Fatal("streamedBytes not counted")
	}
	if met.Cancels == 0 {
		t.Fatalf("no cancellations recorded: %+v", met)
	}

	// Rotate the published view (a write retires it at the next
	// acquisition) and check nothing old stays pinned.
	if _, err := backend.Insert("d", len("<d>"), []byte("<zz/>")); err != nil {
		t.Fatal(err)
	}
	cv, err := backend.ViewAll()
	if err != nil {
		t.Fatal(err)
	}
	cv.Release()
	if n := serverLiveViews(backend); n > backend.ShardCount() {
		t.Fatalf("%d live views after soak (want <= %d): a stream leaked its pin", n, backend.ShardCount())
	}
}
