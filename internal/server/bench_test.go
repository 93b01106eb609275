package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	lazyxml "repro"
	"repro/internal/xmlgen"
)

// benchServer is an httptest server over an in-memory 2-shard store of
// 32 XMark documents of the given size, with the planner on and an
// 8 MiB result cache — the benchmark harness's system minus the
// journal.
func benchServer(b *testing.B, persons, items int) (*httptest.Server, []string, *lazyxml.QueryPlanner) {
	b.Helper()
	c := lazyxml.NewShardedCollection(2, lazyxml.LD)
	qp := lazyxml.NewQueryPlanner(8 << 20)
	c.EnablePlanner(qp)
	names := make([]string, 32)
	for i := range names {
		names[i] = fmt.Sprintf("doc-%02d", i)
		text := xmlgen.XMark(xmlgen.XMarkConfig{Seed: int64(i + 1), Persons: persons, Items: items})
		if err := c.Put(names[i], text); err != nil {
			b.Fatal(err)
		}
	}
	ts := httptest.NewServer(New(c, Config{}).Handler())
	b.Cleanup(ts.Close)
	return ts, names, qp
}

// get reads one response to its end and returns its size.
func get(b *testing.B, ts *httptest.Server, path string) int64 {
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		b.Fatalf("GET %s: status %d, %v", path, resp.StatusCode, err)
	}
	return n
}

// benchScan times one streamed request per iteration and reports the
// body size and the rows delivered per second: the row lines of one
// response, all but its header and trailer, counted on a first request
// outside the timer.
func benchScan(b *testing.B, ts *httptest.Server, path string) {
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		b.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		b.Fatalf("GET %s: status %d, %v", path, resp.StatusCode, err)
	}
	rows := bytes.Count(body, []byte{'\n'}) - 2
	b.ReportAllocs()
	b.ResetTimer()
	var n int64
	for i := 0; i < b.N; i++ {
		n = get(b, ts, path)
	}
	b.ReportMetric(float64(n), "body-bytes")
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkServerScan times one streamed whole-store scan,
// GET /query?stream=1&path=//person//phone, over the scan-stream store
// (500 persons, 200 items per document): ~32k NDJSON rows through the
// join, the shard merge, the row encoder and the loopback socket. Each
// shard's result is above the cache's admission cap, so every scan is a
// miss whose cache tee gives up part-way, as in the scan-stream workload.
func BenchmarkServerScan(b *testing.B) {
	ts, _, _ := benchServer(b, 500, 200)
	benchScan(b, ts, "/query?stream=1&path=//person//phone")
}

// BenchmarkServerScanLimit is the limit=100 twin of BenchmarkServerScan,
// the scan-stream workload's secondary class: each shard's producer stops
// at the limit, so the request costs the first page, not the scan.
func BenchmarkServerScanLimit(b *testing.B) {
	ts, _, _ := benchServer(b, 500, 200)
	benchScan(b, ts, "/query?stream=1&limit=100&path=//person//phone")
}

// BenchmarkServerQuery times one buffered document-scoped query over the
// mixed-readwrite store (250 persons, 100 items per document), cycling
// through its eight paths and the documents, with the result cache
// bypassed so every request joins and renders.
func BenchmarkServerQuery(b *testing.B) {
	ts, names, _ := benchServer(b, 250, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		get(b, ts, "/docs/"+names[i%len(names)]+"/query?nocache=1&path="+benchPaths[i%len(benchPaths)])
	}
}

// benchPaths are the mixed-readwrite workload's eight query paths.
var benchPaths = []string{
	"person//phone", "profile//interest", "watches//watch", "person//watch",
	"person//interest", "item//incategory", "person/name", "people//person//phone",
}

// BenchmarkServerQueryCached is BenchmarkServerQuery with the result
// cache on, over eight of the documents, and every (document, path)
// result admitted before the timer starts, so each request is a buffered cache hit: lookup, the cached
// rows served as batches, the row encoder and the socket — the path
// behind query-zipf's cache hits.
func BenchmarkServerQueryCached(b *testing.B) {
	ts, names, qp := benchServer(b, 250, 100)
	// Eight documents' results fit the 8 MiB cache; all 32 would not.
	names = names[:8]
	target := func(i int) string {
		return "/docs/" + names[i%len(names)] + "/query?path=" + benchPaths[(i/len(names))%len(benchPaths)]
	}
	keys := len(names) * len(benchPaths)
	for i := 0; i < keys; i++ {
		get(b, ts, target(i))
	}
	hits := qp.Stats().Cache.Hits
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		get(b, ts, target(i%keys))
	}
	b.StopTimer()
	if got := qp.Stats().Cache.Hits - hits; got != int64(b.N) {
		b.Fatalf("%d of %d requests hit the cache", got, b.N)
	}
}
