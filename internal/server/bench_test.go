package server

import (
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
func benchServer(b *testing.B, persons, items int) (*httptest.Server, []string) {
	b.Helper()
	c := lazyxml.NewShardedCollection(2, lazyxml.LD)
	c.EnablePlanner(lazyxml.NewQueryPlanner(8 << 20))
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
	return ts, names
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

// BenchmarkServerScan times one streamed whole-store scan,
// GET /query?stream=1&path=//person//phone, over the scan-stream store
// (500 persons, 200 items per document): ~32k NDJSON rows through the
// join, the shard merge, the row encoder and the loopback socket.
func BenchmarkServerScan(b *testing.B) {
	ts, _ := benchServer(b, 500, 200)
	b.ReportAllocs()
	b.ResetTimer()
	var bytes int64
	for i := 0; i < b.N; i++ {
		bytes = get(b, ts, "/query?stream=1&path=//person//phone")
	}
	b.ReportMetric(float64(bytes), "body-bytes")
}

// BenchmarkServerQuery times one buffered document-scoped query over the
// mixed-readwrite store (250 persons, 100 items per document), cycling
// through its eight paths and the documents, with the result cache
// bypassed so every request joins and renders.
func BenchmarkServerQuery(b *testing.B) {
	ts, names := benchServer(b, 250, 100)
	paths := []string{
		"person//phone", "profile//interest", "watches//watch", "person//watch",
		"person//interest", "item//incategory", "person/name", "people//person//phone",
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		get(b, ts, "/docs/"+names[i%len(names)]+"/query?nocache=1&path="+paths[i%len(paths)])
	}
}
