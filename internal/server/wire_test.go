package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	lazyxml "repro"
	"repro/internal/segment"
)

// matchJSON is the oracle of appendMatch: the schema value whose
// encoding/json rendering every row must equal byte for byte.
func matchJSON(m lazyxml.Match) MatchJSON {
	return MatchJSON{
		AncStart: m.AncStart, AncEnd: m.AncEnd,
		DescStart: m.DescStart, DescEnd: m.DescEnd,
		Anc:  ElemJSON{SID: int(m.Anc.SID), Start: m.Anc.Start, End: m.Anc.End, Level: m.Anc.Level},
		Desc: ElemJSON{SID: int(m.Desc.SID), Start: m.Desc.Start, End: m.Desc.End, Level: m.Desc.Level},
	}
}

// encodeLine renders v the way the server's json.Encoder lines do.
func encodeLine(t testing.TB, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func matchOf(v [12]int) lazyxml.Match {
	return lazyxml.Match{
		AncStart: v[0], AncEnd: v[1], DescStart: v[2], DescEnd: v[3],
		Anc:  lazyxml.ElemRef{SID: segment.SID(v[4]), Start: v[5], End: v[6], Level: v[7]},
		Desc: lazyxml.ElemRef{SID: segment.SID(v[8]), Start: v[9], End: v[10], Level: v[11]},
	}
}

// checkAppendMatch holds one match's row to the oracle: appendMatch plus
// a newline is the json.Encoder line of matchJSON, it is valid JSON, and
// it decodes back into the same MatchJSON.
func checkAppendMatch(t testing.TB, m lazyxml.Match) {
	t.Helper()
	got := append(appendMatch(nil, &m), '\n')
	want := encodeLine(t, matchJSON(m))
	if !bytes.Equal(got, want) {
		t.Fatalf("appendMatch(%+v)\n got %s\nwant %s", m, got, want)
	}
	if !json.Valid(got) {
		t.Fatalf("appendMatch(%+v) is not valid JSON: %s", m, got)
	}
	var back MatchJSON
	if err := json.Unmarshal(got, &back); err != nil || back != matchJSON(m) {
		t.Fatalf("appendMatch(%+v) decodes to %+v (%v)", m, back, err)
	}
}

// TestAppendMatchIsEncodingJSON: for random matches whose fields mix 0,
// small values, values around and above 2³¹, the int64 extremes and
// negatives, the hand-written row is the reflective one.
func TestAppendMatchIsEncodingJSON(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	pick := func() int {
		switch r.Intn(8) {
		case 0:
			return 0
		case 1:
			return r.Intn(1000)
		case 2:
			return math.MaxInt32 + r.Intn(3) - 1
		case 3:
			return 1<<31 + r.Intn(1<<30)
		case 4:
			return int(r.Int63())
		case 5:
			return math.MaxInt64
		case 6:
			return math.MinInt64
		default:
			return -r.Intn(1 << 20)
		}
	}
	checkAppendMatch(t, lazyxml.Match{})
	for i := 0; i < 5000; i++ {
		var v [12]int
		for k := range v {
			v[k] = pick()
		}
		checkAppendMatch(t, matchOf(v))
	}
}

// FuzzAppendMatch: whatever the twelve integers, appendMatch renders
// what encoding/json renders, valid JSON that decodes back to the same
// MatchJSON.
func FuzzAppendMatch(f *testing.F) {
	f.Add(int64(0), int64(0), int64(0), int64(0), int64(0), int64(0), int64(0), int64(0), int64(0), int64(0), int64(0), int64(0))
	f.Add(int64(9), int64(40), int64(12), int64(20), int64(1), int64(9), int64(40), int64(1), int64(3), int64(0), int64(8), int64(2))
	f.Add(int64(1<<31), int64(math.MaxInt64), int64(-1), int64(math.MinInt64), int64(1<<40), int64(7), int64(1<<32+1), int64(3), int64(2), int64(-1<<33), int64(5), int64(0))
	f.Fuzz(func(t *testing.T, a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11 int64) {
		checkAppendMatch(t, matchOf([12]int{int(a0), int(a1), int(a2), int(a3), int(a4), int(a5), int(a6), int(a7), int(a8), int(a9), int(a10), int(a11)}))
	})
}

// wireStore is a 2-shard in-memory store with one document per shard, so
// a whole-store query returns rows from both: the shard-0 document holds
// n0 <x> elements under its root and the shard-1 document n1.
func wireStore(t *testing.T, n0, n1 int) *lazyxml.ShardedCollection {
	t.Helper()
	c := lazyxml.NewShardedCollection(2, lazyxml.LD)
	for shard, n := range []int{n0, n1} {
		name := docOnShard(c, shard)
		text := "<r>" + strings.Repeat("<x><y/></x>", n) + "</r>"
		if err := c.Put(name, []byte(text)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// docOnShard returns a document name that hashes to the shard.
func docOnShard(c *lazyxml.ShardedCollection, shard int) string {
	for i := 0; ; i++ {
		if name := fmt.Sprintf("d%d", i); c.ShardOf(name) == shard {
			return name
		}
	}
}

// queryBody is GET path's status and body bytes.
func queryBody(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// wantBuffered is the buffered body writeJSON made of the QueryResponse
// for path on c: its first limit matches (all when limit <= 0), and the
// plans when explain is set.
func wantBuffered(t *testing.T, c *lazyxml.ShardedCollection, path string, limit int, truncated, explain bool) []byte {
	t.Helper()
	rs, err := c.QueryStream(path, lazyxml.StreamOpt{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	resp := QueryResponse{Matches: []MatchJSON{}, Truncated: truncated}
	for limit <= 0 || len(resp.Matches) < limit {
		m, err := rs.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		resp.Matches = append(resp.Matches, matchJSON(m))
	}
	resp.Count = len(resp.Matches)
	if explain {
		resp.Plans = rs.Plans()
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, resp)
	return rec.Body.Bytes()
}

// TestBufferedBodyIsWriteJSON: the buffered /query body, rendered into a
// pooled buffer, is byte for byte what writeJSON made of the
// QueryResponse — for an empty result, a full one, a truncated one and
// one under ?explain=1.
func TestBufferedBodyIsWriteJSON(t *testing.T) {
	c := wireStore(t, 40, 70)
	ts := httptest.NewServer(New(c, Config{MaxMatches: 100}).Handler())
	t.Cleanup(ts.Close)

	for _, tc := range []struct {
		name, query, path string
		limit             int
		truncated         bool
		explain           bool
	}{
		{"empty", "/query?path=r//nothing", "r//nothing", 0, false, false},
		{"full", "/query?path=r//y&limit=500", "r//y", 0, false, false},
		{"truncated", "/query?path=r//y&limit=30", "r//y", 30, true, false},
		{"default cap", "/query?path=x//y", "x//y", 100, true, false},
		{"explain", "/query?path=r//x&explain=1&nocache=1&limit=45", "r//x", 45, true, true},
	} {
		st, got := queryBody(t, ts, tc.query)
		if st != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.name, st, got)
		}
		if want := wantBuffered(t, c, tc.path, tc.limit, tc.truncated, tc.explain); !bytes.Equal(got, want) {
			t.Fatalf("%s: body differs from writeJSON\n got %.300s\nwant %.300s", tc.name, got, want)
		}
	}
	// The empty body keeps its empty array.
	if _, got := queryBody(t, ts, "/query?path=r//nothing"); !bytes.Contains(got, []byte(`"matches":[]`)) {
		t.Fatalf("empty result: %s", got)
	}
}

// streamLines splits an NDJSON body into its lines (newline kept).
func streamLines(t *testing.T, body []byte) [][]byte {
	t.Helper()
	var lines [][]byte
	rd := bufio.NewReader(bytes.NewReader(body))
	for {
		line, err := rd.ReadBytes('\n')
		if len(line) > 0 {
			lines = append(lines, line)
		}
		if err == io.EOF {
			return lines
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestStreamRowsAreTheOracle: a limit=300 stream — not a multiple of
// the 256-row window — is the header, exactly 300 row lines equal to the
// json.Encoder lines of the first 300 matches, then the truncated
// trailer.
func TestStreamRowsAreTheOracle(t *testing.T) {
	c := wireStore(t, 200, 250)
	ts := httptest.NewServer(New(c, Config{}).Handler())
	t.Cleanup(ts.Close)

	st, body := queryBody(t, ts, "/query?path=r//y&stream=1&limit=300")
	if st != http.StatusOK {
		t.Fatalf("status %d", st)
	}
	lines := streamLines(t, body)
	if len(lines) != 302 {
		t.Fatalf("%d lines, want header + 300 rows + trailer", len(lines))
	}
	if want := encodeLine(t, map[string]any{"stream": true}); !bytes.Equal(lines[0], want) {
		t.Fatalf("header %s, want %s", lines[0], want)
	}
	rs, err := c.QueryStream("r//y", lazyxml.StreamOpt{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	for i, line := range lines[1:301] {
		m, err := rs.Next()
		if err != nil {
			t.Fatal(err)
		}
		if want := encodeLine(t, matchJSON(m)); !bytes.Equal(line, want) {
			t.Fatalf("row %d: %s, want %s", i, line, want)
		}
	}
	want := encodeLine(t, map[string]any{"done": true, "count": 300, "truncated": true})
	if !bytes.Equal(lines[301], want) {
		t.Fatalf("trailer %s, want %s", lines[301], want)
	}
}

// TestStreamBudgetKillMidWindow: the shard-0 document's rows stream
// (600 of them: two full windows and 88 pending), then the shard-1
// document's frontier overflows the budget. Every pending row is written
// before the error trailer, whose count equals the row lines delivered.
// Both shards' producers start together and share the budget, so a run
// in which shard 1 overflows first kills shard 0 too, before any row;
// the invariant is checked on every run, and some run must deliver
// rows.
func TestStreamBudgetKillMidWindow(t *testing.T) {
	c := lazyxml.NewShardedCollection(2, lazyxml.LD)
	small := "<r><x><y>" + strings.Repeat("<z/>", 600) + "</y></x></r>"
	big := "<r><x>" + strings.Repeat("<y><z/></y>", 5000) + "</x></r>"
	for shard, text := range []string{small, big} {
		if err := c.Put(docOnShard(c, shard), []byte(text)); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(New(c, Config{QueryBudget: 64 << 10}).Handler())
	t.Cleanup(ts.Close)

	for try := 0; try < 50; try++ {
		_, body := queryBody(t, ts, "/query?path=x//y//z&stream=1&algo=lazy")
		lines := streamLines(t, body)
		var tail struct {
			Error  string `json:"error"`
			Status int    `json:"status"`
			Count  int    `json:"count"`
		}
		if err := json.Unmarshal(lines[len(lines)-1], &tail); err != nil {
			t.Fatal(err)
		}
		rows := len(lines) - 2
		if tail.Status != http.StatusInsufficientStorage || !strings.Contains(tail.Error, "budget") {
			t.Fatalf("trailer %s, want a budget kill", lines[len(lines)-1])
		}
		if tail.Count != rows {
			t.Fatalf("trailer count %d, but %d row lines were delivered", tail.Count, rows)
		}
		if rows > 0 {
			if rows != 600 {
				t.Fatalf("%d rows before the kill, want shard 0's 600", rows)
			}
			return
		}
	}
	t.Fatal("no run delivered shard 0's rows before the kill")
}

// TestStreamCacheHitSameBytes: a stream served from the result cache is
// the same bytes as the miss that admitted it.
func TestStreamCacheHitSameBytes(t *testing.T) {
	c := wireStore(t, 150, 180)
	qp := lazyxml.NewQueryPlanner(8 << 20)
	c.EnablePlanner(qp)
	ts := httptest.NewServer(New(c, Config{}).Handler())
	t.Cleanup(ts.Close)

	_, miss := queryBody(t, ts, "/query?path=r//y&stream=1")
	if puts := qp.Stats().Cache.Puts; puts != 2 {
		t.Fatalf("the miss admitted %d shard results, want 2", puts)
	}
	_, hit := queryBody(t, ts, "/query?path=r//y&stream=1")
	if hits := qp.Stats().Cache.Hits; hits != 2 {
		t.Fatalf("the repeat hit %d shard results, want 2", hits)
	}
	if !bytes.Equal(hit, miss) {
		t.Fatalf("cache hit streamed different bytes:\n hit %.300s\nmiss %.300s", hit, miss)
	}
	if n := len(streamLines(t, hit)); n != 2+330 {
		t.Fatalf("%d lines, want header + 330 rows + trailer", n)
	}
}

// TestConcurrentCacheHitsSameBytes: eight streams served at once from
// the same cached results share its batches, read-only; every one of
// them is the bytes of the miss that admitted them. Run under -race it
// also checks that no reader writes the shared rows.
func TestConcurrentCacheHitsSameBytes(t *testing.T) {
	c := wireStore(t, 300, 420)
	qp := lazyxml.NewQueryPlanner(8 << 20)
	c.EnablePlanner(qp)
	ts := httptest.NewServer(New(c, Config{}).Handler())
	t.Cleanup(ts.Close)

	const path = "/query?path=r//y&stream=1"
	_, miss := queryBody(t, ts, path)
	if puts := qp.Stats().Cache.Puts; puts != 2 {
		t.Fatalf("the miss admitted %d shard results, want 2", puts)
	}
	const readers = 8
	bodies := make([][]byte, readers)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := ts.Client().Get(ts.URL + path)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			bodies[i], err = io.ReadAll(resp.Body)
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if hits := qp.Stats().Cache.Hits; hits != 2*readers {
		t.Fatalf("%d shard hits, want %d", hits, 2*readers)
	}
	for i, body := range bodies {
		if !bytes.Equal(body, miss) {
			t.Fatalf("reader %d streamed different bytes:\n got %.300s\nmiss %.300s", i, body, miss)
		}
	}
}
