package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	lazyxml "repro"
)

// TestServerCrashRecovery drives a journaled server, hard-kills the
// store mid-stream (no Close, no Compact, plus a torn record in the
// WAL's tail), and reopens the journal directory: the collection must
// come back with every acknowledged update applied and the consistency
// audit passing.
func TestServerCrashRecovery(t *testing.T) {
	dir := t.TempDir()

	jc, err := lazyxml.OpenShardedCollection(dir, 1, lazyxml.LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(jc, Config{}).Handler())

	if st := call(t, ts, "PUT", "/docs/events", []byte("<events></events>"), nil); st != http.StatusCreated {
		t.Fatalf("put: %d", st)
	}
	const acked = 12
	for i := 0; i < acked; i++ {
		frag := fmt.Sprintf("<e n=\"%d\"/>", i)
		// "<events>" is 8 bytes.
		if st := call(t, ts, "POST", "/docs/events/insert?off=8", []byte(frag), nil); st != http.StatusCreated {
			t.Fatalf("insert %d: %d", i, st)
		}
	}
	// Compact part-way through so recovery exercises snapshot + WAL
	// replay together, then keep writing.
	if st := call(t, ts, "POST", "/compact", nil, nil); st != http.StatusOK {
		t.Fatal("compact")
	}
	for i := acked; i < 2*acked; i++ {
		frag := fmt.Sprintf("<e n=\"%d\"/>", i)
		if st := call(t, ts, "POST", "/docs/events/insert?off=8", []byte(frag), nil); st != http.StatusCreated {
			t.Fatalf("insert %d: %d", i, st)
		}
	}
	if st := call(t, ts, "PUT", "/docs/extra", []byte("<extra/>"), nil); st != http.StatusCreated {
		t.Fatal("put extra")
	}

	// Hard kill: stop serving, abandon the store without Close, and tear
	// the journal's tail as a crash mid-write would.
	ts.Close()
	w, err := os.OpenFile(filepath.Join(dir, "journal.wal"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	w.Write([]byte{1, 0x80}) // opInsert with a truncated varint
	w.Close()

	// Restart from disk.
	jc2, err := lazyxml.OpenShardedCollection(dir, 1, lazyxml.LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer jc2.Close()
	ts2 := httptest.NewServer(New(jc2, Config{}).Handler())
	defer ts2.Close()

	var list struct {
		Docs  []string `json:"docs"`
		Count int      `json:"count"`
	}
	if st := call(t, ts2, "GET", "/docs", nil, &list); st != http.StatusOK || list.Count != 2 {
		t.Fatalf("docs after recovery = %+v (%d)", list, st)
	}
	var cnt struct {
		Count int `json:"count"`
	}
	if st := call(t, ts2, "GET", "/docs/events/count?path=events//e", nil, &cnt); st != http.StatusOK {
		t.Fatal("count after recovery")
	}
	if cnt.Count != 2*acked {
		t.Fatalf("acknowledged inserts after recovery = %d, want %d", cnt.Count, 2*acked)
	}
	if st := call(t, ts2, "POST", "/check", nil, nil); st != http.StatusOK {
		t.Fatal("consistency check after recovery")
	}
	var stats StatsResponse
	if st := call(t, ts2, "GET", "/stats", nil, &stats); st != http.StatusOK || !stats.Durable {
		t.Fatalf("stats after recovery = %+v", stats)
	}

	// The revived server keeps serving updates durably.
	if st := call(t, ts2, "POST", "/docs/events/insert?off=8", []byte("<e n=\"post\"/>"), nil); st != http.StatusCreated {
		t.Fatal("insert after recovery")
	}
	if st := call(t, ts2, "POST", "/compact", nil, nil); st != http.StatusOK {
		t.Fatal("compact after recovery")
	}
}

// TestServerDurableRebuild exercises POST /rebuild over a journaled
// backend: the collapse must survive a restart because CollapseAll
// compacts behind it.
func TestServerDurableRebuild(t *testing.T) {
	dir := t.TempDir()
	jc, err := lazyxml.OpenShardedCollection(dir, 1, lazyxml.LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(jc, Config{}).Handler())

	call(t, ts, "PUT", "/docs/d", []byte("<d></d>"), nil)
	for i := 0; i < 6; i++ {
		if st := call(t, ts, "POST", "/docs/d/insert?off=3", []byte("<x/>"), nil); st != http.StatusCreated {
			t.Fatalf("insert %d", i)
		}
	}
	var rb struct {
		Segments int `json:"segments"`
	}
	if st := call(t, ts, "POST", "/rebuild", nil, &rb); st != http.StatusOK || rb.Segments != 1 {
		t.Fatalf("rebuild: %d %+v", st, rb)
	}
	// Hard kill and reopen: the collapsed shape must be what comes back.
	ts.Close()
	jc2, err := lazyxml.OpenShardedCollection(dir, 1, lazyxml.LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer jc2.Close()
	if st := jc2.Stats(); st.Segments != 1 {
		t.Fatalf("segments after reopen = %d", st.Segments)
	}
	if n, err := jc2.CountDoc("d", "d//x"); err != nil || n != 6 {
		t.Fatalf("count after reopen = %d, %v", n, err)
	}
	if err := jc2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
