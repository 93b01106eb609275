package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildDaemon compiles lazyxmld once per test into a temp dir.
func buildDaemon(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not in PATH")
	}
	bin := filepath.Join(t.TempDir(), "lazyxmld")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building daemon: %v\n%s", err, out)
	}
	return bin
}

// freeAddr reserves a loopback port and releases it for the daemon.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func waitHealthy(t *testing.T, cmd *exec.Cmd, base string) {
	t.Helper()
	for i := 0; i < 200; i++ {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	cmd.Process.Kill()
	t.Fatal("daemon did not become healthy")
}

func httpDo(t *testing.T, method, url string, body string) (int, string) {
	t.Helper()
	var rdr io.Reader
	if body != "" {
		rdr = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rdr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// followerStats is the slice of the follower's /stats the test reads.
type followerStats struct {
	Docs   int `json:"docs"`
	Shards []struct {
		Shard          int   `json:"shard"`
		JournalRecords int64 `json:"journalRecords"`
		JournalBytes   int64 `json:"journalBytes"`
		Seq            int64 `json:"seq"`
	} `json:"shards"`
	Replication *struct {
		Primary   string `json:"primary"`
		Connected bool   `json:"connected"`
		Lag       int64  `json:"lag"`
		Shards    []struct {
			AppliedSeq int64 `json:"appliedSeq"`
			PrimarySeq int64 `json:"primarySeq"`
		} `json:"shards"`
	} `json:"replication"`
}

func getStats(t *testing.T, base string) followerStats {
	t.Helper()
	status, body := httpDo(t, "GET", base+"/stats", "")
	if status != http.StatusOK {
		t.Fatalf("GET /stats: %d %s", status, body)
	}
	var st followerStats
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("parsing /stats: %v\n%s", err, body)
	}
	return st
}

// TestFollowerCrashRestartResumes is the satellite crash test: a primary
// and a follower run as real subprocesses, the follower is SIGKILLed
// mid-stream, the primary keeps writing, and a restarted follower must
// resume from its durable sequence and converge to a consistent,
// query-identical store — with lag exported via /stats.
func TestFollowerCrashRestartResumes(t *testing.T) {
	bin := buildDaemon(t)
	pdir, fdir := t.TempDir(), t.TempDir()
	paddr, faddr, raddr := freeAddr(t), freeAddr(t), freeAddr(t)
	pbase, fbase := "http://"+paddr, "http://"+faddr

	primary := exec.Command(bin, "-addr", paddr, "-journal", pdir, "-shards", "2", "-repl", raddr)
	primary.Stderr = os.Stderr
	if err := primary.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		primary.Process.Signal(syscall.SIGTERM)
		primary.Wait()
	}()
	waitHealthy(t, primary, pbase)

	startFollower := func() *exec.Cmd {
		cmd := exec.Command(bin, "-addr", faddr, "-journal", fdir, "-shards", "2", "-follow", raddr)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		waitHealthy(t, cmd, fbase)
		return cmd
	}
	follower := startFollower()

	// Writes are refused on the follower with the primary's address.
	status, body := httpDo(t, "PUT", fbase+"/docs/nope", "<nope/>")
	if status != http.StatusForbidden || !strings.Contains(body, raddr) {
		t.Fatalf("follower write: %d %s (want 403 naming the primary)", status, body)
	}

	if status, body := httpDo(t, "PUT", pbase+"/docs/d", "<d></d>"); status != http.StatusCreated {
		t.Fatalf("put: %d %s", status, body)
	}
	insert := func(n int) {
		for i := 0; i < n; i++ {
			status, body := httpDo(t, "POST", pbase+"/docs/d/insert?off=3", fmt.Sprintf("<x n=\"%d\"/>", i))
			if status != http.StatusCreated {
				t.Fatalf("insert: %d %s", status, body)
			}
		}
	}
	insert(30)

	// Wait until the follower has applied something, then SIGKILL it —
	// no drain, no clean close, a real crash.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := getStats(t, fbase)
		if st.Docs >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never started applying")
		}
		time.Sleep(50 * time.Millisecond)
	}
	follower.Process.Kill()
	follower.Wait()

	// The primary keeps moving while the follower is dead.
	insert(30)

	// Restart over the same journal dir: it must resume and converge.
	follower = startFollower()
	defer func() {
		follower.Process.Signal(syscall.SIGTERM)
		follower.Wait()
	}()
	deadline = time.Now().Add(15 * time.Second)
	for {
		st := getStats(t, fbase)
		if st.Replication == nil {
			t.Fatalf("follower /stats has no replication block")
		}
		if st.Replication.Primary != raddr {
			t.Fatalf("replication.primary = %q, want %q", st.Replication.Primary, raddr)
		}
		if st.Replication.Connected && st.Replication.Lag == 0 && st.Docs == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never converged: %+v", st.Replication)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Identical query answers and a clean consistency check.
	wantStatus, wantBody := httpDo(t, "GET", pbase+"/docs/d/count?path=d//x", "")
	gotStatus, gotBody := httpDo(t, "GET", fbase+"/docs/d/count?path=d//x", "")
	if wantStatus != http.StatusOK || gotStatus != wantStatus || gotBody != wantBody {
		t.Fatalf("count diverged: primary %d %s, follower %d %s", wantStatus, wantBody, gotStatus, gotBody)
	}
	if !strings.Contains(wantBody, "\"count\":60") {
		t.Fatalf("primary count = %s, want 60", wantBody)
	}
	if status, body := httpDo(t, "POST", fbase+"/check", ""); status != http.StatusOK {
		t.Fatalf("follower /check: %d %s", status, body)
	}

	// The journal footprint satellite: per-shard journalRecords/Bytes and
	// replication sequences are exported on both nodes.
	pst := getStats(t, pbase)
	var recs, bytes, seqs int64
	for _, sh := range pst.Shards {
		recs += sh.JournalRecords
		bytes += sh.JournalBytes
		seqs += sh.Seq
	}
	if recs == 0 || bytes == 0 || seqs == 0 {
		t.Fatalf("primary /stats journal fields empty: %+v", pst.Shards)
	}
}
