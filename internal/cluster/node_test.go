package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	lazyxml "repro"
	"repro/internal/repl"
	"repro/internal/server"
)

// member is one in-process cluster node: store + relay primary + Node +
// HTTP server — the exact wiring cmd/lazyxmld builds from its flags.
type member struct {
	sc   *lazyxml.ShardedCollection
	node *Node
	prim *repl.Primary
	repl string
	ts   *httptest.Server
}

func (m *member) url() string { return m.ts.URL }

// startMember builds a member following upstream ("" = primary).
func startMember(t *testing.T, upstream string, shards int) *member {
	t.Helper()
	sc, err := lazyxml.OpenShardedCollection(t.TempDir(), shards, lazyxml.LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	node := New(sc, Config{
		Upstream:        upstream,
		Follower:        repl.FollowerConfig{BackoffMin: 10 * time.Millisecond},
		ReseedOnDiverge: true,
	})
	prim, err := repl.NewPrimary(sc, repl.PrimaryConfig{
		HeartbeatEvery: 50 * time.Millisecond,
		Depth:          node.RelayDepth,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go prim.Serve(ln)
	node.AttachPrimary(prim)
	ctx, cancel := context.WithCancel(context.Background())
	if err := node.Start(ctx); err != nil {
		t.Fatal(err)
	}
	cfg := server.Config{}
	node.Wire(&cfg, ln.Addr().String())
	ts := httptest.NewServer(server.New(sc, cfg).Handler())
	t.Cleanup(func() {
		ts.Close()
		cancel()
		prim.Close()
		sc.Close()
	})
	return &member{sc: sc, node: node, prim: prim, repl: ln.Addr().String(), ts: ts}
}

// httpJSON issues one request and decodes the JSON body (ignoring
// decode errors for empty bodies).
func httpJSON(t *testing.T, method, url string, body string, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if out != nil {
		_ = json.Unmarshal(raw, out)
	}
	return resp.StatusCode
}

// waitSync polls until b's per-shard positions equal a's.
func waitSync(t *testing.T, a, b *lazyxml.ShardedCollection) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		same := true
		for i := 0; i < a.ShardCount(); i++ {
			aseq, _ := a.ShardJournal(i).Journal().ReplState()
			bseq, _ := b.ShardJournal(i).Journal().ReplState()
			if aseq != bseq {
				same = false
			}
		}
		if same {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("stores never synchronized")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitFor polls cond until it holds; positions alone cannot witness a
// forced re-seed (a diverged store's positions may already equal the
// upstream's tip), so re-seed tests wait on content, not on waitSync.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

type nodeInfo struct {
	Ready      bool   `json:"ready"`
	Role       string `json:"role"`
	Epoch      int64  `json:"epoch"`
	RelayDepth int    `json:"relayDepth"`
	ReplAddr   string `json:"replAddr"`
	Upstream   string `json:"upstream"`
}

// TestReadyzAndStatsReportRoleEpoch pins the topology surface a
// sentinel (and the boot-time census) keys on: /readyz and /stats on
// both sides of a replication pair report role, epoch, relay depth and
// the addresses needed to re-wire the cluster.
func TestReadyzAndStatsReportRoleEpoch(t *testing.T) {
	p := startMember(t, "", 2)
	f := startMember(t, p.repl, 2)
	if err := p.sc.Put("doc", []byte("<d><x/></d>")); err != nil {
		t.Fatal(err)
	}
	waitSync(t, p.sc, f.sc)

	var pi nodeInfo
	if code := httpJSON(t, "GET", p.url()+"/readyz", "", &pi); code != http.StatusOK {
		t.Fatalf("primary readyz: %d", code)
	}
	if pi.Role != RolePrimary || pi.Epoch != 0 || pi.ReplAddr != p.repl || pi.RelayDepth != 0 {
		t.Fatalf("primary readyz surface = %+v", pi)
	}
	var fi nodeInfo
	if code := httpJSON(t, "GET", f.url()+"/readyz", "", &fi); code != http.StatusOK {
		t.Fatalf("follower readyz: %d", code)
	}
	if fi.Role != RoleFollower || fi.Upstream != p.repl || fi.RelayDepth != 1 || fi.ReplAddr != f.repl {
		t.Fatalf("follower readyz surface = %+v", fi)
	}

	var st nodeInfo
	if code := httpJSON(t, "GET", f.url()+"/stats", "", &st); code != http.StatusOK {
		t.Fatalf("follower stats: %d", code)
	}
	if st.Role != RoleFollower || st.RelayDepth != 1 {
		t.Fatalf("follower stats surface = %+v", st)
	}
}

// TestDoublePromoteRace races two POST /promote?epoch=0 against the
// same converged follower — the two-sentinels-one-candidate shape.
// The admin gate serializes them and the fencing token decides: exactly
// one wins with epoch 1, the loser gets 409, and the store ends at
// epoch 1 — not 2 — because a fenced promote must not double-bump.
func TestDoublePromoteRace(t *testing.T) {
	p := startMember(t, "", 1)
	f := startMember(t, p.repl, 1)
	if err := p.sc.Put("doc", []byte("<d><x/></d>")); err != nil {
		t.Fatal(err)
	}
	waitSync(t, p.sc, f.sc)

	type result struct {
		code  int
		epoch int64
	}
	results := make([]result, 2)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var body struct {
				Epoch int64 `json:"epoch"`
			}
			code := httpJSON(t, "POST", f.url()+"/promote?epoch=0", "", &body)
			results[i] = result{code: code, epoch: body.Epoch}
		}(i)
	}
	wg.Wait()

	var wins, fenced int
	for _, r := range results {
		switch r.code {
		case http.StatusOK:
			wins++
			if r.epoch != 1 {
				t.Fatalf("winner promoted to epoch %d, want 1", r.epoch)
			}
		case http.StatusConflict:
			fenced++
		default:
			t.Fatalf("unexpected promote status %d", r.code)
		}
	}
	if wins != 1 || fenced != 1 {
		t.Fatalf("race resolved to %d winners and %d fenced, want exactly 1 and 1 (%+v)", wins, fenced, results)
	}
	if e := f.sc.Epoch(); e != 1 {
		t.Fatalf("store epoch after race = %d, want 1", e)
	}
	if f.node.Role() != RolePrimary {
		t.Fatalf("winner's role = %s, want primary", f.node.Role())
	}
	// The winner is writable; a write round-trips.
	if code := httpJSON(t, "PUT", f.url()+"/docs/after-promote", "<w/>", nil); code != http.StatusCreated {
		t.Fatalf("write on promoted node: %d", code)
	}
}

// TestRetargetRouteDemotesPrimary drives POST /retarget on a writable
// primary — the sentinel's fencing move against a deposed primary that
// came back. The node must demote to a follower of the given upstream,
// refuse writes with 403, absorb its divergent history through the
// forced re-seed, and converge to the new primary's state.
func TestRetargetRouteDemotesPrimary(t *testing.T) {
	a := startMember(t, "", 1)
	if err := a.sc.Put("doc", []byte("<d><x/></d>")); err != nil {
		t.Fatal(err)
	}
	if _, err := a.sc.Promote(); err != nil { // a is at epoch 1: the new regime
		t.Fatal(err)
	}

	// b is a stale primary at epoch 0 with records of its own.
	b := startMember(t, "", 1)
	if err := b.sc.Put("stale-only", []byte("<d><lost/></d>")); err != nil {
		t.Fatal(err)
	}

	if code := httpJSON(t, "POST", b.url()+"/retarget", "", nil); code != http.StatusBadRequest {
		t.Fatalf("retarget without addr: %d, want 400", code)
	}
	var rt struct {
		Retargeted bool   `json:"retargeted"`
		Upstream   string `json:"upstream"`
	}
	if code := httpJSON(t, "POST", b.url()+"/retarget?addr="+a.repl, "", &rt); code != http.StatusOK {
		t.Fatalf("retarget: %d", code)
	}
	if !rt.Retargeted || rt.Upstream != a.repl {
		t.Fatalf("retarget response = %+v", rt)
	}
	if role := b.node.Role(); role != RoleFollower {
		t.Fatalf("role after retarget = %s, want follower", role)
	}

	// b's positions equal a's tip, so divergence is invisible to the WAL
	// positions — only the forced initial re-seed of the demotion loop
	// discards the stale record. Wait on content, not positions.
	waitFor(t, "fencing re-seed to discard the stale record", func() bool {
		_, err := b.sc.Text("stale-only")
		return err != nil
	})
	waitSync(t, a.sc, b.sc)
	if code := httpJSON(t, "PUT", b.url()+"/docs/nope", "<w/>", nil); code != http.StatusForbidden {
		t.Fatalf("write on demoted node: %d, want 403", code)
	}
	at, _ := a.sc.Text("doc")
	bt, err := b.sc.Text("doc")
	if err != nil || string(at) != string(bt) {
		t.Fatalf("demoted node did not converge (%v)", err)
	}
	if e := b.sc.Epoch(); e != 1 {
		t.Fatalf("demoted node epoch = %d, want the new regime's 1", e)
	}

	// And live writes keep flowing to the demoted node.
	if code := httpJSON(t, "PUT", a.url()+"/docs/after", "<d><y/></d>", nil); code != http.StatusCreated {
		t.Fatalf("write on new primary: %d", code)
	}
	waitSync(t, a.sc, b.sc)
	if _, err := b.sc.Text("after"); err != nil {
		t.Fatalf("post-demotion write did not replicate: %v", err)
	}
}

// TestPromoteIdempotentOnPrimary: promoting a node that is already the
// primary is refused without bumping the epoch — the guard that keeps a
// retrying sentinel from inflating epochs.
func TestPromoteIdempotentOnPrimary(t *testing.T) {
	p := startMember(t, "", 1)
	if _, err := p.node.Promote(); err == nil {
		t.Fatal("promote on a primary succeeded, want refusal")
	} else if !strings.Contains(err.Error(), "already the primary") {
		t.Fatalf("promote on a primary: %v", err)
	}
	if e := p.sc.Epoch(); e != 0 {
		t.Fatalf("epoch moved to %d on a refused promote", e)
	}
}

// TestRetargetRestartsDeadLoop: a follower whose loop died fatally (its
// primary was deposed) is not stuck — Retarget starts a fresh loop at
// the new address. This is the revival path for a node that idled
// through a failover it could not follow.
func TestRetargetRestartsDeadLoop(t *testing.T) {
	p := startMember(t, "", 1)
	if err := p.sc.Put("doc", []byte("<d><x/></d>")); err != nil {
		t.Fatal(err)
	}
	f := startMember(t, p.repl, 1)
	waitSync(t, p.sc, f.sc)

	// Fatally kill f's loop: advance f's epoch beyond p's, then force a
	// re-handshake; p refuses the newer-epoch subscriber, f's loop dies.
	if err := f.sc.AdvanceEpoch(7); err != nil {
		t.Fatal(err)
	}
	p.prim.KickSubscribers()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if ready, why := f.node.Ready(); !ready && strings.Contains(why, "stopped") {
			break
		}
		if time.Now().After(deadline) {
			ready, why := f.node.Ready()
			t.Fatalf("loop never died: ready=%v why=%q", ready, why)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// A new regime appears at epoch 7 and the sentinel re-points f.
	n := startMember(t, "", 1)
	if err := n.sc.AdvanceEpoch(7); err != nil {
		t.Fatal(err)
	}
	if err := n.sc.Put("fresh", []byte("<d><z/></d>")); err != nil {
		t.Fatal(err)
	}
	if err := f.node.Retarget(n.repl); err != nil {
		t.Fatalf("retarget after fatal loop death: %v", err)
	}
	// f and n both sit at seq 2, so the divergence ("doc" vs "fresh")
	// is invisible to positions; the restarted loop's forced initial
	// re-seed is what converges them. Wait on content.
	waitFor(t, "restarted loop to adopt the new regime's history", func() bool {
		_, err := f.sc.Text("fresh")
		return err == nil
	})
	waitSync(t, n.sc, f.sc)
	if _, err := f.sc.Text("doc"); err == nil {
		t.Fatal("old regime's record survived the forced re-seed")
	}
	if ready, why := f.node.Ready(); !ready {
		t.Fatalf("node not ready after revival: %s", why)
	}
}
