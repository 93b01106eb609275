package sentinel

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	lazyxml "repro"
	"repro/internal/cluster"
	"repro/internal/faultline"
	"repro/internal/repl"
	"repro/internal/server"
)

// chaosMember is one in-process cluster node whose listeners live on
// FIXED addresses, so a severed member can be revived on the same URL —
// the shape of a partition healing, which httptest servers (random port
// per start) cannot express.
type chaosMember struct {
	t        *testing.T
	dir      string
	shards   int
	httpAddr string
	replAddr string

	httpLn net.Listener
	replLn net.Listener
	sc     *lazyxml.ShardedCollection
	node   *cluster.Node
	prim   *repl.Primary
	srv    *http.Server
	cancel context.CancelFunc

	// wrapRepl, when set, wraps the replication listener — the hook the
	// chaos test uses to cut streams mid-election via faultline.
	wrapRepl func(net.Listener) net.Listener
}

func (m *chaosMember) url() string { return "http://" + m.httpAddr }

// listenFixed binds addr, retrying briefly: a revived member re-binds
// the port its previous life just released.
func listenFixed(t *testing.T, addr string) net.Listener {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebinding %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// boot starts (or restarts) the member's store, node, relay primary and
// HTTP server on its fixed addresses.
func (m *chaosMember) boot(upstream string) {
	t := m.t
	t.Helper()
	if m.sc == nil {
		sc, err := lazyxml.OpenShardedCollection(m.dir, m.shards, lazyxml.LD, nil)
		if err != nil {
			t.Fatal(err)
		}
		m.sc = sc
	}
	m.node = cluster.New(m.sc, cluster.Config{
		Upstream:        upstream,
		Follower:        repl.FollowerConfig{BackoffMin: 10 * time.Millisecond, Logf: t.Logf},
		ReseedOnDiverge: true,
		Logf:            t.Logf,
	})
	prim, err := repl.NewPrimary(m.sc, repl.PrimaryConfig{
		HeartbeatEvery: 50 * time.Millisecond,
		Depth:          m.node.RelayDepth,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.prim = prim
	if m.replLn == nil {
		m.replLn = listenFixed(t, m.replAddr)
	}
	rln := m.replLn
	if m.wrapRepl != nil {
		rln = m.wrapRepl(rln)
	}
	go prim.Serve(rln)
	m.node.AttachPrimary(prim)
	ctx, cancel := context.WithCancel(context.Background())
	m.cancel = cancel
	if err := m.node.Start(ctx); err != nil {
		t.Fatal(err)
	}
	cfg := server.Config{}
	m.node.Wire(&cfg, m.replAddr)
	if m.httpLn == nil {
		m.httpLn = listenFixed(t, m.httpAddr)
	}
	m.srv = &http.Server{Handler: server.New(m.sc, cfg).Handler()}
	go m.srv.Serve(m.httpLn)
}

// sever kills both listeners and every loop, leaving only the on-disk
// state — the member, as the rest of the cluster sees it, is gone.
func (m *chaosMember) sever() {
	m.srv.Close()
	m.httpLn.Close()
	m.httpLn = nil
	m.cancel()
	m.prim.Close()
	m.replLn.Close()
	m.replLn = nil
	m.srv = nil
}

// shutdown tears everything down at test end.
func (m *chaosMember) shutdown() {
	if m.srv != nil {
		m.srv.Close()
	}
	if m.httpLn != nil {
		m.httpLn.Close()
	}
	if m.cancel != nil {
		m.cancel()
	}
	if m.prim != nil {
		m.prim.Close()
	}
	if m.replLn != nil {
		m.replLn.Close()
	}
	if m.sc != nil {
		m.sc.Close()
	}
}

func doReq(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err.Error()
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(raw)
}

func waitUntil(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestChaosFailoverFenceAndRejoin is the partition-style end-to-end:
// a three-node chain P → A → B takes acknowledged writes; P is severed;
// the sentinel latches it down, elects the most-caught-up survivor and
// promotes it with the fencing token while faultline cuts replication
// streams mid-election; the deposed P — which meanwhile acknowledged
// writes nobody else saw — revives on the same URLs, is fenced and
// demoted, discards its divergent tail through the forced re-seed, and
// the whole chain converges CheckConsistency-clean with every
// cluster-acknowledged write present and both stale records gone.
func TestChaosFailoverFenceAndRejoin(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e")
	}
	const shards = 2

	// Fix every address up front. The election tie-break is the
	// lexicographically smallest URL (both survivors are fully caught
	// up), so hand the smallest HTTP URL to A to make the winner — and
	// therefore the preserved chain shape — deterministic.
	lns := make([]net.Listener, 3)
	addrs := make([]string, 3)
	for i := range lns {
		lns[i] = listenFixed(t, "127.0.0.1:0")
		addrs[i] = lns[i].Addr().String()
	}
	sort.Slice(addrs, func(i, j int) bool { return "http://"+addrs[i] < "http://"+addrs[j] })
	byAddr := map[string]net.Listener{}
	for _, ln := range lns {
		byAddr[ln.Addr().String()] = ln
	}
	newMember := func(httpAddr string) *chaosMember {
		replLn := listenFixed(t, "127.0.0.1:0")
		return &chaosMember{
			t: t, dir: t.TempDir(), shards: shards,
			httpAddr: httpAddr, replAddr: replLn.Addr().String(),
			httpLn: byAddr[httpAddr], replLn: replLn,
		}
	}
	a := newMember(addrs[0]) // smallest URL: wins the full tie
	b := newMember(addrs[1])
	p := newMember(addrs[2])

	// Mid-election stream cuts: once armed, the first few connections
	// accepted by A's replication listener die after a budgeted number
	// of bytes — B's feed and the deposed P's re-seed both ride this
	// listener, so the election-window reconnects are exercised for
	// real. The ladder is finite; the loops' backoff outlasts it.
	cutLadder := []int64{200, 800, 3000}
	var cutIdx atomic.Int64
	cutIdx.Store(-1) // disarmed
	a.wrapRepl = func(ln net.Listener) net.Listener {
		return &faultline.Listener{Listener: ln, Wrap: func(c *faultline.Conn) net.Conn {
			for {
				i := cutIdx.Load()
				if i < 0 || int(i) >= len(cutLadder) {
					return c
				}
				if cutIdx.CompareAndSwap(i, i+1) {
					c.CutAfter(cutLadder[i])
					return c
				}
			}
		}}
	}

	p.boot("")
	a.boot(p.replAddr)
	b.boot(a.replAddr)
	defer p.shutdown()
	defer a.shutdown()
	defer b.shutdown()

	snt := New(Config{
		Peers:              []string{p.url(), a.url(), b.url()},
		ProbeInterval:      25 * time.Millisecond,
		ProbeTimeout:       time.Second,
		FailThreshold:      3,
		ReviveThreshold:    2,
		ElectionBackoffMin: 50 * time.Millisecond,
		ElectionBackoffMax: 300 * time.Millisecond,
		Logf:               t.Logf,
	})
	sctx, scancel := context.WithCancel(context.Background())
	defer scancel()
	go snt.Run(sctx)

	// Acknowledged writes through the cluster's front door.
	var acked []string
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("doc-%d", i)
		if code, body := doReq(t, "PUT", p.url()+"/docs/"+name, fmt.Sprintf("<d><n>%d</n></d>", i)); code != http.StatusCreated {
			t.Fatalf("PUT %s: %d %s", name, code, body)
		}
		acked = append(acked, name)
	}
	// Quiesce: every acknowledged write must be on all three members
	// before the partition, so "zero lost acknowledged writes" is exact.
	hasDocs := func(sc *lazyxml.ShardedCollection, names []string) bool {
		for _, n := range names {
			if _, err := sc.Text(n); err != nil {
				return false
			}
		}
		return true
	}
	waitUntil(t, "pre-partition convergence", 15*time.Second, func() bool {
		return hasDocs(a.sc, acked) && hasDocs(b.sc, acked)
	})
	waitUntil(t, "sentinel to see the healthy cluster", 15*time.Second, func() bool {
		return snt.Status().CurrentPrimary == p.url()
	})

	// Partition: P vanishes; the election window's replication streams
	// start dying mid-transfer.
	cutIdx.Store(0)
	p.sever()

	// The severed primary acknowledges two more writes that never ship —
	// its history is now strictly divergent from the regime to come.
	if err := p.sc.Put("p-only-1", []byte("<d><lost/></d>")); err != nil {
		t.Fatal(err)
	}
	if err := p.sc.Put("p-only-2", []byte("<d><lost/></d>")); err != nil {
		t.Fatal(err)
	}
	if err := p.sc.Close(); err != nil {
		t.Fatal(err)
	}
	p.sc = nil

	// The sentinel latches P down, elects A (smallest URL among equally
	// caught-up survivors), and promotes it at epoch 1.
	waitUntil(t, "failover to A", 30*time.Second, func() bool {
		return snt.Status().CurrentPrimary == a.url() && a.node.Role() == cluster.RolePrimary
	})
	if e := a.sc.Epoch(); e != 1 {
		t.Fatalf("new primary epoch = %d, want 1", e)
	}
	// B was chained to A and A is now the primary: the chain collapses
	// naturally, with no sentinel re-targeting needed — B must still be
	// feeding from A's replication address.
	if up := b.node.Upstream(); up != a.replAddr {
		t.Fatalf("B's upstream = %q after failover, want A's %q (chain flattened?)", up, a.replAddr)
	}

	// Writes keep flowing through the new regime and reach B.
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("after-%d", i)
		if code, body := doReq(t, "PUT", a.url()+"/docs/"+name, "<d><y/></d>"); code != http.StatusCreated {
			t.Fatalf("PUT %s on new primary: %d %s", name, code, body)
		}
		acked = append(acked, name)
	}
	waitUntil(t, "post-failover replication to B", 15*time.Second, func() bool {
		return hasDocs(b.sc, acked)
	})

	// The partition heals: P revives on the same URLs, still believing
	// it is a primary (epoch 0). The sentinel must fence it — demote it
	// to a follower of A — and the forced re-seed discards its
	// unshipped tail.
	p.boot("")
	waitUntil(t, "deposed primary to be fenced and demoted", 30*time.Second, func() bool {
		return p.node.Role() == cluster.RoleFollower && p.sc.Epoch() == 1
	})
	waitUntil(t, "deposed primary to converge on the new history", 30*time.Second, func() bool {
		if !hasDocs(p.sc, acked) {
			return false
		}
		_, err1 := p.sc.Text("p-only-1")
		_, err2 := p.sc.Text("p-only-2")
		return err1 != nil && err2 != nil
	})

	// Every stream cut must actually have fired — the election window
	// really was exercised against dying connections.
	if got := cutIdx.Load(); int(got) != len(cutLadder) {
		t.Fatalf("only %d of %d stream cuts fired", got, len(cutLadder))
	}

	// Final audit: all three members hold every acknowledged write and
	// identical bytes, the divergent records are gone everywhere, and
	// every store is structurally consistent.
	members := map[string]*chaosMember{"p": p, "a": a, "b": b}
	for name, m := range members {
		waitUntil(t, name+" full convergence", 15*time.Second, func() bool {
			return hasDocs(m.sc, acked)
		})
		for _, doc := range acked {
			want, err := a.sc.Text(doc)
			if err != nil {
				t.Fatalf("new primary lost %s: %v", doc, err)
			}
			got, err := m.sc.Text(doc)
			if err != nil || string(got) != string(want) {
				t.Fatalf("%s diverges on %s: %v", name, doc, err)
			}
		}
		for _, doc := range []string{"p-only-1", "p-only-2"} {
			if _, err := m.sc.Text(doc); err == nil {
				t.Fatalf("unacknowledged divergent record %s survived on %s", doc, name)
			}
		}
		if err := m.sc.CheckConsistency(); err != nil {
			t.Fatalf("%s inconsistent after the chaos run: %v", name, err)
		}
	}

	// The sentinel's own account of the incident.
	snap := snt.Status()
	if snap.Promotions != 1 {
		t.Fatalf("promotions = %d, want exactly 1 (fencing token must have serialized)", snap.Promotions)
	}
	if snap.LastElectionEpoch != 1 {
		t.Fatalf("last election epoch = %d, want 1", snap.LastElectionEpoch)
	}
	if snap.Retargets < 1 {
		t.Fatalf("retargets = %d, want at least the fencing demote", snap.Retargets)
	}
	if snap.CurrentPrimary != a.url() {
		t.Fatalf("current primary = %q, want %q", snap.CurrentPrimary, a.url())
	}
}
