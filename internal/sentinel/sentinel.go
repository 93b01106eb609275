// Package sentinel is the failover supervisor that turns the manual
// primitives — /readyz, /promote, /retarget, epoch fencing — into a
// self-healing cluster. It polls every member's /readyz with per-probe
// timeouts, suppresses flapping with a hysteresis latch (K consecutive
// failures to declare a member down, a smaller run of successes to
// revive it — the same engage/release watermark shape as
// internal/maintain's compaction policy), and when the primary is gone
// it elects the most-caught-up reachable follower, drives POST /promote
// with the observed epoch as a fencing token, re-points survivors whose
// upstream died, and demotes a deposed primary that comes back.
//
// The decision core (Latch, Elect, Reconcile) is pure and table-tested;
// only the probe loop does IO.
package sentinel

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"
)

// Config tunes the sentinel; zero values pick defaults.
type Config struct {
	// Peers are the cluster members' HTTP base URLs (including this
	// node's own, if the sentinel is co-located — probing yourself over
	// loopback is cheap and keeps the member list uniform).
	Peers []string
	// ProbeInterval is the pause between probe rounds (default 500ms),
	// jittered ±25% so co-located sentinels don't phase-lock.
	ProbeInterval time.Duration
	// ProbeTimeout bounds each member probe (default 2s).
	ProbeTimeout time.Duration
	// FailThreshold is K: consecutive failed probes before a member is
	// declared down (default 3).
	FailThreshold int
	// ReviveThreshold is the consecutive successes before a down member
	// is declared up again (default 2). Two thresholds make the latch
	// hysteretic: one lost packet doesn't start a failover, one lucky
	// probe doesn't end an outage.
	ReviveThreshold int
	// ElectionBackoffMin/Max bound the jittered exponential pause after
	// a failed election attempt (defaults 500ms and 5s).
	ElectionBackoffMin time.Duration
	ElectionBackoffMax time.Duration
	// Client issues the probes; nil builds one with ProbeTimeout.
	Client *http.Client
	// Logf receives sentinel events; nil discards them.
	Logf func(format string, args ...any)
}

func (c *Config) fill() {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.ReviveThreshold <= 0 {
		c.ReviveThreshold = 2
	}
	if c.ElectionBackoffMin <= 0 {
		c.ElectionBackoffMin = 500 * time.Millisecond
	}
	if c.ElectionBackoffMax <= 0 {
		c.ElectionBackoffMax = 5 * time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: c.ProbeTimeout}
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// Latch is the per-member flap suppressor: Down engages only after
// FailThreshold consecutive failures and releases only after
// ReviveThreshold consecutive successes. Mirrors internal/maintain's
// engage/release watermark latch.
type Latch struct {
	FailThreshold   int
	ReviveThreshold int

	fails int
	oks   int
	down  bool
}

// Observe feeds one probe result and reports whether the latch flipped.
func (l *Latch) Observe(ok bool) (flipped bool) {
	if ok {
		l.fails, l.oks = 0, l.oks+1
		if l.down && l.oks >= l.ReviveThreshold {
			l.down = false
			return true
		}
		return false
	}
	l.oks, l.fails = 0, l.fails+1
	if !l.down && l.fails >= l.FailThreshold {
		l.down = true
		return true
	}
	return false
}

// Down reports the latched state.
func (l *Latch) Down() bool { return l.down }

// Fails reports the current consecutive-failure run.
func (l *Latch) Fails() int { return l.fails }

// View is one member's last observed state, as the probe loop sees it:
// the /readyz identity block plus the latch's verdict on reachability.
type View struct {
	URL        string
	Alive      bool // latch says up (readyz answered, even if 503-unready)
	Ready      bool
	Role       string
	Epoch      int64
	ReplAddr   string
	Upstream   string
	RelayDepth int
	// Applied is the candidate's total applied position (sum of seq
	// across shards), filled at election time from /stats; -1
	// when unknown.
	Applied int64
}

// Plan is what one reconciliation step wants done. Execution order
// matters: promote first (restore write availability), then fence and
// re-point — the fenced and re-pointed members need a primary to point
// at.
type Plan struct {
	// NeedElection is set when no reachable member is primary at the
	// cluster epoch.
	NeedElection bool
	// Candidates are the electable members (alive, not the stale
	// primaries), unordered; Elect picks the winner after their applied
	// positions are fetched.
	Candidates []View
	// Fence are reachable members claiming the primary role at a stale
	// epoch — deposed primaries that came back. They are demoted by
	// re-targeting them at the current primary.
	Fence []View
	// Repoint are followers whose upstream is a dead or deposed
	// member's replication address; they re-target at the current
	// primary. Followers feeding from a live relay are left alone —
	// re-pointing them would flatten the tree.
	Repoint []View
	// Primary is the live primary at the cluster epoch, when one exists.
	Primary *View
	// ClusterEpoch is the highest epoch observed anywhere, including
	// past elections this sentinel ran.
	ClusterEpoch int64
}

// Reconcile computes the next actions from the latest member views.
// lastElection is the epoch the sentinel's most recent successful
// election produced (0 before any): it keeps the cluster epoch monotonic
// even while the winner is briefly unreachable.
func Reconcile(views []View, lastElection int64) Plan {
	p := Plan{ClusterEpoch: lastElection}
	for _, v := range views {
		if v.Alive && v.Epoch > p.ClusterEpoch {
			p.ClusterEpoch = v.Epoch
		}
	}
	// The live primary: reachable, claiming the role, at the cluster
	// epoch. Duplicates at the same epoch should be impossible (the
	// epoch bump is durable-before-effect and the fencing token
	// serializes racing elections) but if observed, the smallest URL is
	// kept and the rest are fenced — deterministic, so concurrent
	// sentinels agree.
	for i := range views {
		v := &views[i]
		if !v.Alive || v.Role != RolePrimary || v.Epoch != p.ClusterEpoch {
			continue
		}
		if p.Primary == nil || v.URL < p.Primary.URL {
			p.Primary = v
		}
	}
	// Dead addresses: replication listeners no follower should still be
	// pointing at — down members and stale primaries.
	deadAddr := map[string]bool{}
	for _, v := range views {
		stalePrimary := v.Alive && v.Role == RolePrimary &&
			(p.Primary == nil || v.URL != p.Primary.URL)
		if stalePrimary {
			p.Fence = append(p.Fence, v)
		}
		if (!v.Alive || stalePrimary) && v.ReplAddr != "" {
			deadAddr[v.ReplAddr] = true
		}
	}
	if p.Primary == nil {
		p.NeedElection = true
	}
	for _, v := range views {
		if !v.Alive {
			continue
		}
		switch v.Role {
		case RolePrimary, RolePromoting:
			continue
		}
		if p.NeedElection {
			p.Candidates = append(p.Candidates, v)
			continue
		}
		if v.URL == p.Primary.URL {
			continue
		}
		// A follower chained to a live relay stays put; one chained to a
		// dead or deposed address (or idle with none) re-points at the
		// primary. A member no probe has answered yet has no identity —
		// it may be a follower still booting toward a live relay — so it
		// is left alone until it says what it is.
		if v.Role == RoleFollower && (v.Upstream == "" || deadAddr[v.Upstream]) {
			p.Repoint = append(p.Repoint, v)
		}
	}
	return p
}

// Elect picks the winner among candidates whose applied positions were
// fetched: the most-caught-up store, ties broken by the higher epoch and
// then the lexicographically smallest URL. Fully deterministic, so two
// racing sentinels pick the same member and the fencing token resolves
// which request wins.
func Elect(candidates []View) (View, bool) {
	best := -1
	for i, c := range candidates {
		if c.Applied < 0 {
			continue // stats fetch failed; not electable this round
		}
		if best < 0 {
			best = i
			continue
		}
		b := candidates[best]
		if c.Applied != b.Applied {
			if c.Applied > b.Applied {
				best = i
			}
			continue
		}
		if c.Epoch != b.Epoch {
			if c.Epoch > b.Epoch {
				best = i
			}
			continue
		}
		if c.URL < b.URL {
			best = i
		}
	}
	if best < 0 {
		return View{}, false
	}
	return candidates[best], true
}

// Member roles as reported by /readyz (mirrors internal/cluster's
// constants without the import).
const (
	RolePrimary   = "primary"
	RoleFollower  = "follower"
	RolePromoting = "promoting"
)

// MemberStatus is one member's row in the sentinel's /stats snapshot.
type MemberStatus struct {
	URL        string `json:"url"`
	Alive      bool   `json:"alive"`
	Ready      bool   `json:"ready"`
	Role       string `json:"role,omitempty"`
	Epoch      int64  `json:"epoch"`
	RelayDepth int    `json:"relayDepth"`
	Upstream   string `json:"upstream,omitempty"`
	// ProbeFails is the current consecutive-failure run (resets on
	// success; the latch trips at FailThreshold).
	ProbeFails int    `json:"probeFails"`
	LastError  string `json:"lastError,omitempty"`
}

// Snapshot is the sentinel's state for /stats and /metrics.
type Snapshot struct {
	Members []MemberStatus `json:"members"`
	// CurrentPrimary is the member URL last reconciled as the live
	// primary; "" while the cluster has none.
	CurrentPrimary string `json:"currentPrimary,omitempty"`
	// ProbeFailures counts failed probes over the sentinel's lifetime.
	ProbeFailures int64 `json:"probeFailures"`
	// Elections counts election attempts; Promotions counts the ones
	// whose /promote succeeded.
	Elections  int64 `json:"elections"`
	Promotions int64 `json:"promotions"`
	// Retargets counts successful /retarget calls (re-points + demotes).
	Retargets int64 `json:"retargets"`
	// LastElectionEpoch is the epoch the most recent won election
	// produced; 0 before any.
	LastElectionEpoch int64 `json:"lastElectionEpoch"`
}

// Sentinel supervises one cluster.
type Sentinel struct {
	cfg Config

	mu             sync.Mutex
	latches        map[string]*Latch
	views          map[string]View
	lastErr        map[string]string
	currentPrimary string
	probeFailures  int64
	elections      int64
	promotions     int64
	retargets      int64
	lastElection   int64
	electionWait   time.Duration
	nextElection   time.Time
}

// New builds a sentinel over the configured peers.
func New(cfg Config) *Sentinel {
	cfg.fill()
	s := &Sentinel{
		cfg:     cfg,
		latches: make(map[string]*Latch),
		views:   make(map[string]View),
		lastErr: make(map[string]string),
	}
	for _, p := range cfg.Peers {
		s.latches[p] = &Latch{FailThreshold: cfg.FailThreshold, ReviveThreshold: cfg.ReviveThreshold}
	}
	return s
}

// Run probes and reconciles until ctx is cancelled.
func (s *Sentinel) Run(ctx context.Context) {
	for {
		s.Tick(ctx)
		// Jitter the interval ±25% so co-located sentinels drift apart.
		base := s.cfg.ProbeInterval
		sleep := base*3/4 + time.Duration(rand.Int63n(int64(base/2)+1))
		select {
		case <-ctx.Done():
			return
		case <-time.After(sleep):
		}
	}
}

// Tick runs one probe + reconcile round. Exported so tests can step the
// sentinel deterministically.
func (s *Sentinel) Tick(ctx context.Context) {
	views := s.probeAll(ctx)
	plan := Reconcile(views, s.lastElectionEpoch())

	s.mu.Lock()
	if plan.Primary != nil {
		s.currentPrimary = plan.Primary.URL
	} else {
		s.currentPrimary = ""
	}
	s.mu.Unlock()

	if plan.NeedElection {
		s.elect(ctx, plan)
		return
	}
	// A live primary exists: reset the election backoff and converge the
	// rest of the cluster toward it.
	s.mu.Lock()
	s.electionWait = 0
	s.nextElection = time.Time{}
	s.mu.Unlock()
	for _, v := range plan.Fence {
		s.cfg.Logf("sentinel: fencing deposed primary %s (epoch %d < %d): demoting to follower of %s",
			v.URL, v.Epoch, plan.ClusterEpoch, plan.Primary.URL)
		s.retarget(ctx, v.URL, plan.Primary.ReplAddr)
	}
	for _, v := range plan.Repoint {
		s.cfg.Logf("sentinel: re-pointing %s (upstream %q is gone) at %s", v.URL, v.Upstream, plan.Primary.URL)
		s.retarget(ctx, v.URL, plan.Primary.ReplAddr)
	}
}

// elect runs one election attempt: fetch candidates' applied positions,
// pick the winner, promote it with the fencing token, then re-point the
// other survivors at it.
func (s *Sentinel) elect(ctx context.Context, plan Plan) {
	s.mu.Lock()
	if !s.nextElection.IsZero() && time.Now().Before(s.nextElection) {
		s.mu.Unlock()
		return // backing off after a failed attempt
	}
	s.mu.Unlock()
	if len(plan.Candidates) == 0 {
		s.cfg.Logf("sentinel: primary is down and no candidate is reachable")
		s.electionFailed()
		return
	}

	cands := make([]View, len(plan.Candidates))
	copy(cands, plan.Candidates)
	for i := range cands {
		cands[i].Applied = s.fetchApplied(ctx, cands[i].URL)
	}
	winner, ok := Elect(cands)
	if !ok {
		s.cfg.Logf("sentinel: no candidate's positions could be read; retrying")
		s.electionFailed()
		return
	}

	s.mu.Lock()
	s.elections++
	s.mu.Unlock()
	s.cfg.Logf("sentinel: electing %s (applied %d, observed epoch %d) as primary", winner.URL, winner.Applied, winner.Epoch)
	// The observed epoch is the fencing token: if another sentinel's
	// election moved the winner past it, our promote loses with a 409
	// instead of stacking a second epoch bump.
	status, body, err := s.post(ctx, winner.URL, "/promote?epoch="+fmt.Sprint(winner.Epoch))
	if err != nil || status != http.StatusOK {
		s.cfg.Logf("sentinel: promote %s failed (status %d, err %v): %s", winner.URL, status, err, body)
		s.electionFailed()
		return
	}
	var res struct {
		Epoch int64 `json:"epoch"`
	}
	_ = json.Unmarshal([]byte(body), &res)
	s.mu.Lock()
	s.promotions++
	s.lastElection = res.Epoch
	s.currentPrimary = winner.URL
	s.electionWait = 0
	s.nextElection = time.Time{}
	s.mu.Unlock()
	s.cfg.Logf("sentinel: %s promoted at epoch %d", winner.URL, res.Epoch)
	// Survivors whose upstream died are re-pointed by the next tick's
	// reconcile, which sees the new primary in its views: deciding here
	// would re-point followers chained to live relays too, flattening
	// the tree the relay exists to build.
}

// electionFailed applies jittered exponential backoff between attempts.
func (s *Sentinel) electionFailed() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.electionWait <= 0 {
		s.electionWait = s.cfg.ElectionBackoffMin
	} else if s.electionWait *= 2; s.electionWait > s.cfg.ElectionBackoffMax {
		s.electionWait = s.cfg.ElectionBackoffMax
	}
	jittered := s.electionWait/2 + time.Duration(rand.Int63n(int64(s.electionWait/2)+1))
	s.nextElection = time.Now().Add(jittered)
}

// retarget drives one member's POST /retarget.
func (s *Sentinel) retarget(ctx context.Context, memberURL, replAddr string) {
	if replAddr == "" {
		return
	}
	status, body, err := s.post(ctx, memberURL, "/retarget?addr="+url.QueryEscape(replAddr))
	if err != nil || status != http.StatusOK {
		s.cfg.Logf("sentinel: retarget %s → %s failed (status %d, err %v): %s", memberURL, replAddr, status, err, body)
		return
	}
	s.mu.Lock()
	s.retargets++
	s.mu.Unlock()
}

// probeAll probes every member once, in parallel, and returns the
// refreshed views.
func (s *Sentinel) probeAll(ctx context.Context) []View {
	type result struct {
		view View
		ok   bool
		err  error
	}
	results := make([]result, len(s.cfg.Peers))
	var wg sync.WaitGroup
	for i, peer := range s.cfg.Peers {
		wg.Add(1)
		go func(i int, peer string) {
			defer wg.Done()
			v, err := s.probe(ctx, peer)
			results[i] = result{view: v, ok: err == nil, err: err}
		}(i, peer)
	}
	wg.Wait()

	s.mu.Lock()
	defer s.mu.Unlock()
	views := make([]View, len(results))
	for i, r := range results {
		peer := s.cfg.Peers[i]
		latch := s.latches[peer]
		if !r.ok {
			s.probeFailures++
			s.lastErr[peer] = r.err.Error()
		} else {
			s.lastErr[peer] = ""
		}
		if latch.Observe(r.ok) {
			if latch.Down() {
				s.cfg.Logf("sentinel: %s is DOWN after %d consecutive failed probes", peer, s.cfg.FailThreshold)
			} else {
				s.cfg.Logf("sentinel: %s is back up", peer)
			}
		}
		v := r.view
		if !r.ok {
			// Keep the last good identity (role/epoch/replAddr) so the
			// reconciler can still mark its replAddr dead.
			v = s.views[peer]
		}
		v.URL = peer
		v.Alive = !latch.Down()
		if !r.ok {
			v.Ready = false
		}
		s.views[peer] = v
		views[i] = v
	}
	return views
}

// probe fetches one member's /readyz identity. Any parsed answer —
// ready or 503-unready — counts as alive; only transport failures and
// non-JSON garbage count against the latch.
func (s *Sentinel) probe(ctx context.Context, peer string) (View, error) {
	ctx, cancel := context.WithTimeout(ctx, s.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/readyz", nil)
	if err != nil {
		return View{}, err
	}
	resp, err := s.cfg.Client.Do(req)
	if err != nil {
		return View{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return View{}, err
	}
	var body struct {
		Ready      bool   `json:"ready"`
		Role       string `json:"role"`
		Epoch      int64  `json:"epoch"`
		ReplAddr   string `json:"replAddr"`
		Upstream   string `json:"upstream"`
		RelayDepth int    `json:"relayDepth"`
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		return View{}, fmt.Errorf("parsing %s/readyz: %w", peer, err)
	}
	return View{
		URL:        peer,
		Ready:      body.Ready,
		Role:       body.Role,
		Epoch:      body.Epoch,
		ReplAddr:   body.ReplAddr,
		Upstream:   body.Upstream,
		RelayDepth: body.RelayDepth,
		Applied:    -1,
	}, nil
}

// fetchApplied reads a candidate's total applied position from /stats:
// the sum of every shard's seq. -1 when unreadable.
func (s *Sentinel) fetchApplied(ctx context.Context, peer string) int64 {
	ctx, cancel := context.WithTimeout(ctx, s.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/stats", nil)
	if err != nil {
		return -1
	}
	resp, err := s.cfg.Client.Do(req)
	if err != nil {
		return -1
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return -1
	}
	var body struct {
		Shards []struct {
			Seq int64 `json:"seq"`
		} `json:"shards"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&body); err != nil {
		return -1
	}
	var total int64
	for _, sh := range body.Shards {
		total += sh.Seq
	}
	return total
}

// post issues one bodyless POST to a member and returns status + body.
func (s *Sentinel) post(ctx context.Context, peer, path string) (int, string, error) {
	ctx, cancel := context.WithTimeout(ctx, s.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+path, nil)
	if err != nil {
		return 0, "", err
	}
	resp, err := s.cfg.Client.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	return resp.StatusCode, string(raw), nil
}

func (s *Sentinel) lastElectionEpoch() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastElection
}

// Status renders the sentinel's snapshot for /stats and /metrics.
func (s *Sentinel) Status() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := Snapshot{
		CurrentPrimary:    s.currentPrimary,
		ProbeFailures:     s.probeFailures,
		Elections:         s.elections,
		Promotions:        s.promotions,
		Retargets:         s.retargets,
		LastElectionEpoch: s.lastElection,
	}
	peers := append([]string(nil), s.cfg.Peers...)
	sort.Strings(peers)
	for _, p := range peers {
		v := s.views[p]
		latch := s.latches[p]
		snap.Members = append(snap.Members, MemberStatus{
			URL:        p,
			Alive:      !latch.Down(),
			Ready:      v.Ready,
			Role:       v.Role,
			Epoch:      v.Epoch,
			RelayDepth: v.RelayDepth,
			Upstream:   v.Upstream,
			ProbeFails: latch.Fails(),
			LastError:  s.lastErr[p],
		})
	}
	return snap
}
