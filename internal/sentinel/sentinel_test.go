package sentinel

import (
	"testing"
)

// --- Latch: the flap suppressor -------------------------------------

func TestLatchEngagesAtFailThreshold(t *testing.T) {
	l := Latch{FailThreshold: 3, ReviveThreshold: 2}
	if l.Observe(false) || l.Observe(false) {
		t.Fatal("latch flipped below the fail threshold")
	}
	if l.Down() {
		t.Fatal("down before threshold")
	}
	if !l.Observe(false) {
		t.Fatal("third consecutive failure did not flip the latch")
	}
	if !l.Down() {
		t.Fatal("not down after threshold")
	}
	// Further failures keep it down without re-flipping (one DOWN event).
	if l.Observe(false) {
		t.Fatal("already-down latch flipped again")
	}
}

func TestLatchSingleSuccessResetsFailRun(t *testing.T) {
	// 2 fails, 1 ok, 2 fails with threshold 3: a flapping link never
	// trips the latch, because the run must be consecutive.
	l := Latch{FailThreshold: 3, ReviveThreshold: 2}
	l.Observe(false)
	l.Observe(false)
	l.Observe(true)
	l.Observe(false)
	l.Observe(false)
	if l.Down() {
		t.Fatal("interrupted failure run tripped the latch")
	}
	if l.Fails() != 2 {
		t.Fatalf("Fails() = %d, want 2", l.Fails())
	}
}

func TestLatchReviveNeedsConsecutiveSuccesses(t *testing.T) {
	l := Latch{FailThreshold: 1, ReviveThreshold: 2}
	l.Observe(false)
	if !l.Down() {
		t.Fatal("latch did not engage")
	}
	// One lucky probe mid-outage is not a revival...
	if l.Observe(true) {
		t.Fatal("single success revived the latch")
	}
	// ...and a failure resets the success run.
	l.Observe(false)
	if l.Observe(true) {
		t.Fatal("success after reset revived the latch")
	}
	if !l.Observe(true) {
		t.Fatal("second consecutive success did not revive")
	}
	if l.Down() {
		t.Fatal("still down after revival")
	}
}

// --- Elect: deterministic winner selection --------------------------

func TestElect(t *testing.T) {
	v := func(url string, applied, epoch int64) View {
		return View{URL: url, Applied: applied, Epoch: epoch}
	}
	cases := []struct {
		name    string
		cands   []View
		wantURL string
		wantOK  bool
	}{
		{"empty", nil, "", false},
		{"all unreadable", []View{v("a", -1, 0), v("b", -1, 0)}, "", false},
		{"max applied wins", []View{v("a", 10, 0), v("b", 30, 0), v("c", 20, 0)}, "b", true},
		{"unreadable skipped", []View{v("a", -1, 9), v("b", 5, 0)}, "b", true},
		{"tie broken by higher epoch", []View{v("a", 10, 1), v("b", 10, 3)}, "b", true},
		{"full tie broken by smallest url", []View{v("z", 10, 2), v("a", 10, 2), v("m", 10, 2)}, "a", true},
		{"applied beats epoch", []View{v("a", 11, 0), v("b", 10, 9)}, "a", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := Elect(tc.cands)
			if ok != tc.wantOK {
				t.Fatalf("ok = %v, want %v", ok, tc.wantOK)
			}
			if ok && got.URL != tc.wantURL {
				t.Fatalf("winner = %s, want %s", got.URL, tc.wantURL)
			}
			// Determinism across orderings: reverse must elect the same.
			rev := make([]View, len(tc.cands))
			for i, c := range tc.cands {
				rev[len(tc.cands)-1-i] = c
			}
			got2, ok2 := Elect(rev)
			if ok2 != ok || (ok && got2.URL != got.URL) {
				t.Fatalf("reversed order elected %q, forward elected %q", got2.URL, got.URL)
			}
		})
	}
}

// --- Reconcile: the planning core -----------------------------------

func TestReconcileHealthyClusterNoActions(t *testing.T) {
	views := []View{
		{URL: "p", Alive: true, Role: RolePrimary, Epoch: 2, ReplAddr: "p:1"},
		{URL: "a", Alive: true, Role: RoleFollower, Epoch: 2, Upstream: "p:1", ReplAddr: "a:1"},
		{URL: "b", Alive: true, Role: RoleFollower, Epoch: 2, Upstream: "a:1"},
	}
	plan := Reconcile(views, 0)
	if plan.NeedElection {
		t.Fatal("healthy cluster wants an election")
	}
	if plan.Primary == nil || plan.Primary.URL != "p" {
		t.Fatalf("primary = %+v, want p", plan.Primary)
	}
	if len(plan.Fence) != 0 || len(plan.Repoint) != 0 {
		t.Fatalf("healthy cluster planned actions: fence=%v repoint=%v", plan.Fence, plan.Repoint)
	}
	if plan.ClusterEpoch != 2 {
		t.Fatalf("cluster epoch = %d, want 2", plan.ClusterEpoch)
	}
}

func TestReconcileDeadPrimaryTriggersElection(t *testing.T) {
	views := []View{
		{URL: "p", Alive: false, Role: RolePrimary, Epoch: 2, ReplAddr: "p:1"},
		{URL: "a", Alive: true, Role: RoleFollower, Epoch: 2, Upstream: "p:1"},
		{URL: "b", Alive: true, Role: RoleFollower, Epoch: 2, Upstream: "a:1"},
	}
	plan := Reconcile(views, 0)
	if !plan.NeedElection {
		t.Fatal("dead primary did not trigger an election")
	}
	if len(plan.Candidates) != 2 {
		t.Fatalf("candidates = %v, want both followers", plan.Candidates)
	}
}

func TestReconcileFencesDeposedPrimary(t *testing.T) {
	// The deposed primary came back at its old epoch while a new regime
	// runs at a higher one: it must be fenced, and its follower re-pointed.
	views := []View{
		{URL: "old", Alive: true, Role: RolePrimary, Epoch: 1, ReplAddr: "old:1"},
		{URL: "new", Alive: true, Role: RolePrimary, Epoch: 2, ReplAddr: "new:1"},
		{URL: "f", Alive: true, Role: RoleFollower, Epoch: 2, Upstream: "old:1"},
	}
	plan := Reconcile(views, 0)
	if plan.NeedElection {
		t.Fatal("live new primary but election requested")
	}
	if plan.Primary == nil || plan.Primary.URL != "new" {
		t.Fatalf("primary = %+v, want new", plan.Primary)
	}
	if len(plan.Fence) != 1 || plan.Fence[0].URL != "old" {
		t.Fatalf("fence = %v, want [old]", plan.Fence)
	}
	// f is chained to the deposed primary's replication address: that
	// address is dead for replication purposes, so f re-points.
	if len(plan.Repoint) != 1 || plan.Repoint[0].URL != "f" {
		t.Fatalf("repoint = %v, want [f]", plan.Repoint)
	}
}

func TestReconcileLeavesLiveRelayChainsAlone(t *testing.T) {
	// b feeds from relay a, which is alive: re-pointing b at the primary
	// would flatten the tree the relay exists to build.
	views := []View{
		{URL: "p", Alive: true, Role: RolePrimary, Epoch: 0, ReplAddr: "p:1"},
		{URL: "a", Alive: true, Role: RoleFollower, Epoch: 0, Upstream: "p:1", ReplAddr: "a:1"},
		{URL: "b", Alive: true, Role: RoleFollower, Epoch: 0, Upstream: "a:1"},
	}
	plan := Reconcile(views, 0)
	if len(plan.Repoint) != 0 {
		t.Fatalf("repoint = %v, want none", plan.Repoint)
	}
	// Kill the relay: now b's upstream is a dead address and it re-points.
	views[1].Alive = false
	plan = Reconcile(views, 0)
	if len(plan.Repoint) != 1 || plan.Repoint[0].URL != "b" {
		t.Fatalf("repoint after relay death = %v, want [b]", plan.Repoint)
	}
}

func TestReconcileRepointsIdleFollower(t *testing.T) {
	views := []View{
		{URL: "p", Alive: true, Role: RolePrimary, Epoch: 3, ReplAddr: "p:1"},
		{URL: "f", Alive: true, Role: RoleFollower, Epoch: 3, Upstream: ""},
		// Alive only because its latch has not tripped yet: never answered
		// a probe, so its empty identity says nothing about its upstream.
		{URL: "unseen", Alive: true},
	}
	plan := Reconcile(views, 0)
	if len(plan.Repoint) != 1 || plan.Repoint[0].URL != "f" {
		t.Fatalf("repoint = %v, want only the idle follower f", plan.Repoint)
	}
}

func TestReconcileLastElectionKeepsEpochMonotonic(t *testing.T) {
	// The sentinel won an election at epoch 3, but the winner is briefly
	// unreachable and the only live "primary" is a deposed one at epoch
	// 1: the remembered election epoch must keep it from being treated
	// as the regime.
	views := []View{
		{URL: "old", Alive: true, Role: RolePrimary, Epoch: 1, ReplAddr: "old:1"},
		{URL: "f", Alive: true, Role: RoleFollower, Epoch: 3, Upstream: ""},
	}
	plan := Reconcile(views, 3)
	if plan.ClusterEpoch != 3 {
		t.Fatalf("cluster epoch = %d, want the remembered 3", plan.ClusterEpoch)
	}
	if !plan.NeedElection {
		t.Fatal("stale primary accepted as the regime")
	}
	if len(plan.Fence) != 1 || plan.Fence[0].URL != "old" {
		t.Fatalf("fence = %v, want [old]", plan.Fence)
	}
	if len(plan.Candidates) != 1 || plan.Candidates[0].URL != "f" {
		t.Fatalf("candidates = %v, want [f]", plan.Candidates)
	}
}

func TestReconcileDuplicatePrimariesDeterministic(t *testing.T) {
	// Two primaries at the same epoch should be impossible, but if
	// observed, every sentinel must agree which one survives: the
	// smallest URL wins, the other is fenced.
	views := []View{
		{URL: "q", Alive: true, Role: RolePrimary, Epoch: 5, ReplAddr: "q:1"},
		{URL: "b", Alive: true, Role: RolePrimary, Epoch: 5, ReplAddr: "b:1"},
	}
	plan := Reconcile(views, 0)
	if plan.Primary == nil || plan.Primary.URL != "b" {
		t.Fatalf("primary = %+v, want b (smallest URL)", plan.Primary)
	}
	if len(plan.Fence) != 1 || plan.Fence[0].URL != "q" {
		t.Fatalf("fence = %v, want [q]", plan.Fence)
	}
}

func TestReconcilePromotingMemberIsNotACandidate(t *testing.T) {
	views := []View{
		{URL: "p", Alive: false, Role: RolePrimary, Epoch: 0, ReplAddr: "p:1"},
		{URL: "a", Alive: true, Role: RolePromoting, Epoch: 0},
		{URL: "b", Alive: true, Role: RoleFollower, Epoch: 0, Upstream: "p:1"},
	}
	plan := Reconcile(views, 0)
	if !plan.NeedElection {
		t.Fatal("want an election")
	}
	if len(plan.Candidates) != 1 || plan.Candidates[0].URL != "b" {
		t.Fatalf("candidates = %v, want [b] (mid-promotion member excluded)", plan.Candidates)
	}
}
