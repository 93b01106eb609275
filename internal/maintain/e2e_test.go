package maintain

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	lazyxml "repro"
	"repro/internal/repl"
	"repro/internal/server"
)

// The acceptance scenario: a 2-shard primary with a live streaming
// follower runs the auto-compaction controller through the HTTP server's
// write gate. The controller's compacts advance the replication horizon,
// the converged follower keeps streaming (it is never stranded), and the
// trigger is visible in both /stats and /metrics.
func TestAutoCompactReplicationE2E(t *testing.T) {
	// Primary store + replication feed.
	psc, err := lazyxml.OpenShardedCollection(t.TempDir(), 2, lazyxml.LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer psc.Close()
	p, err := repl.NewPrimary(psc, repl.PrimaryConfig{HeartbeatEvery: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go p.Serve(ln)
	defer p.Close()

	// Live follower.
	fsc, err := lazyxml.OpenShardedCollection(t.TempDir(), 2, lazyxml.LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fsc.Close()
	f, err := repl.NewFollower(fsc, ln.Addr().String(), repl.FollowerConfig{BackoffMin: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	fctx, fcancel := context.WithCancel(context.Background())
	fdone := make(chan error, 1)
	go func() { fdone <- f.Run(fctx) }()
	defer func() { fcancel(); <-fdone }()

	// HTTP server over the primary, controller scheduled through its gate
	// — the same wiring cmd/lazyxmld's -auto-compact flag produces.
	var ctl *Controller
	srv := server.New(psc, server.Config{MaintStatus: func() any { return ctl.Snapshot() }})
	ctl = New(psc, Config{
		Policy: Policy{SegmentsHigh: 4, SegmentsLow: 2, LogBytesHigh: 1,
			MinActionGap: time.Nanosecond},
		IsPrimary:     func() bool { return true },
		SubscriberLag: p.SubscriberLag,
		GateShard:     srv.ExclusiveShard,
	})
	web := httptest.NewServer(srv.Handler())
	defer web.Close()

	// Fragment documents on both shards while the follower streams.
	var names []string
	for shard := 0; shard < 2; shard++ {
		for k := 0; k < 2; k++ {
			name := ""
			for i := 0; ; i++ {
				n := fmt.Sprintf("e%d-%d-%d", shard, k, i)
				if psc.ShardOf(n) == shard {
					name = n
					break
				}
			}
			names = append(names, name)
			if err := psc.Put(name, []byte("<doc><item/></doc>")); err != nil {
				t.Fatal(err)
			}
			for j := 0; j < 4; j++ {
				if _, err := psc.Insert(name, len("<doc>"), []byte("<x><y/></x>")); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	waitReplConverged(t, psc, fsc)

	// Drive cycles until every shard has compacted; the converged
	// follower reports no lag, so nothing defers.
	ctx := context.Background()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := ctl.RunOnce(ctx); err != nil {
			t.Fatalf("maintenance cycle: %v", err)
		}
		if ctl.Snapshot().Compacts >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("controller never compacted both shards: %+v", ctl.Snapshot())
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i := 0; i < psc.ShardCount(); i++ {
		if _, horizon := psc.ShardJournal(i).ReplState(); horizon == 0 {
			t.Fatalf("shard %d horizon did not advance after auto-compaction", i)
		}
	}

	// The follower was at the horizon when it moved, so it must still be
	// streaming: post-compaction writes replicate without a re-seed being
	// required (and even a re-seed would be invisible here — the check is
	// that the follower converges, i.e. is not permanently stranded).
	for _, name := range names {
		if _, err := psc.Insert(name, len("<doc>"), []byte("<z/>")); err != nil {
			t.Fatal(err)
		}
	}
	waitReplConverged(t, psc, fsc)
	for _, name := range names {
		pt, err := psc.Text(name)
		if err != nil {
			t.Fatalf("primary text %s: %v", name, err)
		}
		ft, err := fsc.Text(name)
		if err != nil {
			t.Fatalf("follower text %s: %v", name, err)
		}
		if !bytes.Equal(pt, ft) {
			t.Fatalf("follower diverged on %s after auto-compaction:\nprimary:  %s\nfollower: %s", name, pt, ft)
		}
	}
	if err := fsc.CheckConsistency(); err != nil {
		t.Fatalf("follower inconsistent: %v", err)
	}

	// The trigger is observable over HTTP on both surfaces.
	for _, path := range []string{"/stats", "/metrics"} {
		var body struct {
			Maintenance *Snapshot `json:"maintenance"`
		}
		resp, err := http.Get(web.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: decode: %v", path, err)
		}
		if body.Maintenance == nil {
			t.Fatalf("%s: no maintenance block", path)
		}
		if body.Maintenance.Compacts < 2 || body.Maintenance.CollapsedDocs == 0 {
			t.Fatalf("%s: maintenance block missing the trigger: %+v", path, body.Maintenance)
		}
	}
}

// waitReplConverged polls until the follower's per-shard positions equal
// the primary's.
func waitReplConverged(t *testing.T, psc, fsc *lazyxml.ShardedCollection) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		converged := true
		for i := 0; i < psc.ShardCount(); i++ {
			pseq, _ := psc.ShardJournal(i).ReplState()
			fseq, _ := fsc.ShardJournal(i).ReplState()
			if pseq != fseq {
				converged = false
			}
		}
		if converged {
			return
		}
		if time.Now().After(deadline) {
			for i := 0; i < psc.ShardCount(); i++ {
				pseq, _ := psc.ShardJournal(i).ReplState()
				fseq, _ := fsc.ShardJournal(i).ReplState()
				t.Logf("shard %d: primary seq %d, follower seq %d", i, pseq, fseq)
			}
			t.Fatal("follower never converged")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
