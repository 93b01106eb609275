package repl

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	lazyxml "repro"
)

// TestCheckpointKeepsFollowerOnTheLog: a checkpoint writes snapshot.lxml
// and leaves the log and its horizon where they were, so a follower that
// was subscribed before the primary checkpointed — streaming through the
// first checkpoint, then stopped and restarted from its own directory
// after a second — resumes from its sequence without a re-seed. The
// documents are large so the primary's log passes the default 1 MiB
// checkpoint budget twice; the follower's own shard checkpoints too, and
// its reopen starts from that snapshot.
func TestCheckpointKeepsFollowerOnTheLog(t *testing.T) {
	psc, _, addr := startPrimary(t, t.TempDir(), 1)
	fdir := t.TempDir()
	var reseeds atomic.Int64
	follow := func() (*lazyxml.ShardedCollection, func()) {
		fsc, err := lazyxml.OpenShardedCollection(fdir, 1, lazyxml.LD, nil)
		if err != nil {
			t.Fatal(err)
		}
		f, err := NewFollower(fsc, addr, FollowerConfig{
			BackoffMin: 10 * time.Millisecond,
			OnReseed:   func(int) error { reseeds.Add(1); return nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- f.Run(ctx) }()
		return fsc, func() {
			cancel()
			<-done
			fsc.Close()
		}
	}
	body := strings.Repeat("x", 64<<10)
	put := func(from, to int) {
		for i := from; i < to; i++ {
			if err := psc.Put(fmt.Sprintf("doc-%03d", i), []byte("<d>"+body+"</d>")); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitCheckpoints := func(n int64) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for psc.ShardStats()[0].Checkpoints < n {
			if time.Now().After(deadline) {
				t.Fatalf("the primary wrote fewer than %d checkpoints", n)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	fsc, stop := follow()
	put(0, 20)
	waitCheckpoints(1)
	waitConverged(t, psc, fsc)
	stop()
	// Close waited for the follower's own checkpoint writer.
	if _, err := os.Stat(filepath.Join(fdir, "snapshot.lxml")); err != nil {
		t.Fatalf("the follower's shard did not checkpoint: %v", err)
	}

	put(20, 40)
	waitCheckpoints(2)
	if _, horizon := psc.ShardJournal(0).ReplState(); horizon != 0 {
		t.Fatalf("a checkpoint moved the horizon to %d", horizon)
	}

	fsc, stop = follow()
	defer stop()
	waitConverged(t, psc, fsc)
	if n := reseeds.Load(); n != 0 {
		t.Fatalf("the follower re-seeded %d times; a checkpoint must not push it below the horizon", n)
	}
	if got, want := fsc.Len(), psc.Len(); got != want {
		t.Fatalf("follower holds %d documents, primary %d", got, want)
	}
	if err := fsc.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
