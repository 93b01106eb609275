package maintain

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	lazyxml "repro"
)

// TestMaintenanceRacesWrites runs the controller's cycle loop against
// one writer per shard plus free-running readers on the same sharded
// store — the server's concurrency contract (single writer per shard,
// enforced here by per-shard mutexes standing in for the write gate that
// GateShard plugs into, unlimited readers). The race detector is the
// assertion: maintenance collapses and compacts must interleave with
// live reads and gated writes without a single unsynchronized access.
func TestMaintenanceRacesWrites(t *testing.T) {
	const shards = 2
	sc, err := lazyxml.OpenShardedCollection(t.TempDir(), shards, lazyxml.LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	var lanes [shards]sync.Mutex // the test's stand-in for the server's write gate
	ctl := New(sc, Config{
		Policy: Policy{SegmentsHigh: 4, SegmentsLow: 2, LogBytesHigh: 1024,
			MinActionGap: time.Nanosecond},
		IsPrimary: func() bool { return true },
		GateShard: func(ctx context.Context, shard int, fn func() error) error {
			lanes[shard%shards].Lock()
			defer lanes[shard%shards].Unlock()
			return fn()
		},
	})

	// One document per shard, each owned by exactly one writer.
	names := make([]string, shards)
	for shard := range names {
		for i := 0; ; i++ {
			n := fmt.Sprintf("w%d-%d", shard, i)
			if sc.ShardOf(n) == shard {
				names[shard] = n
				break
			}
		}
		if err := sc.Put(names[shard], []byte("<doc><item/></doc>")); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var failure atomic.Value
	for shard := 0; shard < shards; shard++ {
		shard := shard
		wg.Add(1)
		go func() { // the shard's single writer
			defer wg.Done()
			name := names[shard]
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				lanes[shard].Lock()
				text, err := sc.Text(name)
				if err == nil {
					off := len(text) - len("</doc>")
					if i%8 == 7 && off > len("<doc><item/>") {
						err = sc.RemoveElementAt(name, len("<doc>"))
					} else {
						_, err = sc.Insert(name, off, []byte("<x/>"))
					}
				}
				lanes[shard].Unlock()
				if err != nil {
					failure.Store(err)
					return
				}
			}
		}()
		wg.Add(1)
		go func() { // an ungated reader racing writer and maintenance
			defer wg.Done()
			name := names[shard]
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := sc.Text(name); err != nil {
					failure.Store(err)
					return
				}
				if _, err := sc.CountDoc(name, "doc//x"); err != nil {
					failure.Store(err)
					return
				}
			}
		}()
	}

	ctx := context.Background()
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		if err := ctl.RunOnce(ctx); err != nil {
			t.Fatalf("maintenance cycle: %v", err)
		}
		_ = ctl.Snapshot() // concurrent observability reads race the cycles
	}
	close(stop)
	wg.Wait()
	if err, ok := failure.Load().(error); ok {
		t.Fatalf("workload failed: %v", err)
	}

	if err := sc.CheckConsistency(); err != nil {
		t.Fatalf("store inconsistent after concurrent maintenance: %v", err)
	}
	snap := ctl.Snapshot()
	if snap.CollapsedDocs == 0 {
		t.Fatalf("controller never collapsed under load: %+v", snap)
	}
	if snap.Errors != 0 {
		t.Fatalf("controller errors under load: %d, last %q", snap.Errors, snap.LastError)
	}
}

// TestControllerInMemoryBackend: on a non-durable store the controller
// still collapses on the segment signal but never attempts a compact —
// there is no journal to fold — with one shard or several.
func TestControllerInMemoryBackend(t *testing.T) {
	for _, c := range []*lazyxml.ShardedCollection{
		lazyxml.NewCollection(lazyxml.LD),
		lazyxml.NewShardedCollection(4, lazyxml.LD),
	} {
		t.Run(fmt.Sprintf("shards=%d", c.ShardCount()), func(t *testing.T) {
			ctl := New(c, Config{
				Policy: Policy{SegmentsHigh: 3, SegmentsLow: 1, LogBytesHigh: 1,
					MinActionGap: time.Nanosecond},
				IsPrimary: func() bool { return true },
			})
			if err := c.Put("a", []byte("<doc><item/></doc>")); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				if _, err := c.Insert("a", 5, []byte("<x/>")); err != nil {
					t.Fatal(err)
				}
			}
			if err := ctl.RunOnce(context.Background()); err != nil {
				t.Fatalf("cycle: %v", err)
			}
			snap := ctl.Snapshot()
			if snap.CollapsedDocs == 0 {
				t.Fatalf("no collapse on in-memory backend: %+v", snap)
			}
			if snap.Compacts != 0 {
				t.Fatalf("compacted a store with no journal: %+v", snap)
			}
			ds := c.DocSegments()
			if len(ds) != 1 || ds[0].Segments != 1 {
				t.Fatalf("document not folded to one segment: %+v", ds)
			}
		})
	}
}

// TestControllerGateShard: every executed action runs inside the
// provided gate callback, with the shard it is about to touch.
func TestControllerGateShard(t *testing.T) {
	sc, err := lazyxml.OpenShardedCollection(t.TempDir(), 2, lazyxml.LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	var mu sync.Mutex
	gated := map[int]int{}
	ctl := New(sc, Config{
		Policy: Policy{SegmentsHigh: 2, SegmentsLow: 1, LogBytesHigh: 1,
			MinActionGap: time.Nanosecond},
		IsPrimary: func() bool { return true },
		GateShard: func(ctx context.Context, shard int, fn func() error) error {
			mu.Lock()
			gated[shard]++
			mu.Unlock()
			return fn()
		},
	})

	// Fragment one document on each shard.
	for shard := 0; shard < 2; shard++ {
		name := ""
		for i := 0; ; i++ {
			n := fmt.Sprintf("g%d-%d", shard, i)
			if sc.ShardOf(n) == shard {
				name = n
				break
			}
		}
		if err := sc.Put(name, []byte("<doc><item/></doc>")); err != nil {
			t.Fatal(err)
		}
		if _, err := sc.Insert(name, 5, []byte("<x/>")); err != nil {
			t.Fatal(err)
		}
	}
	if err := ctl.RunOnce(context.Background()); err != nil {
		t.Fatalf("cycle: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if gated[0] == 0 || gated[1] == 0 {
		t.Fatalf("actions bypassed the gate: %v", gated)
	}
}
