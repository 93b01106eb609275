package repl

import (
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	lazyxml "repro"
	"repro/internal/faultline"
	"repro/internal/maintain"
	"repro/internal/server"
)

// Regression for the compact-under-live-subscriber window: a follower is
// mid-stream, slowly draining a burst that has already fallen out of the
// primary's tiny in-memory tail, when a compaction truncates the WAL and
// moves the resume horizon past the follower's position. The WAL
// fallback must surface the structured snapshot-required ERROR — not a
// torn read, not a silent stall — and the auto-re-seeding follower must
// come back converged. Runs once with the operator's manual POST
// /compact and once with the maintenance controller's auto-compaction
// (deferral disabled, so it moves the horizon despite the visible lag).
func TestCompactMovesHorizonUnderLiveSubscriber(t *testing.T) {
	cases := []struct {
		name    string
		compact func(t *testing.T, psc *lazyxml.ShardedCollection, p *Primary, srv *server.Server)
	}{
		{"manual-http", func(t *testing.T, psc *lazyxml.ShardedCollection, p *Primary, srv *server.Server) {
			web := httptest.NewServer(srv.Handler())
			defer web.Close()
			resp, err := http.Post(web.URL+"/compact", "application/json", strings.NewReader(""))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("POST /compact = %d", resp.StatusCode)
			}
		}},
		{"auto-controller", func(t *testing.T, psc *lazyxml.ShardedCollection, p *Primary, srv *server.Server) {
			ctl := maintain.New(psc, maintain.Config{
				Policy: maintain.Policy{SegmentsHigh: 1 << 30, SegmentsLow: 1,
					LogBytesHigh: 1, MinActionGap: time.Nanosecond,
					MaxCompactDefers: -1}, // never defer: force the horizon move
				IsPrimary:     func() bool { return true },
				SubscriberLag: p.SubscriberLag,
				GateShard:     srv.ExclusiveShard,
			})
			if err := ctl.RunOnce(t.Context()); err != nil {
				t.Fatalf("maintenance cycle: %v", err)
			}
			if ctl.Snapshot().Compacts == 0 {
				t.Fatalf("controller did not compact: %+v", ctl.Snapshot())
			}
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			// Primary with a 4-record tail, serving through a listener
			// that delays every write so the subscriber drains slowly.
			psc, err := lazyxml.OpenShardedCollection(t.TempDir(), 2, lazyxml.LD, nil)
			if err != nil {
				t.Fatal(err)
			}
			p, err := NewPrimary(psc, PrimaryConfig{
				HeartbeatEvery: 50 * time.Millisecond,
				TailRecords:    4,
			})
			if err != nil {
				t.Fatal(err)
			}
			raw, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			ln := &faultline.Listener{Listener: raw, Wrap: func(c *faultline.Conn) net.Conn {
				c.Delay(3 * time.Millisecond)
				return c
			}}
			go p.Serve(ln)
			t.Cleanup(func() {
				p.Close()
				psc.Close()
			})
			srv := server.New(psc, server.Config{})

			var reseeds atomic.Int64
			fsc, err := lazyxml.OpenShardedCollection(t.TempDir(), 2, lazyxml.LD, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer fsc.Close()
			f, err := NewFollower(fsc, raw.Addr().String(), FollowerConfig{
				BackoffMin: 10 * time.Millisecond,
				OnReseed:   func(shard int) error { reseeds.Add(1); return nil },
			})
			if err != nil {
				t.Fatal(err)
			}
			fdone := make(chan error, 1)
			go func() { fdone <- f.Run(t.Context()) }()
			t.Cleanup(func() { <-fdone })

			names := []string{nameForShard(psc, 0, 0), nameForShard(psc, 1, 0)}
			for _, name := range names {
				if err := psc.Put(name, []byte("<d></d>")); err != nil {
					t.Fatal(err)
				}
			}

			// Burst far past the 4-record tail while the wire crawls: the
			// follower is now mid-SUBSCRIBE, way behind, being served from
			// the on-disk WAL.
			for i := 0; i < 150; i++ {
				if _, err := psc.Insert(names[i%2], 3, []byte("<i/>")); err != nil {
					t.Fatal(err)
				}
			}

			// Compaction truncates that WAL and moves the horizon under
			// the live stream.
			tc.compact(t, psc, p, srv)
			for i := 0; i < psc.ShardCount(); i++ {
				if _, horizon := psc.ShardJournal(i).ReplState(); horizon == 0 {
					t.Fatalf("shard %d horizon did not move", i)
				}
			}

			// The follower must self-heal through the structured
			// snapshot-required path and converge — never stall, never
			// apply a torn stream.
			waitConverged(t, psc, fsc)
			if reseeds.Load() == 0 {
				t.Fatal("follower converged without re-seeding; the horizon race was not exercised")
			}
			if err := fsc.CheckConsistency(); err != nil {
				t.Fatalf("follower inconsistent after re-seed: %v", err)
			}
			for _, name := range names {
				pn, err := psc.CountDoc(name, "d//i")
				if err != nil {
					t.Fatal(err)
				}
				fn, err := fsc.CountDoc(name, "d//i")
				if err != nil {
					t.Fatal(err)
				}
				if pn != fn {
					t.Fatalf("doc %s: primary %d matches, follower %d", name, pn, fn)
				}
			}
		})
	}
}
