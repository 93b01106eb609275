package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	lazyxml "repro"
)

// TestServerOverloadShedding saturates a single-writer, one-deep write
// queue: queued writes must be shed with 503 + Retry-After at the shed
// deadline (not camp until the request timeout), overflow beyond the
// queue bound must be shed immediately, and the shed counter must tick —
// separately from timeouts.
func TestServerOverloadShedding(t *testing.T) {
	backend := lazyxml.NewCollection(lazyxml.LD)
	s := New(backend, Config{
		WriteQueue:     1,
		ShedAfter:      30 * time.Millisecond,
		RequestTimeout: 10 * time.Second,
	})
	// Hold the only write slot hostage for the whole test.
	if err := s.gate.acquireWrite(context.Background(), 0, 0); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	put := func(name string) (*http.Response, time.Duration) {
		start := time.Now()
		req, _ := http.NewRequest("PUT", ts.URL+"/docs/"+name, strings.NewReader("<d/>"))
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp, time.Since(start)
	}

	// One queued writer: fits the queue, sheds at the 30ms deadline —
	// far before the 10s request timeout.
	resp, took := put("queued")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("queued write = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\" (30ms rounded up)", ra)
	}
	if took > 5*time.Second {
		t.Fatalf("shed took %v: it camped past the shed deadline", took)
	}

	// Saturate the queue, then overflow it: the overflow write is shed
	// without waiting at all.
	var wg sync.WaitGroup
	var shed503 atomic.Int64
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := put("overflow")
			if resp.StatusCode == http.StatusServiceUnavailable {
				shed503.Add(1)
			}
		}()
	}
	wg.Wait()
	if shed503.Load() != 4 {
		t.Fatalf("%d of 4 concurrent writes got 503, want all", shed503.Load())
	}

	met := s.Metrics()
	if met.Shed < 5 {
		t.Fatalf("Shed = %d, want >= 5", met.Shed)
	}
	if met.Timeouts != 0 {
		t.Fatalf("Timeouts = %d: shedding must not be miscounted as timeouts", met.Timeouts)
	}

	// Reads pass while the write lane is saturated.
	var stats StatsResponse
	if st := call(t, ts, "GET", "/stats", nil, &stats); st != http.StatusOK {
		t.Fatal("read blocked by a saturated write lane")
	}

	// Releasing the slot makes the lane usable again — shedding left no
	// sticky state behind.
	s.gate.releaseWrite(0)
	if resp, _ := put("after-release"); resp.StatusCode != http.StatusCreated {
		t.Fatalf("write after release = %d, want 201", resp.StatusCode)
	}
}

// TestGateShedDirect pins the gate semantics underneath the HTTP layer.
func TestGateShedDirect(t *testing.T) {
	g := newGate(1, 1, 1)
	if err := g.acquireWrite(context.Background(), 0, 0); err != nil {
		t.Fatal(err)
	}
	// Queue depth 1: this waiter is admitted to the queue, then sheds at
	// its deadline.
	start := time.Now()
	if err := g.acquireWrite(context.Background(), 0, 20*time.Millisecond); !errors.Is(err, errShed) {
		t.Fatalf("queued acquire = %v, want errShed", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("deadline shed took %v", took)
	}
	// Context cancellation still wins over the shed deadline.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := g.acquireWrite(ctx, 0, time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled acquire = %v, want context.Canceled", err)
	}
	// The queue bound is enforced before the deadline ever matters: with
	// one camper occupying the depth-1 queue, the next writer bounces
	// immediately even though its own deadline is an hour away.
	done := make(chan error, 1)
	go func() { done <- g.acquireWrite(context.Background(), 0, time.Hour) }()
	deadline := time.Now().Add(2 * time.Second)
	for g.queued(0) < 1 {
		if time.Now().After(deadline) {
			t.Fatal("camper never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if err := g.acquireWrite(context.Background(), 0, time.Hour); !errors.Is(err, errShed) {
		t.Fatalf("overflow acquire = %v, want immediate errShed", err)
	}
	g.releaseWrite(0)
	if err := <-done; err != nil {
		t.Fatalf("camper after release: %v", err)
	}
	g.releaseWrite(0)
}

// TestServerHealthAndReady covers the probe pair: healthz is
// unconditional liveness; readyz follows the wired readiness hook and
// answers 503 with the reason while the instance is not traffic-worthy.
func TestServerHealthAndReady(t *testing.T) {
	// No hook: both probes are green.
	plain := newTestServer(t)
	var hz struct {
		OK bool `json:"ok"`
	}
	if st := call(t, plain, "GET", "/healthz", nil, &hz); st != http.StatusOK || !hz.OK {
		t.Fatalf("healthz = %d %+v", st, hz)
	}
	var rz struct {
		Ready  bool   `json:"ready"`
		Reason string `json:"reason"`
	}
	if st := call(t, plain, "GET", "/readyz", nil, &rz); st != http.StatusOK || !rz.Ready {
		t.Fatalf("readyz without hook = %d %+v", st, rz)
	}

	// Hooked: readiness flips with the hook, healthz stays green.
	var ready atomic.Bool
	s := New(lazyxml.NewCollection(lazyxml.LD), Config{
		Ready: func() (bool, string) {
			if !ready.Load() {
				return false, "re-seeding from the primary's snapshot"
			}
			return true, ""
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if st := call(t, ts, "GET", "/readyz", nil, &rz); st != http.StatusServiceUnavailable || rz.Ready {
		t.Fatalf("readyz while not ready = %d %+v", st, rz)
	}
	if rz.Reason == "" {
		t.Fatal("not-ready answer carries no reason")
	}
	if st := call(t, ts, "GET", "/healthz", nil, &hz); st != http.StatusOK {
		t.Fatalf("healthz while not ready = %d, liveness must not follow readiness", st)
	}
	ready.Store(true)
	if st := call(t, ts, "GET", "/readyz", nil, &rz); st != http.StatusOK || !rz.Ready {
		t.Fatalf("readyz after recovery = %d %+v", st, rz)
	}
}

// TestServerPromote flips a read-only follower writable through POST
// /promote: before, writes 403 to the primary; after, the hook's epoch is
// reported and writes land locally — no restart.
func TestServerPromote(t *testing.T) {
	var promoted atomic.Bool
	s := New(lazyxml.NewCollection(lazyxml.LD), Config{
		PrimaryAddr: "10.0.0.1:9401",
		Promote: func() (int64, error) {
			if !promoted.CompareAndSwap(false, true) {
				return 0, errors.New("already promoted (epoch 7)")
			}
			return 7, nil
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var e struct {
		Error   string `json:"error"`
		Primary string `json:"primary"`
	}
	if st := call(t, ts, "PUT", "/docs/d", []byte("<d/>"), &e); st != http.StatusForbidden {
		t.Fatalf("write on follower = %d, want 403", st)
	}
	if e.Primary != "10.0.0.1:9401" {
		t.Fatalf("403 names primary %q", e.Primary)
	}

	var pr struct {
		Promoted bool  `json:"promoted"`
		Epoch    int64 `json:"epoch"`
	}
	if st := call(t, ts, "POST", "/promote", nil, &pr); st != http.StatusOK || !pr.Promoted || pr.Epoch != 7 {
		t.Fatalf("promote = %d %+v", st, pr)
	}
	if st := call(t, ts, "PUT", "/docs/d", []byte("<d/>"), nil); st != http.StatusCreated {
		t.Fatalf("write after promote = %d, want 201", st)
	}
	if st := call(t, ts, "POST", "/rebuild", nil, nil); st != http.StatusOK {
		t.Fatalf("rebuild after promote = %d, want 200", st)
	}

	// A second promotion surfaces the hook's refusal as a 409 conflict,
	// and the server stays writable.
	var pe struct {
		Error string `json:"error"`
	}
	if st := call(t, ts, "POST", "/promote", nil, &pe); st != http.StatusConflict {
		t.Fatalf("double promote = %d, want 409", st)
	}
	if !strings.Contains(pe.Error, "already promoted") {
		t.Fatalf("double promote error = %q", pe.Error)
	}

	// A server with no promote hook answers 501.
	plain := newTestServer(t)
	if st := call(t, plain, "POST", "/promote", nil, nil); st != http.StatusNotImplemented {
		t.Fatalf("promote without hook = %d, want 501", st)
	}
}
