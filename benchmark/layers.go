package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	lazyxml "repro"
	"repro/internal/bench"
	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/join"
	"repro/internal/plan"
	"repro/internal/repl"
	"repro/internal/stream"
	"repro/internal/xmlgen"
	"repro/internal/xmltree"
)

// The layer ledger: every layer measured on its own, from outside, by
// timing calls into its public functions on inputs shaped like the
// workloads'. Metric names start with the module's name. None of it is
// gated; README.md says which end-to-end metric each should move.

// timed returns the median duration of n calls of fn.
func timed(n int, fn func(i int)) time.Duration {
	took := make([]float64, n)
	for i := range took {
		start := time.Now()
		fn(i)
		took[i] = float64(time.Since(start))
	}
	return time.Duration(median(took))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// runLedger measures every layer and returns the metrics by name.
func runLedger(sc scale, workDir string) (map[string]metric, error) {
	m := map[string]metric{}
	r := rand.New(rand.NewSource(1))
	ledgerXMLTree(m, r)
	ledgerBTree(m, sc)
	if err := ledgerCore(m, sc, r); err != nil {
		return nil, fmt.Errorf("core ledger: %w", err)
	}
	if err := ledgerJoinPlan(m, sc); err != nil {
		return nil, fmt.Errorf("join ledger: %w", err)
	}
	if err := ledgerStream(m); err != nil {
		return nil, fmt.Errorf("stream ledger: %w", err)
	}
	if err := ledgerDurable(m, sc, workDir); err != nil {
		return nil, fmt.Errorf("journal ledger: %w", err)
	}
	return m, nil
}

// ledgerXMLTree parses the fragments the workloads insert.
func ledgerXMLTree(m map[string]metric, r *rand.Rand) {
	const n = 2000
	frags := make([][]byte, n)
	total := 0
	for i := range frags {
		frags[i] = []byte(xmlgen.Person(r, firstInsertedID+i, xmlgen.XMarkConfig{}))
		total += len(frags[i])
	}
	start := time.Now()
	for _, f := range frags {
		if _, err := xmltree.ParseFragment(f); err != nil {
			panic(err) // the generator's own fragment
		}
	}
	took := time.Since(start)
	m["xmltree_parse_us_per_fragment"] = metric{Value: us(took) / n, Unit: "us", Samples: n}
	m["xmltree_parse_mb_per_s"] = metric{Value: float64(total) / (1 << 20) / took.Seconds(), Unit: "MB/s", Samples: n}
}

// ledgerBTree measures the index structure every other index is built
// on, including the O(n) Clone a view build pays per index.
func ledgerBTree(m map[string]metric, sc scale) {
	n := 200000
	if sc.name == "smoke" {
		n = 2000
	}
	keys := rand.New(rand.NewSource(2)).Perm(n)
	t := btree.New[int, int](func(a, b int) int { return a - b })
	per := func(d time.Duration) metric { return metric{Value: float64(d) / float64(n), Unit: "ns", Samples: n} }
	start := time.Now()
	for _, k := range keys {
		t.Set(k, k)
	}
	m["btree_set_ns"] = per(time.Since(start))
	start = time.Now()
	for _, k := range keys {
		t.Get(k)
	}
	m["btree_get_ns"] = per(time.Since(start))
	start = time.Now()
	t.AscendRange(0, n, func(int, int) bool { return true })
	m["btree_range_ns_per_entry"] = per(time.Since(start))
	start = time.Now()
	c := t.Clone()
	m["btree_clone_ns_per_entry"] = per(time.Since(start))
	runtime.KeepAlive(c)
}

// ledgerCore is Figure 16 through this code: the cost of one segment
// insert and remove as the super document grows, and beside it what the
// first read after a write pays to build its view, in time and in bytes
// allocated, as the index grows.
func ledgerCore(m map[string]metric, sc scale, r *rand.Rand) error {
	for _, mb := range sc.ledgerTextMB {
		persons := mb * 2100 // about 1 MiB of XMark text per 2100 persons and 840 items
		doc := &shadowDoc{name: "ledger", text: xmlgen.XMark(xmlgen.XMarkConfig{Seed: int64(mb), Persons: persons, Items: persons * 2 / 5})}
		s := core.NewStore(lazyxml.LD)
		if _, err := s.InsertSegment(0, doc.text); err != nil {
			return err
		}
		s.AcquireView().Release() // the first build is not a rebuild after a write
		var insert, remove, build, alloc []float64
		var ms runtime.MemStats
		for i := 0; i < sc.ledgerIters; i++ {
			frag := []byte(xmlgen.Person(r, firstInsertedID+i, xmlgen.XMarkConfig{}))
			gp := doc.slot(r)
			start := time.Now()
			if _, err := s.InsertSegment(gp, frag); err != nil {
				return err
			}
			insert = append(insert, float64(time.Since(start)))
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			start = time.Now()
			v := s.AcquireView()
			build = append(build, float64(time.Since(start)))
			runtime.ReadMemStats(&ms)
			alloc = append(alloc, float64(ms.TotalAlloc-before))
			v.Release()
			start = time.Now()
			if err := s.RemoveSegment(gp, len(frag)); err != nil {
				return err
			}
			remove = append(remove, float64(time.Since(start)))
		}
		size := fmt.Sprintf("_%dmb", mb)
		m["core_elements"+size] = metric{Value: float64(s.Stats().Elements), Unit: "count"}
		m["core_insert_us"+size] = metric{Value: median(insert) / 1e3, Unit: "us", Samples: len(insert)}
		m["core_remove_us"+size] = metric{Value: median(remove) / 1e3, Unit: "us", Samples: len(remove)}
		m["core_view_build_ms"+size] = metric{Value: median(build) / 1e6, Unit: "ms", Samples: len(build)}
		m["core_view_build_alloc_mb"+size] = metric{Value: median(alloc) / (1 << 20), Unit: "MiB", Samples: len(alloc)}
		vs := s.ViewStats()
		if int(vs.Builds) != sc.ledgerIters+1 {
			return fmt.Errorf("%d MB: %d view builds for %d reads after a write", mb, vs.Builds, sc.ledgerIters)
		}
	}
	return nil
}

// ledgerJoinPlan is Figures 12 and 13 through this code: the three
// joins on the paper's cross-segment workload at few and at many
// segments, and the planner's cost of choosing between them.
func ledgerJoinPlan(m map[string]metric, sc scale) error {
	for _, segs := range sc.ledgerSegs {
		w, err := bench.BuildCrossWorkload(bench.Balanced, segs, sc.ledgerJoins, 50)
		if err != nil {
			return err
		}
		s, err := w.BuildStore(lazyxml.LD)
		if err != nil {
			return err
		}
		size := fmt.Sprintf("_%dseg", segs)
		matches := 0
		lazy := timed(sc.ledgerIters, func(int) {
			ms, err := s.Query("A", "D", join.Descendant, core.LazyJoin)
			if err != nil {
				panic(err) // a two-tag query over a store this function built
			}
			matches = len(ms)
		})
		if matches != w.TotalJoins() {
			return fmt.Errorf("%d segments: Lazy-Join found %d matches, the workload has %d", segs, matches, w.TotalJoins())
		}
		alist, dlist := s.GlobalElements("A"), s.GlobalElements("D")
		std := timed(sc.ledgerIters, func(int) { matches = len(join.StackTreeDesc(alist, dlist, join.Descendant)) })
		skip := timed(sc.ledgerIters, func(int) { matches = len(join.SkipJoin(alist, dlist, join.Descendant)) })
		m["join_lazy_ms"+size] = metric{Value: ms(lazy), Unit: "ms", Samples: sc.ledgerIters}
		m["join_lazy_matches_per_s"+size] = metric{Value: float64(matches) / lazy.Seconds(), Unit: "1/s", Samples: sc.ledgerIters}
		m["join_std_ms"+size] = metric{Value: ms(std), Unit: "ms", Samples: sc.ledgerIters}
		m["join_skip_ms"+size] = metric{Value: ms(skip), Unit: "ms", Samples: sc.ledgerIters}

		if segs == sc.ledgerSegs[len(sc.ledgerSegs)-1] {
			q := plan.Query{Path: "A//D", Steps: []plan.Step{{Tag: "A"}, {Tag: "D", Desc: true}}}
			col := plan.NewCollector(s, nil, 0)
			const n = 20000
			start := time.Now()
			for i := 0; i < n; i++ {
				plan.Choose(q, col.View(q.Tags()))
			}
			m["plan_choose_ns"] = metric{Value: float64(time.Since(start)) / n, Unit: "ns", Samples: n}
		}
	}
	return nil
}

// ledgerStream merges four shards' worth of materialized matches the
// way a sharded scan does.
func ledgerStream(m map[string]metric) error {
	const parts, each = 4, 25000
	its := make([]stream.Iterator, parts)
	for i := range its {
		its[i] = stream.FromMatches(make([]core.Match, each))
	}
	start := time.Now()
	out, err := stream.Drain(stream.Concat(its, 2))
	if err != nil || len(out) != parts*each {
		return fmt.Errorf("merged %d of %d rows: %v", len(out), parts*each, err)
	}
	m["stream_merge_rows_per_s"] = metric{Value: parts * each / time.Since(start).Seconds(), Unit: "rows/s", Samples: parts * each}
	return nil
}

// ledgerDurable loads the fragmented database into a durable backend
// and measures what surrounds the journal: replay on reopen, a follower
// catching up from empty over the replication wire, a compaction, the
// frame codec, and the handler and the socket on top.
func ledgerDurable(m map[string]metric, sc scale, workDir string) error {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workDir, "ledger-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	db := newDatabase(sc, wlZipf, 1)
	primary, _, err := openDurable(dir + "/primary")
	if err != nil {
		return err
	}
	if err := seed(primary, db, true); err != nil {
		return err
	}
	if err := primary.Close(); err != nil {
		return err
	}

	start := time.Now()
	primary, _, err = openDurable(dir + "/primary")
	if err != nil {
		return err
	}
	defer primary.Close()
	records := replRecords(primary)
	m["journal_replay_records_per_s"] = metric{Value: float64(records) / time.Since(start).Seconds(), Unit: "1/s", Samples: int(records)}

	if err := ledgerFollower(m, primary, dir+"/follower", records); err != nil {
		return err
	}

	start = time.Now()
	if err := primary.Compact(); err != nil {
		return err
	}
	m["journal_compact_ms"] = metric{Value: ms(time.Since(start)), Unit: "ms", Samples: 1}

	// The frame codec, on payloads the size of a re-seed chunk.
	payload := bytes.Repeat([]byte("x"), 256<<10)
	const frames = 200
	var buf bytes.Buffer
	start = time.Now()
	for i := 0; i < frames; i++ {
		buf.Reset()
		if err := repl.WriteFrame(&buf, 1, payload); err != nil {
			return err
		}
		if _, _, err := repl.ReadFrame(&buf); err != nil {
			return err
		}
	}
	m["repl_frame_mb_per_s"] = metric{Value: float64(frames*len(payload)) / (1 << 20) / time.Since(start).Seconds(), Unit: "MB/s", Samples: frames}

	// The handler's NDJSON encode on a whole-collection scan, and the
	// socket under the smallest request there is.
	h := newHandler(primary)
	scan := op{kind: opScan, class: clsScan, doc: -1, path: scanPath, want: -1}
	rows := 0
	took := timed(sc.ledgerIters, func(int) {
		res, err := (&recorderExec{h: h}).do(&scan)
		if err != nil {
			panic(err) // a read of a store this function seeded
		}
		rows = res.rows
	})
	m["server_ndjson_rows_per_s"] = metric{Value: float64(rows) / took.Seconds(), Unit: "rows/s", Samples: sc.ledgerIters}
	ts := httptest.NewServer(h)
	defer ts.Close()
	health := func(send func(*http.Request)) time.Duration {
		return timed(200, func(int) {
			req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil) // a constant, valid URL
			send(req)
		})
	}
	overWire := health(func(req *http.Request) {
		if resp, err := ts.Client().Do(req); err == nil {
			resp.Body.Close()
		}
	})
	inProcess := health(func(req *http.Request) { h.ServeHTTP(httptest.NewRecorder(), req) })
	m["wire_roundtrip_us"] = metric{Value: us(overWire - inProcess), Unit: "us", Samples: 200}
	return nil
}

// replRecords is how many records the backend's journals have ever
// appended: the replication positions summed over shards and logs.
func replRecords(sc *lazyxml.ShardedCollection) int64 {
	var n int64
	for _, st := range sc.ShardStats() {
		n += st.Seq + st.DocSeq
	}
	return n
}

// ledgerFollower starts a follower on an empty directory against the
// primary and times it until it has applied every record.
func ledgerFollower(m map[string]metric, primary *lazyxml.ShardedCollection, dir string, records int64) error {
	p, err := repl.NewPrimary(primary, repl.PrimaryConfig{})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() { served <- p.Serve(ln) }()
	defer func() {
		p.Close()
		<-served
	}()

	fsc, err := lazyxml.OpenShardedCollection(dir, shards, lazyxml.LD, nil, lazyxml.WithSync())
	if err != nil {
		return err
	}
	defer fsc.Close()
	f, err := repl.NewFollower(fsc, ln.Addr().String(), repl.FollowerConfig{})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() { done <- f.Run(ctx) }()
	defer func() {
		cancel()
		<-done
	}()
	for deadline := start.Add(60 * time.Second); replRecords(fsc) < records; {
		if time.Now().After(deadline) {
			return fmt.Errorf("follower applied %d of %d records in 60 s: %s", replRecords(fsc), records, f.Status().LastError)
		}
		time.Sleep(2 * time.Millisecond)
	}
	m["repl_catchup_records_per_s"] = metric{Value: float64(records) / time.Since(start).Seconds(), Unit: "1/s", Samples: int(records)}
	return sameDocuments(primary, fsc)
}

// sameDocuments requires the follower to be consistent and to hold the
// primary's documents byte for byte.
func sameDocuments(primary, follower lazyxml.Backend) error {
	if err := follower.CheckConsistency(); err != nil {
		return fmt.Errorf("follower: %w", err)
	}
	for _, name := range primary.Names() {
		want, err := primary.Text(name)
		if err != nil {
			return err
		}
		got, err := follower.Text(name)
		if err != nil || !bytes.Equal(got, want) {
			return fmt.Errorf("follower's %s differs from the primary's (%v)", name, err)
		}
	}
	return nil
}
