package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	lazyxml "repro"
)

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	sc       scale
	workDir  string // databases under test are created (and removed) here
}

// runResult is what one untraced run measured.
type runResult struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	StreamHash []string          `json:"op_stream_hash"` // per client, over every operation it produced
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Correct    bool              `json:"correct"`
	Problems   []string          `json:"problems,omitempty"`
	EndToEnd   map[string]metric `json:"end_to_end"`
	Detail     map[string]metric `json:"detail"`
}

// maxProblems caps the failure messages a run keeps.
const maxProblems = 10

// clientTally is what one client observed during the measured window.
type clientTally struct {
	latency   map[string][]float64 // class → ms per request
	ttfb      []float64            // unlimited scans: ms to the first row
	scanRows  map[int]int          // unlimited scans: row count → how often seen
	rows      int                  // rows delivered by streamed requests
	ops       int                  // logical operations started inside the window
	done      []completion         // when each of them completed
	attempted int                  // logical operations sent, warm-up included
	failed    int
	problems  []string
	lastDone  time.Time
}

// completion is one measured request: when it completed, as time since
// the measured window opened, and how many logical operations it carried.
type completion struct {
	at  time.Duration
	ops int
}

// rateShares is how many consecutive equal shares the measured
// operations are cut into; ops_per_s is the median of the shares'
// rates, so that one disturbed stretch of a run on a shared machine
// does not set the run's throughput.
const rateShares = 10

// medianRate cuts the completions, in time order, into rateShares runs
// of equal operation count and returns the median of their rates.
func medianRate(done []completion, ops int) float64 {
	sort.Slice(done, func(i, j int) bool { return done[i].at < done[j].at })
	var rates []float64
	var shareStart time.Duration
	seen, counted := 0, 0
	for _, c := range done {
		seen += c.ops
		if share := len(rates) + 1; seen*rateShares >= share*ops && c.at > shareStart {
			rates = append(rates, float64(seen-counted)/(c.at-shareStart).Seconds())
			shareStart, counted = c.at, seen
		}
	}
	return median(rates)
}

// runClient drives one closed-loop client: the next request goes out
// only after the previous reply has been read. Requests sent before
// from are warm-up and are not measured; none is sent after until.
func runClient(x executor, g *generator, from, until time.Time) *clientTally {
	t := &clientTally{latency: map[string][]float64{}, scanRows: map[int]int{}}
	for {
		start := time.Now()
		if !start.Before(until) {
			return t
		}
		o := g.next()
		res, err := x.do(&o)
		done := time.Now()
		t.attempted += o.logical()
		if err != nil {
			var oe *opError
			if errors.As(err, &oe) {
				t.failed += oe.failed
			} else {
				t.failed += o.logical()
			}
			if len(t.problems) < maxProblems {
				t.problems = append(t.problems, fmt.Sprintf("op %d (%s): %v", g.n-1, o.class, err))
			}
			continue
		}
		if start.Before(from) {
			continue
		}
		t.ops += o.logical()
		t.done = append(t.done, completion{done.Sub(from), o.logical()})
		t.lastDone = done
		t.latency[o.class] = append(t.latency[o.class], ms(done.Sub(start)))
		if o.kind == opScan {
			t.rows += res.rows
			if o.limit == 0 {
				t.ttfb = append(t.ttfb, ms(res.firstRow.Sub(start)))
				t.scanRows[res.rows]++
			}
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// repeatBudget and maxRepeats bound how often a run repeats its set-up
// and its recovery: at least sc.repeats times, then on while all of
// them together have taken less than the budget, so that a cheap one is
// the median of many and an expensive one does not eat the run.
const (
	repeatBudget = 3.0 // seconds
	maxRepeats   = 15
)

func enough(sc scale, took []float64) bool {
	total := 0.0
	for _, t := range took {
		total += t
	}
	return len(took) >= sc.repeats && (total >= repeatBudget || len(took) >= maxRepeats)
}

// setUp seeds a fresh database for the workload several times and
// returns the last system, left running, with the median time one
// set-up took: from opening the empty directory to a seeded daemon
// ready for its first request.
func setUp(cfg runConfig, db *database) (*system, string, metric, error) {
	var took []float64
	for {
		dir, err := os.MkdirTemp(cfg.workDir, "db-")
		if err != nil {
			return nil, "", metric{}, err
		}
		start := time.Now()
		sys, err := openSystem(dir)
		if err != nil {
			return nil, "", metric{}, err
		}
		if err := seed(sys.sc, db, true); err != nil {
			sys.close()
			return nil, "", metric{}, err
		}
		took = append(took, time.Since(start).Seconds())
		if enough(cfg.sc, took) {
			return sys, dir, metric{Value: median(took), Unit: "s", Samples: len(took)}, nil
		}
		if err := sys.close(); err != nil {
			return nil, "", metric{}, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, "", metric{}, err
		}
	}
}

// runWorkload performs one untraced run: set-up, the measured
// closed-loop phase, then the close-out (live heap, oracle, recovery).
func runWorkload(cfg runConfig) (*runResult, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	db := newDatabase(cfg.sc, cfg.workload, cfg.seed)
	sys, dir, setup, err := setUp(cfg, db)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	gens := make([]*generator, clients)
	tallies := make([]*clientTally, clients)
	warm := time.Duration(cfg.seconds * 0.1 * float64(time.Second))
	from := time.Now().Add(warm)
	until := from.Add(time.Duration(cfg.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		gens[c] = newGenerator(cfg.workload, cfg.seed, c, db)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			x := &wireExec{client: &http.Client{Transport: sys.ts.Client().Transport}, base: sys.ts.URL, names: db.names}
			tallies[c] = runClient(x, gens[c], from, until)
		}(c)
	}
	wg.Wait()

	res := &runResult{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds,
		EndToEnd: map[string]metric{"setup_s": setup}, Detail: map[string]metric{},
	}
	total := &clientTally{latency: map[string][]float64{}, scanRows: map[int]int{}}
	for c, t := range tallies {
		res.StreamHash = append(res.StreamHash, gens[c].hash())
		for class, l := range t.latency {
			total.latency[class] = append(total.latency[class], l...)
		}
		for rows, n := range t.scanRows {
			total.scanRows[rows] += n
		}
		total.ttfb = append(total.ttfb, t.ttfb...)
		total.rows += t.rows
		total.ops += t.ops
		total.done = append(total.done, t.done...)
		res.Attempted += t.attempted
		res.Failed += t.failed
		res.Problems = append(res.Problems, t.problems...)
		if t.lastDone.After(total.lastDone) {
			total.lastDone = t.lastDone
		}
	}
	wall := total.lastDone.Sub(from).Seconds()
	if total.ops == 0 || wall <= 0 {
		return nil, fmt.Errorf("%s: no operation completed inside the measured window", cfg.workload)
	}
	summarize(res, total, wall)
	res.EndToEnd["live_heap_mb"] = liveHeap()
	cache, lane := sys.qp.Stats().Cache, laneTotals(sys.sc)
	res.Detail["plan_cache_hit_ratio"] = ratio(float64(cache.Hits), float64(cache.Hits+cache.Misses), "ratio")
	res.Detail["journal_ops_per_commit"] = ratio(float64(lane.Ops), float64(lane.Batches), "count")
	res.Detail["segments"] = metric{Value: float64(sys.sc.Stats().Segments), Unit: "count"}

	// Close-out. The oracle runs on the live backend, then the backend
	// is abandoned and reopened several times; the last reopened
	// one must hold exactly what the model holds, too.
	paths := gens[0].queryPaths()
	check := func(what string, err error) {
		res.Attempted++
		if err != nil {
			res.Failed++
			if len(res.Problems) < maxProblems {
				res.Problems = append(res.Problems, what+": "+err.Error())
			}
		}
	}
	check("live backend against the model", checkAgainstModel(sys.sc, db))
	check("live backend against a fresh parse", checkAgainstFreshParse(sys.sc, db, paths, total.scanRows))
	recovery, reopened, err := recoverAndTime(sys, dir, cfg.sc)
	if err != nil {
		return nil, err
	}
	res.EndToEnd["recovery_s"] = recovery
	check("reopened backend against the model", checkAgainstModel(reopened.sc, db))
	if err := reopened.close(); err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// summarize turns the merged tallies into the end-to-end metrics and
// the typed per-class detail.
func summarize(res *runResult, t *clientTally, wall float64) {
	res.EndToEnd["ops_per_s"] = metric{Value: medianRate(t.done, t.ops), Unit: "ops/s", Samples: t.ops}
	res.Detail["mean_ops_per_s"] = metric{Value: float64(t.ops) / wall, Unit: "ops/s", Samples: t.ops}
	for class, l := range t.latency {
		s := sortedCopy(l)
		res.Detail[class+"_p50_ms"] = metric{Value: quantile(s, 0.5), Unit: "ms", Samples: len(s)}
		if p, ok := highestPercentile(len(s)); ok && p > 0.5 {
			res.Detail[fmt.Sprintf("%s_p%g_ms", class, p*100)] = metric{Value: quantile(s, p), Unit: "ms", Samples: len(s)}
		}
	}
	if len(t.ttfb) > 0 {
		res.Detail["ttfb_p50_ms"] = metric{Value: median(t.ttfb), Unit: "ms", Samples: len(t.ttfb)}
		res.Detail["rows_per_s"] = metric{Value: float64(t.rows) / wall, Unit: "rows/s", Samples: t.rows}
	}
	primary, secondary := sortedCopy(t.latency[classes[res.Workload][0]]), sortedCopy(t.latency[classes[res.Workload][1]])
	res.EndToEnd["primary_p50_ms"] = metric{Value: quantile(primary, 0.5), Unit: "ms", Samples: len(primary)}
	res.EndToEnd["secondary_p50_ms"] = metric{Value: quantile(secondary, 0.5), Unit: "ms", Samples: len(secondary)}
}

// liveHeap is the heap still reachable after a forced collection: the
// daemon's indexes, views and caches, plus the benchmark's own model
// and samples, which do not change between commits.
func liveHeap() metric {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return metric{Value: float64(m.HeapAlloc) / (1 << 20), Unit: "MiB"}
}

// recoverAndTime abandons the running system without closing it and
// reopens its directory several times, each timed until the first
// query is answered over HTTP. It returns the median and the last
// reopened system.
func recoverAndTime(sys *system, dir string, sc scale) (metric, *system, error) {
	var took []float64
	for !enough(sc, took) {
		sys.abandon()
		start := time.Now()
		next, err := openSystem(dir)
		if err != nil {
			return metric{}, nil, fmt.Errorf("reopening after abandon: %w", err)
		}
		first := op{kind: opCount, doc: -1, path: "person//phone", want: -1}
		x := &wireExec{client: next.ts.Client(), base: next.ts.URL}
		if _, err := x.do(&first); err != nil {
			return metric{}, nil, fmt.Errorf("first query after reopen: %w", err)
		}
		took = append(took, time.Since(start).Seconds())
		// Only now, with its successor answering, are the abandoned
		// backend's files and commit lanes released.
		if err := sys.sc.Close(); err != nil {
			return metric{}, nil, fmt.Errorf("releasing the abandoned backend: %w", err)
		}
		sys = next
	}
	return metric{Value: median(took), Unit: "s", Samples: len(took)}, sys, nil
}

// checkAgainstModel verifies the store's own invariants and that every
// document's text equals the model's, byte for byte.
func checkAgainstModel(b lazyxml.Backend, db *database) error {
	if err := b.CheckConsistency(); err != nil {
		return fmt.Errorf("CheckConsistency: %w", err)
	}
	for _, d := range db.shadows {
		text, err := b.Text(d.name)
		if err != nil {
			return fmt.Errorf("reading %s: %w", d.name, err)
		}
		if !bytes.Equal(text, d.text) {
			return fmt.Errorf("%s: store holds %d bytes, the model %d, and they differ", d.name, len(text), len(d.text))
		}
	}
	return nil
}

// checkAgainstFreshParse builds an in-memory collection from the
// model's final texts, with no update history at all, and requires the
// store to count every path exactly as it does. On a read-only
// workload every unlimited scan must also have delivered that count.
func checkAgainstFreshParse(b lazyxml.Backend, db *database, paths []string, scanRows map[int]int) error {
	fresh := lazyxml.NewCollection(lazyxml.LD)
	for _, d := range db.shadows {
		if err := fresh.Put(d.name, d.text); err != nil {
			return fmt.Errorf("fresh parse of %s: %w", d.name, err)
		}
	}
	for _, path := range paths {
		want, err := fresh.Count(path)
		if err != nil {
			return fmt.Errorf("fresh count of %s: %w", path, err)
		}
		got, err := b.Count(path)
		if err != nil {
			return fmt.Errorf("count of %s: %w", path, err)
		}
		if got != want {
			return fmt.Errorf("%s: store counts %d, a fresh parse %d", path, got, want)
		}
		if path == scanPath {
			for rows := range scanRows {
				if rows != want {
					return fmt.Errorf("%s: a scan delivered %d rows, a fresh parse has %d", path, rows, want)
				}
			}
		}
	}
	return nil
}

func workDirFor(root string) string { return filepath.Join(root, ".bench_build", "work") }
