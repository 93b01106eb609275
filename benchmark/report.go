package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// metricDef is one end-to-end metric: what BENCHMARK.json lists, and
// what -compare judges by.
type metricDef struct {
	name   string
	unit   string
	higher bool    // true when a higher value is better
	bound  float64 // share of the baseline's median it may worsen by
}

// endToEnd is the gated set. Every workload reports every one of them;
// README.md says what primary and secondary mean on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", false, 0.25},
	{"ops_per_s", "ops/s", true, 0.20},
	{"primary_p50_ms", "ms", false, 0.25},
	{"secondary_p50_ms", "ms", false, 0.25},
	{"recovery_s", "s", false, 0.25},
	{"live_heap_mb", "MiB", false, 0.10},
}

// whys is the one-sentence reason each workload exists, as BENCHMARK.json
// carries it.
var whys = map[string]string{
	wlIngest: "100% writes in 8-op batches: journal, commit lane and fsync do the work, so write-path changes must show here and read-side changes must not",
	wlMixed:  "70% document queries, 30% single-op updates: nearly every read follows a write, so view build and the paper's one-segment update are both on the blocking path",
	wlZipf:   "98% zipf-skewed queries on a database of thousands of segments, working set above the result cache: plan, cache and Lazy-Join do the work, the journal almost none",
	wlScan:   "read-only streamed scans of ~30k rows and their limit=100 twins on one-segment documents: join emit, merge, NDJSON encode and the wire, with journal, view build and cache bypassed",
}

// stamp says where and how a result was measured.
type stamp struct {
	Commit      string  `json:"commit"`
	GoVersion   string  `json:"go_version"`
	CPU         string  `json:"cpu_model"`
	NumCPU      int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Filesystem  string  `json:"filesystem"`
	Seed        int64   `json:"seed"`
	Scale       string  `json:"scale"`
	Seconds     float64 `json:"seconds"`
	Clients     int     `json:"clients"`
	Shards      int     `json:"shards"`
	FlushPolicy string  `json:"flush_policy"`
	When        string  `json:"when"`
}

func newStamp(cfg runConfig, root string) stamp {
	st := stamp{
		Commit: "unknown", GoVersion: runtime.Version(), CPU: "unknown", NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Filesystem: "unknown", Seed: cfg.seed, Scale: cfg.sc.name,
		Seconds: cfg.seconds, Clients: clients, Shards: shards, FlushPolicy: flushPolicy,
		When: time.Now().UTC().Format(time.RFC3339),
	}
	// Best effort, all three: a checkout that is not a git repository, or
	// a system without /proc, still gets a result.
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		st.Commit = strings.TrimSpace(string(out))
	}
	if cpuinfo, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(cpuinfo), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				st.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if abs, err := filepath.Abs(cfg.workDir); err == nil {
		if mounts, err := os.ReadFile("/proc/mounts"); err == nil {
			best := ""
			for _, line := range strings.Split(string(mounts), "\n") {
				f := strings.Fields(line)
				if len(f) >= 3 && strings.HasPrefix(abs, f[1]) && len(f[1]) > len(best) {
					best, st.Filesystem = f[1], f[2]
				}
			}
		}
	}
	return st
}

// workloadReport is everything measured on one workload.
type workloadReport struct {
	Why      string            `json:"why"`
	Runs     []*runResult      `json:"runs"`
	EndToEnd map[string]spread `json:"end_to_end"`
	Detail   map[string]spread `json:"detail"`
	Units    map[string]string `json:"units"`
	Traced   *tracedResult     `json:"traced,omitempty"`
}

// resultFile is the one result schema: benchmark/out/result.json.
type resultFile struct {
	Stamp     stamp                      `json:"stamp"`
	Workloads map[string]*workloadReport `json:"workloads"`
	Layers    map[string]metric          `json:"layers"`
}

// runAll runs every workload repeat times (each repeat with its own
// seed and, rotating with repeat and seed, its own order of workloads),
// then the traced pass of each,
// then the layer ledger, prints the tables and writes the result file.
func runAll(cfg runConfig, repeat int, root, outDir, out string, tables io.Writer) error {
	rf := &resultFile{Stamp: newStamp(cfg, root), Workloads: map[string]*workloadReport{}}
	for _, w := range workloadNames {
		rf.Workloads[w] = &workloadReport{Why: whys[w], EndToEnd: map[string]spread{}, Detail: map[string]spread{}, Units: map[string]string{}}
	}
	failed := 0
	for rep := 0; rep < repeat; rep++ {
		for i := range workloadNames {
			c := cfg
			c.workload = workloadNames[(i+rep+int(cfg.seed))%len(workloadNames)]
			c.seed = cfg.seed + int64(rep)
			fmt.Fprintf(os.Stderr, "benchmark: %s, run %d of %d\n", c.workload, rep+1, repeat)
			res, err := runWorkload(c)
			if err != nil {
				return err
			}
			rf.Workloads[c.workload].Runs = append(rf.Workloads[c.workload].Runs, res)
			failed += res.Failed
			for _, p := range res.Problems {
				fmt.Fprintln(os.Stderr, "benchmark: FAILED:", p)
			}
		}
	}
	for _, w := range workloadNames {
		c := cfg
		c.workload = w
		fmt.Fprintf(os.Stderr, "benchmark: %s, traced pass\n", w)
		tr, err := runTraced(c, outDir)
		if err != nil {
			return err
		}
		rf.Workloads[w].Traced = tr
		failed += tr.Failed
		for _, p := range tr.Problems {
			fmt.Fprintln(os.Stderr, "benchmark: FAILED:", p)
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark: layer ledger")
	ledger, err := runLedger(cfg.sc, cfg.workDir)
	if err != nil {
		return err
	}
	rf.Layers = ledger
	for _, rep := range rf.Workloads {
		rep.summarize()
	}
	rf.print(tables)
	enc, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, enc, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(tables, "\nresult written to %s\n", out)
	if failed > 0 {
		return fmt.Errorf("%d operations or checks failed", failed)
	}
	return nil
}

// summarize reduces the runs to a median and quartiles per metric.
func (rep *workloadReport) summarize() {
	collect := func(pick func(*runResult) map[string]metric, into map[string]spread) {
		values := map[string][]float64{}
		for _, r := range rep.Runs {
			for name, m := range pick(r) {
				values[name] = append(values[name], m.Value)
				rep.Units[name] = m.Unit
			}
		}
		for name, v := range values {
			into[name] = newSpread(v)
		}
	}
	collect(func(r *runResult) map[string]metric { return r.EndToEnd }, rep.EndToEnd)
	collect(func(r *runResult) map[string]metric { return r.Detail }, rep.Detail)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// print writes the human-readable tables: every end-to-end metric by
// name and unit for every workload, the typed detail, the self times of
// the traced pass, and the ledger.
func (rf *resultFile) print(w io.Writer) {
	st := rf.Stamp
	fmt.Fprintf(w, "commit %s · %s · %s · nproc %d · GOMAXPROCS %d · %s · seed %d · scale %s · %gs · %d clients · %d shards · %s\n",
		st.Commit, st.GoVersion, st.CPU, st.NumCPU, st.GOMAXPROCS, st.Filesystem, st.Seed, st.Scale, st.Seconds, st.Clients, st.Shards, st.FlushPolicy)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, name := range workloadNames {
		rep := rf.Workloads[name]
		fmt.Fprintf(tw, "\n%s\t(%d runs)\tmedian\tq1\tq3\tunit\n", name, len(rep.Runs))
		for _, def := range endToEnd {
			sp := rep.EndToEnd[def.name]
			fmt.Fprintf(tw, "  %s\t\t%.4f\t%.4f\t%.4f\t%s\n", def.name, sp.Median, sp.Q1, sp.Q3, def.unit)
		}
		for _, n := range sortedKeys(rep.Detail) {
			sp := rep.Detail[n]
			fmt.Fprintf(tw, "  · %s\t\t%.4f\t%.4f\t%.4f\t%s\n", n, sp.Median, sp.Q1, sp.Q3, rep.Units[n])
		}
		if tr := rep.Traced; tr != nil {
			fmt.Fprintf(tw, "  self time, µs (traced, %d ops)\t%s\n", tr.Ops, strings.Join(layers, "\t"))
			for _, class := range sortedKeys(tr.SelfTimes) {
				fmt.Fprintf(tw, "  · %s\t", class)
				for _, layer := range layers {
					if m, ok := tr.SelfTimes[class][layer]; ok {
						fmt.Fprintf(tw, "%.1f\t", m.Value)
					} else {
						fmt.Fprint(tw, "-\t")
					}
				}
				fmt.Fprintln(tw)
			}
			for _, n := range sortedKeys(tr.PerLayer) {
				if !strings.HasPrefix(n, "self_") {
					fmt.Fprintf(tw, "  · %s\t\t%.4f\t\t\t%s\n", n, tr.PerLayer[n].Value, tr.PerLayer[n].Unit)
				}
			}
		}
	}
	fmt.Fprintf(tw, "\nlayers\t\tvalue\t\t\tunit\n")
	for _, n := range sortedKeys(rf.Layers) {
		fmt.Fprintf(tw, "  %s\t\t%.4f\t\t\t%s\n", n, rf.Layers[n].Value, rf.Layers[n].Unit)
	}
	tw.Flush()
}

// compareFiles prints one row per end-to-end metric and workload: both
// medians, the ratio with its base, and a verdict. A pair whose runs
// spread wider than the metric's bound is unresolved, never unchanged.
func compareFiles(w io.Writer, beforePath, afterPath string) error {
	load := func(path string) (*resultFile, error) {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		rf := &resultFile{}
		if err := json.Unmarshal(raw, rf); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return rf, nil
	}
	before, err := load(beforePath)
	if err != nil {
		return err
	}
	after, err := load(afterPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "before: %s (commit %s, %s)\nafter:  %s (commit %s, %s)\n\n",
		beforePath, before.Stamp.Commit, before.Stamp.When, afterPath, after.Stamp.Commit, after.Stamp.When)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbefore\tafter\tunit\tafter/before\tbound\tspread\tverdict")
	for _, name := range workloadNames {
		b, a := before.Workloads[name], after.Workloads[name]
		if b == nil || a == nil {
			continue
		}
		for _, def := range endToEnd {
			sb, sa := b.EndToEnd[def.name], a.EndToEnd[def.name]
			fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.4f\t%s\t%.3f× of %.4f\t%.0f%%\t%.1f%%\t%s\n",
				name, def.name, sb.Median, sa.Median, def.unit, sa.Median/sb.Median, sb.Median,
				def.bound*100, 100*max(sb.IQR, sa.IQR), verdict(def, sb, sa))
		}
	}
	return tw.Flush()
}

// verdict judges one metric on one workload between two results.
func verdict(def metricDef, before, after spread) string {
	if max(before.IQR, after.IQR) > def.bound {
		return "unresolved"
	}
	change := (after.Median - before.Median) / before.Median // positive: the value rose
	if def.higher {
		change = -change
	}
	switch { // positive change now means worse
	case change > def.bound:
		return "regressed"
	case change < -def.bound:
		return "improved"
	default:
		return "unchanged"
	}
}
