package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
	"time"

	lazyxml "repro"
)

// TestSmokeRun is the whole command at smoke scale: every workload
// untraced and traced, the ledger, the result file. It keeps the
// harness compiling and its checks passing as the engine changes.
func TestSmokeRun(t *testing.T) {
	root := t.TempDir()
	outDir := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		t.Fatal(err)
	}
	cfg := runConfig{seed: 42, seconds: 0.2, sc: scales["smoke"], workDir: workDirFor(root)}
	out := filepath.Join(outDir, "result.json")
	if err := runAll(cfg, 1, root, outDir, out, io.Discard); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rf resultFile
	if err := json.Unmarshal(raw, &rf); err != nil {
		t.Fatal(err)
	}
	if rf.Stamp.FlushPolicy != flushPolicy || rf.Stamp.Scale != "smoke" || rf.Stamp.GoVersion == "" {
		t.Errorf("stamp incomplete: %+v", rf.Stamp)
	}
	for _, w := range workloadNames {
		rep := rf.Workloads[w]
		if rep == nil || len(rep.Runs) != 1 || !rep.Runs[0].Correct || rep.Traced == nil || !rep.Traced.Correct {
			t.Fatalf("%s: missing or incorrect run: %+v", w, rep)
		}
		for _, def := range endToEnd {
			if m := rep.Runs[0].EndToEnd[def.name]; !(m.Value > 0) || m.Unit != def.unit {
				t.Errorf("%s: %s = %v %q, want a positive value in %s", w, def.name, m.Value, m.Unit, def.unit)
			}
		}
		for _, layer := range layers {
			if _, ok := rep.Traced.PerLayer["self_"+layer+"_us"]; !ok {
				t.Errorf("%s: no self time for layer %s", w, layer)
			}
		}
		var spans []span
		traceRaw, err := os.ReadFile(filepath.Join(outDir, "trace-"+w+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(traceRaw, &spans); err != nil || len(spans) < cfg.sc.traceOps {
			t.Errorf("%s: trace file holds %d spans (%v)", w, len(spans), err)
		}
	}
	if len(rf.Layers) == 0 {
		t.Error("no layer ledger in the result")
	}
	t.Run("BENCHMARK.json", func(t *testing.T) {
		perLayer := map[string]metric{}
		for name, m := range rf.Workloads[wlMixed].Traced.PerLayer {
			perLayer[name] = m
		}
		for name, m := range rf.Layers {
			perLayer[name] = m
		}
		checkBenchmarkJSON(t, perLayer)
	})
}

// checkBenchmarkJSON holds BENCHMARK.json to what the code reports: the
// workloads and their reasons, every end-to-end metric with unit,
// direction and bound, and every per-layer metric a traced run prints
// (perLayer is a smoke-scale traced run's).
func checkBenchmarkJSON(t *testing.T, perLayer map[string]metric) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", spec.Paths)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads listed, the code has %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] || w.Why != whys[w.Name] {
			t.Errorf("workload %d: %q / %q does not match the code", i, w.Name, w.Why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics listed, the code has %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		def := endToEnd[i]
		better := "lower"
		if def.higher {
			better = "higher"
		}
		if m.Name != def.name || m.Unit != def.unit || m.Better != better || m.Bound != def.bound {
			t.Errorf("end-to-end metric %d: %+v does not match %+v", i, m, def)
		}
	}

	// The per-layer names at full scale are the smoke run's with the
	// full scale's sizes in place of the smoke scale's.
	sized := regexp.MustCompile(`^(.*)_\d+(mb|seg)$`)
	full := scales["full"]
	want := map[string]string{}
	add := func(name, unit string) {
		m := sized.FindStringSubmatch(name)
		switch {
		case m == nil:
			want[name] = unit
		case m[2] == "mb":
			for _, mb := range full.ledgerTextMB {
				want[fmt.Sprintf("%s_%dmb", m[1], mb)] = unit
			}
		default:
			for _, segs := range full.ledgerSegs {
				want[fmt.Sprintf("%s_%dseg", m[1], segs)] = unit
			}
		}
	}
	for name, m := range perLayer {
		add(name, m.Unit)
	}
	got := map[string]string{}
	for _, m := range spec.PerLayer {
		got[m.Name] = m.Unit
	}
	for name, unit := range want {
		if got[name] != unit {
			t.Errorf("per-layer metric %s (%s) is reported but BENCHMARK.json has %q", name, unit, got[name])
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("BENCHMARK.json lists per-layer metric %s, which no traced run reports", name)
		}
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false}, {19, 0, false}, {20, 0.5, true}, {99, 0.5, true}, {100, 0.9, true}, {199, 0.9, true},
		{200, 0.95, true}, {999, 0.95, true}, {1000, 0.99, true}, {9999, 0.99, true}, {10000, 0.999, true},
	} {
		p, ok := highestPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
		if ok && math.Round(float64(c.n)*(1-p)) < 10 {
			t.Errorf("highestPercentile(%d) = %v leaves fewer than ten samples beyond it", c.n, p)
		}
	}
}

func TestQuantiles(t *testing.T) {
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	sp := newSpread(v)
	if sp.Q1 != 2.75 || sp.Median != 5.5 || sp.Q3 != 8.25 || math.Abs(sp.IQR-1) > 1e-12 {
		t.Errorf("spread of 1..10 = %+v", sp)
	}
	if q := quantile(sortedCopy(v), 0.95); math.Abs(q-9.55) > 1e-12 {
		t.Errorf("p95 of 1..10 = %v, want 9.55", q)
	}
}

// TestMedianRate: a stall in one share of the run does not set the
// reported throughput, and the rate is the true one when there is none.
func TestMedianRate(t *testing.T) {
	var steady, stalled []completion
	at := time.Duration(0)
	for i := 0; i < 1000; i++ {
		at += time.Millisecond
		steady = append(steady, completion{at, 2})
	}
	at = 0
	for i := 0; i < 1000; i++ {
		at += time.Millisecond
		if i == 500 {
			at += 300 * time.Millisecond
		}
		stalled = append(stalled, completion{at, 2})
	}
	for _, done := range [][]completion{steady, stalled} {
		if r := medianRate(done, 2000); math.Abs(r-2000) > 1 {
			t.Errorf("median rate = %v ops/s, want 2000", r)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{"primary_p50_ms", "ms", false, 0.10}
	higher := metricDef{"ops_per_s", "ops/s", true, 0.10}
	at := func(median, iqr float64) spread { return spread{Median: median, IQR: iqr} }
	for _, c := range []struct {
		def           metricDef
		before, after spread
		want          string
	}{
		{lower, at(10, 0.02), at(10.9, 0.02), "unchanged"},
		{lower, at(10, 0.02), at(11.5, 0.02), "regressed"},
		{lower, at(10, 0.02), at(8, 0.02), "improved"},
		{lower, at(10, 0.02), at(20, 0.30), "unresolved"},
		{higher, at(100, 0.02), at(85, 0.02), "regressed"},
		{higher, at(100, 0.02), at(120, 0.02), "improved"},
		{higher, at(100, 0.12), at(100, 0.02), "unresolved"},
	} {
		if got := verdict(c.def, c.before, c.after); got != c.want {
			t.Errorf("%s %v → %v: %s, want %s", c.def.name, c.before, c.after, got, c.want)
		}
	}
}

// TestGeneratorDeterminism: the same (workload, seed, client) gives the
// same operations byte for byte, whatever happens between them; another
// seed or another client gives other operations.
func TestGeneratorDeterminism(t *testing.T) {
	sc := scales["smoke"]
	stream := func(w string, seed int64, client int) string {
		g := newGenerator(w, seed, client, newDatabase(sc, w, seed))
		for i := 0; i < 400; i++ {
			g.next()
		}
		return g.hash()
	}
	for _, w := range workloadNames {
		a, b := stream(w, 7, 0), stream(w, 7, 0)
		if a != b {
			t.Errorf("%s: same seed, different streams: %s and %s", w, a, b)
		}
		if w == wlScan {
			continue // its two requests do not depend on the seed; its documents do
		}
		if c := stream(w, 8, 0); c == a {
			t.Errorf("%s: seeds 7 and 8 give the same stream", w)
		}
		if c := stream(w, 7, 1); c == a {
			t.Errorf("%s: clients 0 and 1 get the same stream", w)
		}
	}
}

// TestShadowAgainstCollection replays generated updates on an in-memory
// Collection and requires the model to track it exactly: the same text
// after every operation's document, and the model's own pair count for
// every two-step path equal to the engine's.
func TestShadowAgainstCollection(t *testing.T) {
	sc := scales["smoke"]
	for _, w := range []string{wlIngest, wlMixed, wlZipf} {
		db := newDatabase(sc, w, 3)
		col := lazyxml.NewCollection(lazyxml.LD)
		if err := seed(col, db, false); err != nil {
			t.Fatal(err)
		}
		g := newGenerator(w, 3, 0, db)
		x := &backendExec{b: col, names: db.names, serial: true}
		nested := 0
		for i := 0; i < 300; i++ {
			o := g.next()
			if _, err := x.do(&o); err != nil {
				t.Fatalf("%s op %d: %v", w, i, err)
			}
		}
		for _, d := range db.shadows {
			text, err := col.Text(d.name)
			if err != nil || string(text) != string(d.text) {
				t.Fatalf("%s: %s diverged from the model (%v)", w, d.name, err)
			}
			for i, path := range allPaths() {
				anc, desc, child, ok := twoStep(path)
				if !ok || i%4 != 0 {
					continue
				}
				want, err := col.CountDoc(d.name, path)
				if err != nil {
					t.Fatal(err)
				}
				if got := countPairs(d.text, anc, desc, child); got != want {
					t.Errorf("%s: %s on %s: model counts %d, engine %d", w, path, d.name, got, want)
				}
			}
			nested += countPairs(d.text, "person", "person", false)
		}
		if err := col.CheckConsistency(); err != nil {
			t.Error(err)
		}
		if w != wlZipf && nested == 0 {
			t.Errorf("%s: no inserted fragment ever landed inside another", w)
		}
	}
}

func TestSlotsAndExtents(t *testing.T) {
	d := &shadowDoc{name: "d", text: []byte(`<a><b x="1"/><c>t</c><d><e/></d></a>`)}
	r := rand.New(rand.NewSource(1))
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		seen[d.slot(r)] = true
	}
	var slots []int
	for s := range seen {
		slots = append(slots, s)
	}
	sort.Ints(slots)
	if fmt.Sprint(slots) != "[3 13 21 24 28 32]" {
		t.Errorf("slots = %v", slots)
	}
	if end := elementEnd(d.text, 21); string(d.text[21:end]) != "<d><e/></d>" {
		t.Errorf("element at 21 = %q", d.text[21:end])
	}
	if end := elementEnd(d.text, 3); string(d.text[3:end]) != `<b x="1"/>` {
		t.Errorf("element at 3 = %q", d.text[3:end])
	}
}
