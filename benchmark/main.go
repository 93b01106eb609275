// Command benchmark is the repository's one benchmark: four named
// workloads driven closed-loop against the daemon as an operator runs
// it, end-to-end metrics from an untraced run, and a per-layer ledger
// measured from outside by timing calls into each layer's public
// functions. README.md in this directory is the glossary.
//
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//	        one run of one workload; the last line of output is the result
//	bash benchmark/run.sh [-scale smoke|full] [-seed N] [-repeat N] [-out FILE]
//	        every workload, untraced and traced, plus the layer ledger
//	bash benchmark/run.sh -compare BEFORE.json AFTER.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		root      = flag.String("root", ".", "root of the checkout; databases and build outputs go under its .bench_build/, results under its benchmark/out/")
		workload  = flag.String("workload", "", "run only this workload and print one result line: "+fmt.Sprint(workloadNames))
		seed      = flag.Int64("seed", 1, "seed of the operation stream and of the documents")
		seconds   = flag.Float64("seconds", 0, "length of the measured phase (default: 15 at full scale, 0.5 at smoke)")
		trace     = flag.Int("trace", 0, "with -workload: 1 runs the traced pass and prints the per-layer metrics")
		scaleName = flag.String("scale", "full", "size of everything: smoke or full")
		repeat    = flag.Int("repeat", 1, "untraced runs per workload; medians and quartiles are reported")
		out       = flag.String("out", "", "where to write the result (default benchmark/out/result.json)")
		compare   = flag.Bool("compare", false, "compare two result files given as arguments")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	sc, ok := scales[*scaleName]
	if !ok {
		return fmt.Errorf("unknown scale %q: smoke or full", *scaleName)
	}
	if *seconds <= 0 {
		*seconds = 15
		if sc.name == "smoke" {
			*seconds = 0.5
		}
	}
	outDir := filepath.Join(*root, "benchmark", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, sc: sc, workDir: workDirFor(*root)}
	if *workload == "" {
		if *out == "" {
			*out = filepath.Join(outDir, "result.json")
		}
		return runAll(cfg, *repeat, *root, outDir, *out, os.Stdout)
	}
	if _, ok := classes[*workload]; !ok {
		return fmt.Errorf("unknown workload %q: one of %v", *workload, workloadNames)
	}
	if *trace == 1 {
		tr, err := runTraced(cfg, outDir)
		if err != nil {
			return err
		}
		// The ledger does not depend on the workload; a traced run of any
		// workload carries it, so that one such run gives every layer.
		ledger, err := runLedger(sc, cfg.workDir)
		if err != nil {
			return err
		}
		for name, m := range ledger {
			tr.PerLayer[name] = m
		}
		printMetrics(tr.PerLayer)
		return printResultLine(tr.Correct, tr.Attempted, tr.Failed, tr.Problems, tr.PerLayer)
	}
	res, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("%s seed %d: op stream %v\n", res.Workload, res.Seed, res.StreamHash)
	printMetrics(res.Detail)
	printMetrics(res.EndToEnd)
	return printResultLine(res.Correct, res.Attempted, res.Failed, res.Problems, res.EndToEnd)
}

// printMetrics lists metrics by name with value, unit and sample count.
func printMetrics(m map[string]metric) {
	for _, n := range sortedKeys(m) {
		fmt.Printf("  %-28s %14.4f %-8s n=%d\n", n, m[n].Value, m[n].Unit, m[n].Samples)
	}
}

// printResultLine prints the single JSON object a driver reads from the
// last line of standard output, and fails the command when any
// operation or check failed.
func printResultLine(correct bool, attempted, failed int, problems []string, metrics map[string]metric) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, map[string]value{}}
	for n, m := range metrics {
		line.Metrics[n] = value{m.Value, m.Unit}
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "benchmark: FAILED:", p)
	}
	enc, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(enc))
	if !correct {
		return fmt.Errorf("%d of %d operations and checks failed", failed, attempted)
	}
	return nil
}
