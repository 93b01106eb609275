package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	lazyxml "repro"
	"repro/internal/faultline"
)

// The depths of the traced pass, outermost first. The same operations
// are replayed at each one against an identically seeded store, and a
// layer's self time is what its depth costs beyond the next one in.
const (
	layerWire       = "wire"       // loopback HTTP round trip
	layerServer     = "server"     // Handler().ServeHTTP into a recorder
	layerJournal    = "journal"    // durable ShardedCollection: WAL, commit lane, fsync
	layerCollection = "collection" // in-memory ShardedCollection: routing, plan, cache, stream
	layerCore       = "core"       // core.Store: the paper's update and Lazy-Join
)

var layers = []string{layerWire, layerServer, layerJournal, layerCollection, layerCore}

// span is one call at one depth. Spans of the same operation share
// Trace, its index in the stream; Parent names the layer one depth out,
// whose span of the same Trace is the one this call sits inside.
type span struct {
	Trace  int    `json:"trace"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`     // request class
	Start  int64  `json:"start_ns"` // since the depth's replay began
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
}

// tracedResult is what the traced pass of one workload measured.
type tracedResult struct {
	Workload   string                       `json:"workload"`
	Seed       int64                        `json:"seed"`
	Ops        int                          `json:"ops"`
	StreamHash string                       `json:"op_stream_hash"`
	Attempted  int                          `json:"attempted"`
	Failed     int                          `json:"failed"`
	Correct    bool                         `json:"correct"`
	Problems   []string                     `json:"problems,omitempty"`
	SelfTimes  map[string]map[string]metric `json:"self_times_us"` // class → layer → median self time
	PerLayer   map[string]metric            `json:"per_layer"`
	TraceFile  string                       `json:"trace_file"`
}

// replay runs ops through x in order, one at a time, and returns one
// span per operation the depth can express (nil when record is false:
// the untraced pass that tracing overhead is measured against).
func replay(x executor, layer string, ops []op, record bool, tr *tracedResult) ([]span, time.Duration) {
	parent := ""
	for i, l := range layers {
		if l == layer && i > 0 {
			parent = layers[i-1]
		}
	}
	var spans []span
	begin := time.Now()
	for i := range ops {
		start := time.Now()
		_, err := x.do(&ops[i])
		end := time.Now()
		if errors.Is(err, errNotAtDepth) {
			continue
		}
		tr.Attempted += ops[i].logical()
		if err != nil {
			tr.Failed += ops[i].logical()
			if len(tr.Problems) < maxProblems {
				tr.Problems = append(tr.Problems, fmt.Sprintf("%s depth, op %d (%s): %v", layer, i, ops[i].class, err))
			}
			continue
		}
		if record {
			spans = append(spans, span{Trace: i, Layer: layer, Name: ops[i].class,
				Start: int64(start.Sub(begin)), End: int64(end.Sub(begin)), Parent: parent})
		}
	}
	return spans, time.Since(begin)
}

// runTraced replays the first sc.traceOps operations of client 0's
// stream, single-client, at each depth, writes the spans to
// out/trace-<workload>.json and derives the per-layer numbers.
func runTraced(cfg runConfig, outDir string) (*tracedResult, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	db := newDatabase(cfg.sc, cfg.workload, cfg.seed)
	g := newGenerator(cfg.workload, cfg.seed, 0, db)
	ops := make([]op, cfg.sc.traceOps)
	userBytes, writes := 0, 0
	for i := range ops {
		ops[i] = g.next()
		ops[i].want = -1 // the model has moved on by the time an op is replayed
		for _, o := range append([]op{ops[i]}, ops[i].batch...) {
			if o.kind == opInsert || o.kind == opRemove {
				writes++
				userBytes += len(o.frag)
			}
		}
	}
	tr := &tracedResult{
		Workload: cfg.workload, Seed: cfg.seed, Ops: len(ops), StreamHash: g.hash(),
		PerLayer: map[string]metric{}, SelfTimes: map[string]map[string]metric{},
	}
	check := func(what string, err error) {
		tr.Attempted++
		if err != nil {
			tr.Failed++
			if len(tr.Problems) < maxProblems {
				tr.Problems = append(tr.Problems, what+": "+err.Error())
			}
		}
	}
	var all []span

	// core
	cx, err := newCoreExec(db)
	if err != nil {
		return nil, err
	}
	spans, _ := replay(cx, layerCore, ops, true, tr)
	all = append(all, spans...)
	check("core depth against the model", cx.checkAgainstModel(db))
	var builds, shared uint64
	for _, s := range cx.stores {
		vs := s.ViewStats()
		builds, shared = builds+vs.Builds, shared+vs.Shared
	}
	tr.PerLayer["core_view_builds"] = metric{Value: float64(builds), Unit: "count"}
	tr.PerLayer["core_view_shared"] = metric{Value: float64(shared), Unit: "count"}

	// in-memory collection
	mem := lazyxml.NewShardedCollection(shards, lazyxml.LD)
	mem.EnablePlanner(lazyxml.NewQueryPlanner(cacheBytes))
	if err := seed(mem, db, false); err != nil {
		return nil, err
	}
	spans, _ = replay(&backendExec{b: mem, names: db.names, serial: true}, layerCollection, ops, true, tr)
	all = append(all, spans...)
	check("collection depth against the model", checkAgainstModel(mem, db))

	// The three durable depths, then the same wire pass again without
	// recording spans.
	var tracedWire, untracedWire time.Duration
	for _, layer := range []string{layerJournal, layerServer, layerWire, "wire-untraced"} {
		dir, err := os.MkdirTemp(cfg.workDir, "trace-")
		if err != nil {
			return nil, err
		}
		ffs := faultline.NewFaultFS(faultline.OS)
		sc, qp, err := openDurable(dir, lazyxml.WithFS(ffs))
		if err != nil {
			return nil, err
		}
		if err := seed(sc, db, true); err != nil {
			return nil, err
		}
		switch layer {
		case layerJournal:
			mut0, wal0, lane0 := ffs.Mutations(), journalBytes(sc), laneTotals(sc)
			spans, _ = replay(&backendExec{b: sc, names: db.names}, layer, ops, true, tr)
			lane := laneTotals(sc)
			tr.PerLayer["journal_file_mutations_per_write"] = ratio(float64(ffs.Mutations()-mut0), float64(writes), "count")
			tr.PerLayer["journal_wal_bytes_per_user_byte"] = ratio(float64(journalBytes(sc)-wal0), float64(userBytes), "ratio")
			tr.PerLayer["journal_commit_batches"] = metric{Value: float64(lane.Batches - lane0.Batches), Unit: "count"}
			tr.PerLayer["journal_ops_per_commit"] = ratio(float64(lane.Ops-lane0.Ops), float64(lane.Batches-lane0.Batches), "count")
		case layerServer:
			spans, _ = replay(&recorderExec{h: newHandler(sc), names: db.names}, layer, ops, true, tr)
		default:
			ts := httptest.NewServer(newHandler(sc))
			before := qp.Stats()
			var took time.Duration
			spans, took = replay(&wireExec{client: ts.Client(), base: ts.URL, names: db.names}, layerWire, ops, layer == layerWire, tr)
			ts.Close()
			if layer == layerWire {
				tracedWire = took
				after := qp.Stats()
				hits, misses := after.Cache.Hits-before.Cache.Hits, after.Cache.Misses-before.Cache.Misses
				tr.PerLayer["plan_cache_hit_ratio"] = ratio(float64(hits), float64(hits+misses), "ratio")
				tr.PerLayer["plan_cache_evictions"] = metric{Value: float64(after.Cache.Evictions - before.Cache.Evictions), Unit: "count"}
				tr.PerLayer["plan_picks_lazy_share"] = ratio(float64(after.Picks["lazy"]-before.Picks["lazy"]), float64(sumPicks(after.Picks)-sumPicks(before.Picks)), "ratio")
				tr.PerLayer["core_segments"] = metric{Value: float64(sc.Stats().Segments), Unit: "count"}
			} else {
				untracedWire = took
			}
		}
		all = append(all, spans...)
		check(layer+" depth against the model", checkAgainstModel(sc, db))
		if err := sc.Close(); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	tr.PerLayer["trace_overhead_pct"] = metric{Value: 100 * (tracedWire - untracedWire).Seconds() / untracedWire.Seconds(), Unit: "%"}

	selfTimes(tr, all)
	tr.TraceFile = filepath.Join(outDir, "trace-"+cfg.workload+".json")
	enc, err := json.Marshal(all)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(tr.TraceFile, enc, 0o644); err != nil {
		return nil, err
	}
	tr.Correct = tr.Failed == 0
	return tr, nil
}

// selfTimes fills the class × layer table and, for the workload's
// primary class, the self_<layer>_us per-layer metrics. A layer's self
// time is the median of its spans minus the median of the next depth's
// spans of the same operations; the innermost depth that can express a
// class keeps its whole median.
func selfTimes(tr *tracedResult, all []span) {
	dur := map[string]map[string]map[int]float64{} // class → layer → trace → µs
	for _, s := range all {
		if dur[s.Name] == nil {
			dur[s.Name] = map[string]map[int]float64{}
		}
		if dur[s.Name][s.Layer] == nil {
			dur[s.Name][s.Layer] = map[int]float64{}
		}
		dur[s.Name][s.Layer][s.Trace] = float64(s.End-s.Start) / 1e3
	}
	for class, byLayer := range dur {
		tr.SelfTimes[class] = map[string]metric{}
		for i, layer := range layers {
			var outer, inner []float64
			for trace, d := range byLayer[layer] {
				if i+1 == len(layers) {
					outer = append(outer, d)
				} else if in, ok := byLayer[layers[i+1]][trace]; ok {
					outer, inner = append(outer, d), append(inner, in)
				}
			}
			if len(outer) == 0 { // nothing deeper expresses this class
				for _, d := range byLayer[layer] {
					outer = append(outer, d)
				}
			}
			if len(outer) == 0 {
				continue
			}
			self := median(outer)
			if len(inner) > 0 {
				self -= median(inner)
			}
			tr.SelfTimes[class][layer] = metric{Value: self, Unit: "us", Samples: len(outer)}
		}
	}
	for _, layer := range layers {
		tr.PerLayer["self_"+layer+"_us"] = tr.SelfTimes[classes[tr.Workload][0]][layer]
		if tr.PerLayer["self_"+layer+"_us"].Unit == "" {
			tr.PerLayer["self_"+layer+"_us"] = metric{Unit: "us"}
		}
	}
}

// ratio is num/den, or zero when the workload gives no denominator (a
// read-only stream has no user bytes to divide by).
func ratio(num, den float64, unit string) metric {
	if den == 0 {
		return metric{Unit: unit}
	}
	return metric{Value: num / den, Unit: unit}
}

func sumPicks(picks map[string]int64) int64 {
	var n int64
	for _, v := range picks {
		n += v
	}
	return n
}

func journalBytes(sc *lazyxml.ShardedCollection) int64 {
	var n int64
	for _, st := range sc.ShardStats() {
		n += st.JournalBytes
	}
	return n
}

func laneTotals(sc *lazyxml.ShardedCollection) lazyxml.GroupCommitStats {
	var t lazyxml.GroupCommitStats
	for _, st := range sc.CommitLaneStats() {
		t.Batches += st.Batches
		t.Ops += st.Ops
	}
	return t
}

// checkAgainstModel compares each store's super document with the
// model's documents laid end to end in the store's order.
func (x *coreExec) checkAgainstModel(db *database) error {
	for s, store := range x.stores {
		var want []byte
		for _, doc := range x.order[s] {
			want = append(want, db.shadows[doc].text...)
		}
		got, err := store.Text()
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("store %d holds %d bytes, the model %d, and they differ", s, len(got), len(want))
		}
		if err := store.CheckAgainstText(); err != nil {
			return fmt.Errorf("store %d: %w", s, err)
		}
	}
	return nil
}
