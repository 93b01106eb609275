package plan

import (
	"fmt"
	"math"
	"strings"
)

// Algo names one executable strategy by the name explain output, pick
// counters and ?algo= use for it. Auto, the zero value, is the request
// "let the cost model decide"; Scan is the degenerate single-step plan
// (no join, just one tag list reconstructed).
type Algo string

const (
	Auto      Algo = ""
	Lazy      Algo = "lazy"
	STD       Algo = "std"
	Skip      Algo = "skip"
	PathStack Algo = "twig"
	Scan      Algo = "scan"
)

// ParseAlgo parses an ?algo= override. Empty, "auto" and "planned" all
// mean "let the planner decide".
func ParseAlgo(s string) (Algo, error) {
	switch a := strings.ToLower(strings.TrimSpace(s)); a {
	case "", "auto", "planned":
		return Auto, nil
	case "pathstack":
		return PathStack, nil
	case string(Lazy), string(STD), string(Skip), string(PathStack):
		return Algo(a), nil
	default:
		return Auto, fmt.Errorf("plan: unknown algorithm %q (want lazy|std|skip|twig|auto)", s)
	}
}

// Step is one step of a parsed path; Desc selects the descendant axis
// (false: child). The first step's axis is ignored.
type Step struct {
	Tag  string
	Desc bool
}

// Query is the planner's input: the original path text (cache key and
// explain output) plus its parsed steps.
type Query struct {
	Path  string
	Steps []Step
}

// Tags returns the distinct tags the query touches, in step order.
func (q Query) Tags() []string {
	out := make([]string, 0, len(q.Steps))
	seen := map[string]bool{}
	for _, s := range q.Steps {
		if !seen[s.Tag] {
			seen[s.Tag] = true
			out = append(out, s.Tag)
		}
	}
	return out
}

// OpCost is one operator of a plan with its inputs and cost estimate.
type OpCost struct {
	Op       string  `json:"op"` // "scan" | "join" | "pathstack"
	Algo     Algo    `json:"algo"`
	Anc      string  `json:"anc,omitempty"`
	Desc     string  `json:"desc,omitempty"`
	Axis     string  `json:"axis,omitempty"` // "//" or "/"
	AncCard  int     `json:"ancCard,omitempty"`
	DescCard int     `json:"descCard,omitempty"`
	Segs     int     `json:"segs,omitempty"` // tag-list entries both sides
	EstOut   int     `json:"estOut"`
	Cost     float64 `json:"cost"`
}

// Plan is the planner's explainable output: the chosen strategy, its
// total estimated cost, the statistics snapshot it was priced against,
// and the per-operator breakdown.
type Plan struct {
	Path   string   `json:"path"`
	Algo   Algo     `json:"algo"`
	Forced bool     `json:"forced,omitempty"`
	Cost   float64  `json:"cost"`
	Frag   float64  `json:"fragmentation"`
	Gen    Gen      `json:"gen"`
	Shard  int      `json:"shard"`
	Cached bool     `json:"cached"`
	Ops    []OpCost `json:"ops"`
}

// Cost-model constants. Units are abstract "element touches"; only the
// ratios matter. They put the paper's §5.3 crossover — on a store
// fragmented into tiny segments a traditional structural join beats
// Lazy-Join — at about 8 elements per touched segment, the point the
// Figure 13 benchmark shows: Lazy-Join pays per segment entry (SB-tree
// probe, element-index lookup, sid-path walk) but touches elements in
// local coordinates, while the traditional merges pay a per-element
// global-position reconstruction.
const (
	costElem  = 1.0 // touch one element during a merge
	costRecon = 1.5 // reconstruct one element's global position
	costSeg   = 8.0 // probe one tag-list segment entry
	costPath  = 1.0 // walk one sid-path component
	costOut   = 0.5 // emit one result pair
	costTuple = 1.5 // per-tuple bookkeeping in PathStack
	costSort  = 1.0 // sort/dedup one intermediate-frontier element
)

// binaryCandidates is the pricing order; ties go to the earliest, so the
// paper's default (Lazy-Join) wins when statistics cannot separate the
// candidates (e.g. both lists empty).
var binaryCandidates = []Algo{Lazy, STD, Skip}

// estJoinOut is the result-size estimate of one structural join: bounded
// by the smaller input, zero when either side is empty. Deliberately the
// cheapest defensible estimator — the planner needs ordering, not truth.
func estJoinOut(na, nd int) int {
	if na <= 0 || nd <= 0 {
		return 0
	}
	if na < nd {
		return na
	}
	return nd
}

// binaryCost prices one a(axis)d join under one algorithm.
func binaryCost(alg Algo, a, d TagStat) float64 {
	na, nd := a.Card, d.Card
	n := float64(na + nd)
	est := float64(estJoinOut(na, nd))
	recon := costRecon * n
	switch alg {
	case Lazy:
		return costSeg*float64(a.Segs+d.Segs) +
			costPath*float64(a.PathLen+d.PathLen) +
			costElem*n + costOut*est
	case STD:
		return recon + costElem*n + costOut*est
	case Skip:
		mn, mx := na, nd
		if mn > mx {
			mn, mx = mx, mn
		}
		merge := costElem * 2 * float64(mn) * (1 + math.Log2(float64(mx+1)/float64(mn+1)))
		return recon + merge + costOut*est
	default:
		return math.Inf(1)
	}
}

// axisString renders a step's axis for explain output.
func axisString(desc bool) string {
	if desc {
		return "//"
	}
	return "/"
}

// Choose prices every strategy for the query against the view and
// returns the cheapest plan. It is pure: same inputs, same plan.
func Choose(q Query, v View) Plan {
	return plan(q, v, Auto)
}

// Forced prices the query under one forced algorithm (the ?algo=
// override): the forced choice takes the first join — or the whole query
// for PathStack — and the explain output still carries its estimated
// cost, so A/B runs show what the model thought of the forced pick.
func Forced(q Query, a Algo, v View) Plan {
	p := plan(q, v, a)
	if a != Auto {
		p.Forced = true
	}
	return p
}

func plan(q Query, v View, forced Algo) Plan {
	p := Plan{Path: q.Path, Frag: v.Frag, Gen: v.Gen}
	if len(q.Steps) == 0 {
		return p
	}
	if len(q.Steps) == 1 {
		// Single step: there is no join; every "algorithm" degenerates to
		// reconstructing one tag list.
		st := v.Tags[q.Steps[0].Tag]
		op := OpCost{
			Op: "scan", Algo: Scan, Desc: q.Steps[0].Tag,
			DescCard: st.Card, Segs: st.Segs, EstOut: st.Card,
			Cost: costRecon * float64(st.Card),
		}
		p.Algo = Scan
		p.Cost = op.Cost
		p.Ops = []OpCost{op}
		return p
	}

	if forced == PathStack {
		return pathStackPlan(q, v, p)
	}
	pipeline := pipelinePlan(q, v, p, forced)
	if forced != Auto {
		return pipeline
	}
	if len(q.Steps) > 2 {
		if twig := pathStackPlan(q, v, p); twig.Cost < pipeline.Cost {
			return twig
		}
	}
	return pipeline
}

// pipelinePlan prices the binary-join pipeline: the first join runs the
// chosen (or forced) algorithm over the update log, every later step
// dedupes the frontier and merges it against the next tag's
// reconstructed list with Stack-Tree-Desc.
func pipelinePlan(q Query, v View, p Plan, forced Algo) Plan {
	a, d := v.Tags[q.Steps[0].Tag], v.Tags[q.Steps[1].Tag]
	first := forced
	if first == Auto {
		best := math.Inf(1)
		for _, cand := range binaryCandidates {
			if c := binaryCost(cand, a, d); c < best {
				best = c
				first = cand
			}
		}
	}
	cost := binaryCost(first, a, d)
	est := estJoinOut(a.Card, d.Card)
	p.Algo = first
	p.Ops = append(p.Ops, OpCost{
		Op: "join", Algo: first,
		Anc: q.Steps[0].Tag, Desc: q.Steps[1].Tag, Axis: axisString(q.Steps[1].Desc),
		AncCard: a.Card, DescCard: d.Card, Segs: a.Segs + d.Segs,
		EstOut: est, Cost: cost,
	})
	p.Cost = cost
	frontier := est
	for _, step := range q.Steps[2:] {
		d := v.Tags[step.Tag]
		stepEst := estJoinOut(frontier, d.Card)
		// Deduping the frontier is a map build plus a sort: superlinear
		// in the intermediate size, which is exactly what the holistic
		// PathStack pass avoids paying.
		stepCost := costSort*float64(frontier)*math.Log2(float64(frontier)+2) +
			costRecon*float64(d.Card) +
			costElem*float64(frontier+d.Card) +
			costOut*float64(stepEst)
		p.Ops = append(p.Ops, OpCost{
			Op: "join", Algo: STD,
			Anc: "(frontier)", Desc: step.Tag, Axis: axisString(step.Desc),
			AncCard: frontier, DescCard: d.Card, Segs: d.Segs,
			EstOut: stepEst, Cost: stepCost,
		})
		p.Cost += stepCost
		frontier = stepEst
	}
	return p
}

// pathStackPlan prices the holistic alternative: every tag list is
// reconstructed once and all steps matched in one synchronized pass —
// no intermediate materialization, so it beats the pipeline exactly when
// the intermediates would have been large.
func pathStackPlan(q Query, v View, p Plan) Plan {
	p.Algo = PathStack
	total := 0.0
	minCard := math.MaxInt
	for _, s := range q.Steps {
		st := v.Tags[s.Tag]
		total += (costRecon + costElem + costTuple) * float64(st.Card)
		if st.Card < minCard {
			minCard = st.Card
		}
	}
	if minCard == math.MaxInt {
		minCard = 0
	}
	total += costOut * float64(minCard)
	last := q.Steps[len(q.Steps)-1]
	op := OpCost{
		Op: "pathstack", Algo: PathStack,
		Anc: q.Steps[0].Tag, Desc: last.Tag, Axis: axisString(last.Desc),
		AncCard:  v.Tags[q.Steps[0].Tag].Card,
		DescCard: v.Tags[last.Tag].Card,
		EstOut:   minCard, Cost: total,
	}
	p.Cost = total
	p.Ops = []OpCost{op}
	return p
}
