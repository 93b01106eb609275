package plan

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/join"
)

// The paper's §5.3 crossover, decided by the one chooser over real
// stores: when segments hold about one element each, Lazy-Join's
// per-segment work is no longer amortized and a traditional structural
// join wins; when they hold many, Lazy-Join does.

// buildManyTinySegments makes a store where almost every segment holds a
// single element — the degenerate case of Section 5.3 where "one segment
// coincides with one element".
func buildManyTinySegments(t *testing.T, n int) *core.Store {
	t.Helper()
	s := core.NewStore(core.LD)
	if _, err := s.InsertSegment(0, []byte("<A></A>")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := s.InsertSegment(3, []byte("<D/>")); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// buildFewFatSegments makes a store with a handful of segments holding
// many elements each.
func buildFewFatSegments(t *testing.T) *core.Store {
	t.Helper()
	s := core.NewStore(core.LD)
	fat := "<A>" + strings.Repeat("<D/>", 200) + "</A>"
	for _, gp := range []int{0, 3} {
		if _, err := s.InsertSegment(gp, []byte(fat)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

var aDesc = Query{Path: "A//D", Steps: []Step{{Tag: "A"}, {Tag: "D", Desc: true}}}

// statsOf reads aDesc's statistics off one view of the store.
func statsOf(s *core.Store) View {
	v := s.AcquireView()
	defer v.Release()
	return ViewOf(v, 1, aDesc.Tags())
}

// choose plans aDesc from the store's own statistics.
func choose(s *core.Store) Plan { return Choose(aDesc, statsOf(s)) }

func TestCrossoverTinySegmentsPickTraditionalJoin(t *testing.T) {
	if p := choose(buildManyTinySegments(t, 50)); p.Algo == Lazy || p.Algo == LazyParallel {
		t.Fatalf("one element per segment: picked %s (cost %f), want a traditional join", p.Algo, p.Cost)
	}
}

func TestCrossoverFatSegmentsPickLazy(t *testing.T) {
	if p := choose(buildFewFatSegments(t)); p.Algo != Lazy {
		t.Fatalf("200 elements per segment: picked %s (cost %f), want lazy", p.Algo, p.Cost)
	}
}

func TestCrossoverUnknownTagsPickLazy(t *testing.T) {
	if p := choose(core.NewStore(core.LD)); p.Algo != Lazy {
		t.Fatalf("tags absent from the store: picked %s, want lazy", p.Algo)
	}
}

// TestCrossoverForcedJoinsAgree runs every binary join the chooser can
// force on both sides of the crossover: whichever it picks, the match
// set is the same.
func TestCrossoverForcedJoinsAgree(t *testing.T) {
	engine := map[Algo]core.Algorithm{Lazy: core.LazyJoin, STD: core.STD, Skip: core.SkipSTD}
	for name, s := range map[string]*core.Store{
		"tiny": buildManyTinySegments(t, 30),
		"fat":  buildFewFatSegments(t),
	} {
		v := statsOf(s)
		for _, axis := range []join.Axis{join.Descendant, join.Child} {
			var want []string
			for _, a := range []Algo{Lazy, STD, Skip} {
				ms, err := s.Query("A", "D", axis, engine[Forced(aDesc, a, v).Algo])
				if err != nil {
					t.Fatal(err)
				}
				got := make([]string, len(ms))
				for i, m := range ms {
					got[i] = fmt.Sprintf("%d-%d|%d-%d", m.AncStart, m.AncEnd, m.DescStart, m.DescEnd)
				}
				sort.Strings(got)
				if len(got) == 0 {
					t.Fatalf("%s %v %s: empty result would not compare anything", name, axis, a)
				}
				if want == nil {
					want = got
				} else if strings.Join(got, " ") != strings.Join(want, " ") {
					t.Fatalf("%s %v: %s returned %d matches, lazy %d, or a different set", name, axis, a, len(got), len(want))
				}
			}
		}
	}
}
