package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/join"
)

func TestQueryParallelMatchesSequential(t *testing.T) {
	s := NewStore(LD)
	mustInsert(t, s, 0, "<A><x></x><x></x><x></x></A>")
	// Children with D's inside each x element.
	mustInsert(t, s, 6, "<D><D/></D>")
	mustInsert(t, s, 28, "<A><D/></A>")
	mustInsert(t, s, 50, "<D/>")
	v := s.AcquireView()
	defer v.Release()
	for _, axis := range []join.Axis{join.Descendant, join.Child} {
		seq, err := s.Query("A", "D", axis, LazyJoin)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3, 8} {
			par, err := v.QueryParallel("A", "D", axis, workers)
			if err != nil {
				t.Fatal(err)
			}
			if len(par) != len(seq) {
				t.Fatalf("workers=%d axis=%v: %d vs %d results", workers, axis, len(par), len(seq))
			}
			for i := range par {
				if par[i] != seq[i] {
					t.Fatalf("workers=%d axis=%v: result %d differs (%+v vs %+v)",
						workers, axis, i, par[i], seq[i])
				}
			}
		}
	}
}

func TestQueryParallelUnknownTag(t *testing.T) {
	s := NewStore(LD)
	mustInsert(t, s, 0, "<A/>")
	v := s.AcquireView()
	defer v.Release()
	got, err := v.QueryParallel("A", "nope", join.Descendant, 4)
	if err != nil || got != nil {
		t.Fatalf("got %v, %v", got, err)
	}
}

// TestQuickParallelEquivalence: random stores, random worker counts —
// byte-identical results to the sequential join, LS mode included.
func TestQuickParallelEquivalence(t *testing.T) {
	f := func(seed int64, workersRaw uint8, lsRaw bool) bool {
		r := rand.New(rand.NewSource(seed))
		mode := LD
		if lsRaw {
			mode = LS
		}
		s := NewStore(mode)
		for i := 0; i < 14; i++ {
			text, _ := s.Text()
			pts := insertionPoints(text)
			gp := pts[r.Intn(len(pts))]
			if _, err := s.InsertSegment(gp, []byte(randomFragment(r, 3))); err != nil {
				return false
			}
		}
		workers := int(workersRaw)%6 + 1
		v := s.AcquireView()
		defer v.Release()
		for _, aTag := range oracleTags[:2] {
			for _, dTag := range oracleTags[:2] {
				seq, err := s.Query(aTag, dTag, join.Descendant, LazyJoin)
				if err != nil {
					return false
				}
				par, err := v.QueryParallel(aTag, dTag, join.Descendant, workers)
				if err != nil {
					return false
				}
				if len(seq) != len(par) {
					t.Logf("seed %d workers %d %s//%s: %d vs %d", seed, workers, aTag, dTag, len(seq), len(par))
					return false
				}
				for i := range seq {
					if seq[i] != par[i] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
