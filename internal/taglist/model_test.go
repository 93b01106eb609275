package taglist

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/segment"
)

// TestQuickTagListAgainstModel drives the tag-list against a plain map
// model under random segment additions, count decrements and segment
// drops, in both maintenance modes.
func TestQuickTagListAgainstModel(t *testing.T) {
	f := func(seed int64, lsRaw bool) bool {
		r := rand.New(rand.NewSource(seed))
		tr := segment.NewTree()
		if _, err := tr.Insert(0, 1_000_000); err != nil {
			return false
		}
		mode := LD
		if lsRaw {
			mode = LS
		}
		l := New(tr, mode)
		// model[tid][sid] = count
		model := map[TID]map[segment.SID]int{}
		var segs []*segment.Segment
		for op := 0; op < 80; op++ {
			switch r.Intn(5) {
			case 0, 1, 2: // add a new segment with random tag counts
				gp := r.Intn(tr.TotalLen()-1000) + 1
				s, err := tr.Insert(gp, r.Intn(20)+1)
				if err != nil {
					return false
				}
				segs = append(segs, s)
				counts := map[TID]int{}
				for i, n := 0, r.Intn(3)+1; i < n; i++ {
					counts[TID(r.Intn(4))] += r.Intn(3) + 1
				}
				l.AddSegment(s, counts)
				for tid, n := range counts {
					if model[tid] == nil {
						model[tid] = map[segment.SID]int{}
					}
					model[tid][s.SID] += n
				}
			case 3: // decrement counts on a random live segment
				if len(segs) == 0 {
					continue
				}
				s := segs[r.Intn(len(segs))]
				tid := TID(r.Intn(4))
				have := model[tid][s.SID]
				if have == 0 {
					continue
				}
				dec := r.Intn(have) + 1
				l.RemoveCounts(s.SID, map[TID]int{tid: dec})
				if have-dec <= 0 {
					delete(model[tid], s.SID)
				} else {
					model[tid][s.SID] = have - dec
				}
			case 4: // drop a random segment entirely
				if len(segs) == 0 {
					continue
				}
				i := r.Intn(len(segs))
				s := segs[i]
				segs = append(segs[:i], segs[i+1:]...)
				counts := map[TID]int{}
				for tid, m := range model {
					if n := m[s.SID]; n > 0 {
						counts[tid] = n
					}
					delete(m, s.SID)
				}
				l.RemoveSegments(map[segment.SID]map[TID]int{s.SID: counts}, s.GP)
			}
		}
		// Compare per tag: same (sid, count) sets, ordered by GP.
		for tid := TID(0); tid < 4; tid++ {
			wantCount := 0
			for range model[tid] {
				wantCount++
			}
			got := l.Segments(tid)
			if len(got) != wantCount {
				t.Logf("seed %d tid %d: %d entries, want %d", seed, tid, len(got), wantCount)
				return false
			}
			var gps []int
			for _, e := range got {
				if model[tid][e.SID] != e.Count {
					t.Logf("seed %d tid %d sid %d: count %d, want %d",
						seed, tid, e.SID, e.Count, model[tid][e.SID])
					return false
				}
				s, ok := tr.Lookup(e.SID)
				if !ok {
					return false
				}
				gps = append(gps, s.GP)
			}
			if !sort.IntsAreSorted(gps) {
				t.Logf("seed %d tid %d: entries not GP-sorted: %v", seed, tid, gps)
				return false
			}
		}
		return l.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
