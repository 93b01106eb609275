package elemindex

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/segment"
	"repro/internal/taglist"
)

// TestQuickIndexAgainstModel drives the element index against a plain
// map model with random adds, segment drops and partial removals.
func TestQuickIndexAgainstModel(t *testing.T) {
	tids := []taglist.TID{0, 1, 2}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ix := New()
		model := map[Key]bool{}
		for op := 0; op < 60; op++ {
			switch r.Intn(4) {
			case 0, 1: // add a batch for one segment
				sid := segment.SID(r.Intn(5) + 1)
				var keys []Key
				base := r.Intn(100)
				for i, n := 0, r.Intn(6)+1; i < n; i++ {
					start := base + i*10
					k := Key{
						TID:   tids[r.Intn(len(tids))],
						SID:   sid,
						Start: start,
						End:   start + r.Intn(8) + 1,
						Level: r.Intn(4) + 1,
					}
					keys = append(keys, k)
					model[k] = true
				}
				ix.AddSegment(keys)
			case 2: // drop whole segments
				sid := segment.SID(r.Intn(5) + 1)
				want := map[taglist.TID]int{}
				for k := range model {
					if k.SID == sid {
						want[k.TID]++
						delete(model, k)
					}
				}
				got := ix.RemoveSegments([]segment.SID{sid})
				for tid, n := range want {
					if got[sid][tid] != n {
						return false
					}
				}
			case 3: // partial removal
				sid := segment.SID(r.Intn(5) + 1)
				la := r.Intn(120)
				lb := la + r.Intn(60) + 1
				want := map[taglist.TID]int{}
				for k := range model {
					if k.SID == sid && la <= k.Start && k.End <= lb {
						want[k.TID]++
						delete(model, k)
					}
				}
				got := ix.RemovePart(segment.RemovedPart{SID: sid, Start: la, End: lb})
				if len(got) != len(want) {
					return false
				}
				for tid, n := range want {
					if got[tid] != n {
						return false
					}
				}
			}
			if ix.Len() != len(model) {
				return false
			}
		}
		// Per-(tid,sid) scans must return exactly the model's records,
		// ordered by start.
		for _, tid := range tids {
			for sid := segment.SID(1); sid <= 5; sid++ {
				var want []Elem
				for k := range model {
					if k.TID == tid && k.SID == sid {
						want = append(want, Elem{Start: k.Start, End: k.End, Level: k.Level})
					}
				}
				sort.Slice(want, func(i, j int) bool {
					if want[i].Start != want[j].Start {
						return want[i].Start < want[j].Start
					}
					if want[i].End != want[j].End {
						return want[i].End < want[j].End
					}
					return want[i].Level < want[j].Level
				})
				got := ix.ElementsOf(tid, sid)
				if len(got) != len(want) {
					return false
				}
				for i := range got {
					if got[i] != want[i] {
						return false
					}
				}
				if ix.CountOf(tid, sid) != len(want) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
