package taglist

import (
	"fmt"
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
				l.RemoveSegments(map[segment.SID]map[TID]int{s.SID: counts}, s.GP())
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
				gps = append(gps, s.GP())
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

// spanModel is a from-scratch positional model of the segments: each
// segment's global span, moved by the same rules Figure 5 and Figure 7
// state, with no tree and no offsets.
type spanModel map[segment.SID]*[2]int // sid → {start, length}

func (m spanModel) insert(sid segment.SID, gp, l int) {
	for _, sp := range m {
		switch {
		case sp[0] >= gp:
			sp[0] += l
		case gp < sp[0]+sp[1]:
			sp[1] += l
		}
	}
	m[sid] = &[2]int{gp, l}
}

func (m spanModel) remove(gp, l int) {
	rs, re := gp, gp+l
	for sid, sp := range m {
		ov := min(sp[0]+sp[1], re) - max(sp[0], rs)
		switch {
		case ov <= 0:
			if sp[0] >= re {
				sp[0] -= l
			}
		case ov == sp[1]:
			delete(m, sid)
		default:
			sp[1] -= ov
			if sp[0] >= re {
				sp[0] -= l
			} else if sp[0] >= rs {
				sp[0] = rs
			}
		}
	}
}

// TestQuickChunkedListsMatchFreshSort runs random LD and LS histories —
// nested inserts, inserts at segment ends, removals that cut through
// segments — long enough that one tag's path list spans several chunks,
// and after every op checks every segment's GP against spanModel and
// every path list against the model's entries sorted by position.
func TestQuickChunkedListsMatchFreshSort(t *testing.T) {
	f := func(seed int64, lsRaw bool) bool {
		r := rand.New(rand.NewSource(seed))
		mode := LD
		if lsRaw {
			mode = LS
		}
		tr := segment.NewTree()
		l := New(tr, mode)
		spans := spanModel{}
		model := map[TID]map[segment.SID]int{}
		var sids []segment.SID
		maxChunks := 0
		for op := 0; op < 900; op++ {
			total := tr.TotalLen()
			if total > 0 && r.Intn(8) == 0 {
				// A removal that cuts through segments: whole ones inside
				// it lose every entry, the ones it intersects some counts.
				gp := r.Intn(total)
				n := r.Intn(min(total-gp, 60)) + 1
				rep, err := tr.Remove(gp, n)
				if err != nil {
					t.Log(err)
					return false
				}
				spans.remove(gp, n)
				dead := map[segment.SID]map[TID]int{}
				for _, sid := range rep.Deleted {
					dead[sid] = map[TID]int{}
					for tid, m := range model {
						if c := m[sid]; c > 0 {
							dead[sid][tid] = c
							delete(m, sid)
						}
					}
				}
				l.RemoveSegments(dead, gp)
				for _, part := range rep.Affected {
					tid := TID(r.Intn(3))
					if have := model[tid][part.SID]; have > 0 {
						dec := r.Intn(have) + 1
						l.RemoveCounts(part.SID, map[TID]int{tid: dec})
						if model[tid][part.SID] -= dec; model[tid][part.SID] == 0 {
							delete(model[tid], part.SID)
						}
					}
				}
			} else {
				// Nested inserts land inside a random segment; a third
				// go exactly at a segment's end.
				gp := r.Intn(total + 1)
				if len(sids) > 0 && r.Intn(3) == 0 {
					if s, ok := tr.Lookup(sids[r.Intn(len(sids))]); ok {
						gp = s.End()
					}
				}
				s, err := tr.Insert(gp, r.Intn(20)+1)
				if err != nil {
					t.Log(err)
					return false
				}
				spans.insert(s.SID, gp, s.L)
				sids = append(sids, s.SID)
				counts := map[TID]int{0: r.Intn(3) + 1} // tag 0 everywhere: a long list
				counts[TID(1+r.Intn(2))] += r.Intn(2) + 1
				l.AddSegment(s, counts)
				for tid, n := range counts {
					if model[tid] == nil {
						model[tid] = map[segment.SID]int{}
					}
					model[tid][s.SID] += n
				}
			}
			var bad error
			tr.Walk(func(s *segment.Segment) bool {
				if sp := spans[s.SID]; s.SID != segment.RootSID && (sp == nil || s.GP() != sp[0] || s.L != sp[1]) {
					bad = fmt.Errorf("segment %d at [%d,+%d), model %v", s.SID, s.GP(), s.L, sp)
				}
				return bad == nil
			})
			if bad == nil {
				bad = l.Validate()
			}
			for tid := TID(0); tid < 3 && bad == nil; tid++ {
				bad = matchesFreshSort(l.Segments(tid), model[tid], spans)
				if pl := l.list(tid); pl != nil {
					maxChunks = max(maxChunks, len(pl.chunks))
				}
			}
			if bad != nil {
				t.Logf("seed %d %v op %d: %v", seed, mode, op, bad)
				return false
			}
		}
		if maxChunks < 2 {
			t.Logf("seed %d %v: no path list outgrew one chunk", seed, mode)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}

// matchesFreshSort reports how got differs from the model's entries of
// one tag sorted by their segments' positions: the same (sid, count)
// entries, in an order whose positions never decrease.
func matchesFreshSort(got []Entry, want map[segment.SID]int, spans spanModel) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d entries, model has %d", len(got), len(want))
	}
	fresh := make([]Entry, 0, len(want))
	for sid, n := range want {
		fresh = append(fresh, Entry{SID: sid, Count: n})
	}
	gpOf := func(e Entry) int { return spans[e.SID][0] }
	sort.Slice(fresh, func(i, j int) bool { return gpOf(fresh[i]) < gpOf(fresh[j]) })
	for i, e := range got {
		if want[e.SID] != e.Count || gpOf(e) != gpOf(fresh[i]) {
			return fmt.Errorf("entry %d is %+v at %d; a fresh sort has %+v at %d", i, e, gpOf(e), fresh[i], gpOf(fresh[i]))
		}
	}
	return nil
}
