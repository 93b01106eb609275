package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/elemindex"
	"repro/internal/segment"
	"repro/internal/taglist"
)

// viewElements copies every element list a view gives: one per (tag,
// live segment) pair of the view.
func viewElements(v *View) map[[2]int64][]elemindex.Rec {
	out := map[[2]int64][]elemindex.Rec{}
	v.sb.Walk(func(seg *segment.Segment) bool {
		for tid := 0; tid < v.dict.Len(); tid++ {
			if recs := v.ix.Run(taglist.TID(tid), seg.SID); len(recs) > 0 {
				out[[2]int64{int64(tid), int64(seg.SID)}] = slices.Clone(recs)
			}
		}
		return true
	})
	return out
}

// TestViewRunsNeverRewritten is the element index's TestRopeModel: views
// captured early share the store's runs, and after 10⁴ later inserts,
// partial removes, segment deletes and collapses every one of them still
// gives the element lists (Index.Run) it gave at capture. A write that reached
// into a stored run — instead of building the segment's new run — would
// show here as a changed answer.
func TestViewRunsNeverRewritten(t *testing.T) {
	r := rand.New(rand.NewSource(36))
	s := NewStore(LD)
	mustInsert(t, s, 0, "<root></root>")
	type capture struct {
		v    *View
		want map[[2]int64][]elemindex.Rec
		at   int
	}
	var caps []capture
	var inserts, partial, deletes, collapses int
	for edits := 0; edits < 10_000; {
		if edits%500 == 0 && edits > 0 && len(caps) < 5 && (len(caps) == 0 || caps[len(caps)-1].at != edits) {
			v := s.AcquireView()
			caps = append(caps, capture{v, viewElements(v), edits})
		}
		text, err := s.Text()
		if err != nil {
			t.Fatal(err)
		}
		switch op := r.Intn(100); {
		case op < 60 && len(text) < 4000: // insert
			pts := insertionPoints(text)
			if _, err := s.InsertSegment(pts[r.Intn(len(pts))], []byte(randomFragment(r, 3))); err != nil {
				t.Fatal(err)
			}
			inserts++
		case op < 97: // remove: a whole segment goes, or part of one
			ranges := removableRanges(text)
			if len(ranges) == 0 {
				continue
			}
			rg := ranges[r.Intn(len(ranges))]
			if rg[1] > 80 {
				continue // small removes, so the store grows
			}
			before := s.sb.NumSegments()
			if err := s.RemoveSegment(rg[0], rg[1]); err != nil {
				t.Fatal(err)
			}
			if s.sb.NumSegments() < before {
				deletes++
			} else {
				partial++
			}
		default: // collapse a random live segment
			var sids []segment.SID
			s.sb.Walk(func(seg *segment.Segment) bool {
				if seg.SID != segment.RootSID {
					sids = append(sids, seg.SID)
				}
				return true
			})
			if len(sids) == 0 {
				continue
			}
			if _, err := s.CollapseSegment(sids[r.Intn(len(sids))]); err != nil {
				// The segment's text is not one fragment: nothing changed.
				continue
			}
			collapses++
		}
		edits++
	}
	if err := s.CheckAgainstText(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d inserts, %d partial removes, %d segment deletes, %d collapses, %d captures", inserts, partial, deletes, collapses, len(caps))
	if inserts < 1000 || partial < 500 || deletes < 500 || collapses < 100 {
		t.Fatalf("edit mix too thin: %d inserts, %d partial removes, %d segment deletes, %d collapses",
			inserts, partial, deletes, collapses)
	}
	for _, c := range caps {
		if got := viewElements(c.v); !reflect.DeepEqual(got, c.want) {
			t.Fatalf("view captured at edit %d answers differently after %d later edits", c.at, 10_000-c.at)
		}
		c.v.Release()
	}
}
