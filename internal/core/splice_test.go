package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/segment"
	"repro/internal/taglist"
)

// TestRemoveSpliceHardCases drives seeded histories built to produce the
// two interleavings a GP-range removal splice (taglist.RemoveSegments)
// must get right on a sorted path list:
//
//   - a removal that right-intersects a segment and deletes some of its
//     descendants: the survivor now sits at the removal point, and its
//     entry precedes its dead descendants' entries;
//   - a removal that ends exactly where a later segment starts: that
//     segment now sits at the removal point too.
//
// Fragments carry leading whitespace, insertions land inside whitespace
// runs, and removals may stop inside one, so a removal can cut a
// segment's leading text without breaking well-formedness. After every
// op the store is checked against its text and every tag-list entry's
// Count against its element run.
func TestRemoveSpliceHardCases(t *testing.T) {
	var rightCut, endsAtStart int
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		s := NewStore(LD)
		for op := 0; op < 150; op++ {
			text, err := s.Text()
			if err != nil {
				t.Fatal(err)
			}
			if len(text) > 0 && r.Intn(10) < 3 {
				rs, re, ok := spliceRemoval(r, text)
				if !ok {
					continue
				}
				a, b := classifyRemoval(s.sb, rs, re)
				rightCut += a
				endsAtStart += b
				if err := s.RemoveSegment(rs, re-rs); err != nil {
					t.Fatalf("seed %d op %d: remove [%d,%d): %v", seed, op, rs, re, err)
				}
			} else {
				pts := append(insertionPoints(text), whitespacePoints(text)...)
				gp := pts[r.Intn(len(pts))]
				frag := strings.Repeat(" ", 1+r.Intn(3)) + randomFragment(r, 2)
				if _, err := s.InsertSegment(gp, []byte(frag)); err != nil {
					t.Fatalf("seed %d op %d: insert at %d: %v", seed, op, gp, err)
				}
			}
			if err := s.CheckAgainstText(); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
			if err := checkEntryCounts(s); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
		}
	}
	if rightCut == 0 || endsAtStart == 0 {
		t.Fatalf("histories never built the hard cases: %d right-intersecting removals deleting a descendant, %d removals ending where a segment starts",
			rightCut, endsAtStart)
	}
	t.Logf("%d right-intersecting removals deleted a descendant; %d removals ended where a segment starts", rightCut, endsAtStart)
}

// whitespacePoints lists the offsets strictly inside a run of spaces.
// The fragments hold no attributes, so every space lies between markup
// and an element inserted there keeps the text well-formed.
func whitespacePoints(text []byte) []int {
	var out []int
	for i := 1; i < len(text); i++ {
		if text[i-1] == ' ' && text[i] == ' ' {
			out = append(out, i)
		}
	}
	return out
}

// spliceRemoval picks a run of whole sibling elements and may widen it
// over some of the spaces on either side, so the range can start or end
// inside a segment's leading whitespace.
func spliceRemoval(r *rand.Rand, text []byte) (rs, re int, ok bool) {
	ranges := removableRanges(text)
	if len(ranges) == 0 {
		return 0, 0, false
	}
	rg := ranges[r.Intn(len(ranges))]
	rs, re = rg[0], rg[0]+rg[1]
	for rs > 0 && text[rs-1] == ' ' && r.Intn(2) == 0 {
		rs--
	}
	for re < len(text) && text[re] == ' ' && r.Intn(3) != 0 {
		re++
	}
	return rs, re, true
}

// classifyRemoval reports whether removing [rs, re) right-intersects a
// segment while deleting one of its descendants, and whether it ends
// exactly where a surviving segment starts. It reads the tree before the
// removal.
func classifyRemoval(sb *segment.Tree, rs, re int) (rightCut, endsAtStart int) {
	sb.Walk(func(k *segment.Segment) bool {
		if k.SID == segment.RootSID {
			return true
		}
		if k.GP() == re {
			endsAtStart = 1
		}
		if rs < k.GP() && k.GP() < re && k.End() > re {
			var walk func(*segment.Segment)
			walk = func(d *segment.Segment) {
				for _, c := range d.Children {
					if c.GP() >= rs && c.End() <= re {
						rightCut = 1
					}
					walk(c)
				}
			}
			walk(k)
		}
		return true
	})
	return rightCut, endsAtStart
}

// checkEntryCounts verifies that every tag-list entry's Count equals the
// length of its segment's element run for that tag.
func checkEntryCounts(s *Store) error {
	for tid := taglist.TID(0); int(tid) < s.dict.Len(); tid++ {
		for _, e := range s.tags.Segments(tid) {
			if n := len(s.ix.Run(tid, e.SID)); e.Count != n {
				return fmt.Errorf("tag %s segment %d: entry count %d, element run %d", s.dict.Name(tid), e.SID, e.Count, n)
			}
		}
	}
	return nil
}
