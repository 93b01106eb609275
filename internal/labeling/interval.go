// Package labeling implements the labeling-scheme baselines the paper
// compares against:
//
//   - the traditional interval scheme (elements labeled by global start
//     and end positions, eagerly relabeled on every update) — the
//     baseline of Figure 16;
//   - the PRIME prime-number labeling scheme of Wu, Lee and Hsu (ICDE
//     2004) with its table of simultaneous congruences — the baseline of
//     Figure 17;
//   - the W-BOX order-maintenance structure of Silberstein et al. (ICDE
//     2005), the comparison the paper leaves to future work.
package labeling

import (
	"fmt"
	"sort"

	"repro/internal/join"
	"repro/internal/xmltree"
)

// IntervalStore is the traditional approach: every element is labeled
// with its global (start, end, level), and a structural update rewrites
// the labels of every element at or after the update point. Queries are
// answered with Stack-Tree-Desc over the per-tag global lists.
type IntervalStore struct {
	byTag   map[string][]IntervalLabel
	textLen int
	n       int
	// Relabeled counts how many stored labels update operations have
	// rewritten — the work the lazy approach avoids.
	Relabeled int
}

// IntervalLabel is a global element label.
type IntervalLabel struct {
	Start, End int
	Level      int
}

// NewIntervalStore returns an empty traditional store.
func NewIntervalStore() *IntervalStore {
	return &IntervalStore{byTag: map[string][]IntervalLabel{}}
}

// Len returns the number of labeled elements.
func (st *IntervalStore) Len() int { return st.n }

// TextLen returns the tracked document length.
func (st *IntervalStore) TextLen() int { return st.textLen }

// InsertSegment inserts an XML fragment at global position gp: labels of
// elements at or after gp shift right, labels of elements enclosing gp
// stretch, and the fragment's own elements are labeled and added — the
// eager relabeling the lazy approach is measured against in Figure 16.
func (st *IntervalStore) InsertSegment(gp int, fragment []byte) error {
	doc, err := xmltree.ParseFragment(fragment)
	if err != nil {
		return err
	}
	if gp < 0 || gp > st.textLen {
		return fmt.Errorf("labeling: insert at %d outside document of length %d", gp, st.textLen)
	}
	l := len(fragment)
	base := 0
	for tag, list := range st.byTag {
		for i := range list {
			e := &list[i]
			switch {
			case e.Start >= gp:
				e.Start += l
				e.End += l
				st.Relabeled++
			case e.End > gp:
				// gp strictly inside the element: it stretches, and it is
				// a candidate enclosing element for the fragment's level.
				e.End += l
				st.Relabeled++
				if e.Level+1 > base {
					base = e.Level + 1
				}
			}
		}
		st.byTag[tag] = list
	}
	if base == 0 {
		base = 1
	}
	doc.Walk(func(e *xmltree.Element) bool {
		st.byTag[e.Tag] = append(st.byTag[e.Tag], IntervalLabel{
			Start: gp + e.Start, End: gp + e.End, Level: base + e.Level,
		})
		st.n++
		return true
	})
	// Keep per-tag lists sorted by start (the join input order).
	for tag := range st.byTag {
		list := st.byTag[tag]
		sort.Slice(list, func(i, j int) bool { return list[i].Start < list[j].Start })
	}
	st.textLen += l
	return nil
}

// RemoveRange removes the text range [gp, gp+l): elements fully inside
// disappear, elements after shift left, enclosing elements shrink.
func (st *IntervalStore) RemoveRange(gp, l int) error {
	if gp < 0 || gp+l > st.textLen {
		return fmt.Errorf("labeling: remove [%d,%d) outside document of length %d", gp, gp+l, st.textLen)
	}
	re := gp + l
	for tag, list := range st.byTag {
		kept := list[:0]
		for _, e := range list {
			switch {
			case e.Start >= gp && e.End <= re:
				st.n--
				continue // removed
			case e.Start >= re:
				e.Start -= l
				e.End -= l
				st.Relabeled++
			case e.End > gp && e.Start < gp && e.End <= re:
				// Right part removed (only possible for non-well-formed
				// removals; shrink defensively).
				e.End = gp
				st.Relabeled++
			case e.Start < gp && e.End >= re:
				e.End -= l
				st.Relabeled++
			case e.Start >= gp && e.Start < re:
				// Left part removed.
				width := e.End - e.Start
				cut := re - e.Start
				e.Start = gp
				e.End = gp + width - cut
				st.Relabeled++
			}
			kept = append(kept, e)
		}
		if len(kept) == 0 {
			delete(st.byTag, tag)
		} else {
			st.byTag[tag] = kept
		}
	}
	st.textLen -= l
	return nil
}

// Elements returns the per-tag label list sorted by start.
func (st *IntervalStore) Elements(tag string) []IntervalLabel { return st.byTag[tag] }

// Nodes converts a tag's labels into join input nodes.
func (st *IntervalStore) Nodes(tag string) []join.Node {
	list := st.byTag[tag]
	out := make([]join.Node, len(list))
	for i, e := range list {
		out[i] = join.Node{Start: e.Start, End: e.End, Level: e.Level,
			Ref: join.ElemRef{Start: e.Start, End: e.End, Level: e.Level}}
	}
	return out
}

// Query answers tag-pair structural joins with Stack-Tree-Desc.
func (st *IntervalStore) Query(aTag, dTag string, axis join.Axis) []join.Match {
	return join.StackTreeDesc(st.Nodes(aTag), st.Nodes(dTag), axis)
}
