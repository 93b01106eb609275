// W-BOX-style mutable order labeling (Silberstein, He, Yi, Yang — ICDE
// 2005, reference [9] of the paper). The paper lists a comparison with
// BOXes as future work; this file implements it.
//
// A BOX maintains integer order labels under insertions with amortized
// logarithmic relabeling and O(1) label lookup. The published W-BOX uses
// a weight-balanced B-tree; this implementation uses the classic
// density-threshold list-labeling algorithm (Itai-Konheim-Rodeh), which
// realizes the same external behaviour — mutable fixed-width labels,
// integer order comparisons, amortized O(log² n) relabels per insert —
// with far less machinery. The Relabeled counter exposes exactly the
// cost that distinguishes this family from both immutable schemes (no
// relabels, huge labels) and the lazy approach (no relabels, small
// labels plus an update log).
package labeling

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/join"
	"repro/internal/xmltree"
)

// WBox maintains order labels for a dynamic ordered list.
type WBox struct {
	bits  uint // label space is [0, 1<<bits)
	items []*WItem
	// Relabeled counts label assignments caused by redistribution (the
	// structure's amortized maintenance cost).
	Relabeled int
}

// WItem is one labeled list element.
type WItem struct {
	label uint64
}

// Label returns the item's current order label. Labels mutate on
// redistribution; compare freshly read values only.
func (it *WItem) Label() uint64 { return it.label }

// NewWBox returns an empty BOX with a label space of 2^bits (bits must
// leave headroom over the expected item count; 40 is plenty for tests
// and benchmarks).
func NewWBox(bits uint) *WBox {
	if bits < 4 || bits > 62 {
		panic(fmt.Sprintf("labeling: wbox bits %d out of range", bits))
	}
	return &WBox{bits: bits}
}

// Len returns the number of items.
func (b *WBox) Len() int { return len(b.items) }

// Item returns the i-th item in list order.
func (b *WBox) Item(i int) *WItem { return b.items[i] }

// space returns the exclusive upper bound of the label space.
func (b *WBox) space() uint64 { return 1 << b.bits }

// indexOf locates an item by binary search on its label.
func (b *WBox) indexOf(it *WItem) int {
	i := sort.Search(len(b.items), func(j int) bool { return b.items[j].label >= it.label })
	for i < len(b.items) && b.items[i] != it {
		i++ // duplicates cannot exist; defensive linear step
	}
	return i
}

// InsertAfter inserts a new item immediately after `after` (nil inserts
// at the front) and returns it.
func (b *WBox) InsertAfter(after *WItem) (*WItem, error) {
	idx := 0
	if after != nil {
		i := b.indexOf(after)
		if i >= len(b.items) {
			return nil, fmt.Errorf("labeling: wbox item not found")
		}
		idx = i + 1
	}
	if uint64(len(b.items)) >= b.space()/2 {
		return nil, fmt.Errorf("labeling: wbox label space exhausted (%d items, %d bits)",
			len(b.items), b.bits)
	}
	it := &WItem{}
	b.items = append(b.items, nil)
	copy(b.items[idx+1:], b.items[idx:])
	b.items[idx] = it
	b.assign(idx)
	return it, nil
}

// assign gives items[idx] a label between its neighbours, redistributing
// an enclosing window when no gap remains.
func (b *WBox) assign(idx int) {
	var lo, hi uint64 // exclusive bounds: label must satisfy lo < label < hi
	if idx > 0 {
		lo = b.items[idx-1].label
	} else {
		lo = 0 // labels start at 1 so 0 is a safe virtual floor
	}
	if idx < len(b.items)-1 {
		hi = b.items[idx+1].label
	} else {
		hi = b.space()
	}
	if hi-lo >= 2 {
		b.items[idx].label = lo + (hi-lo)/2
		return
	}
	// No gap. Give the newcomer its predecessor's label so the slice
	// stays non-decreasing (binary searches remain valid), then find the
	// smallest aligned label window around it that is at most half full
	// and spread that window's items evenly — the classic list-labeling
	// redistribution with amortized polylogarithmic relabels per insert.
	b.items[idx].label = lo
	for h := uint(1); h <= b.bits; h++ {
		size := uint64(1) << h
		wlo := lo &^ (size - 1)
		whi := wlo + size
		first := sort.Search(len(b.items), func(j int) bool { return b.items[j].label >= wlo })
		last := sort.Search(len(b.items), func(j int) bool { return b.items[j].label >= whi })
		count := last - first // includes the newcomer
		// Density thresholds fall geometrically from 1 at single labels
		// to 1/2 at the whole space. After a window redistributes, its
		// sub-windows sit strictly below their own (higher) thresholds,
		// which is what yields the amortized O(log² n) relabel bound —
		// a flat threshold would re-overflow immediately.
		threshold := math.Pow(0.5, float64(h)/float64(b.bits))
		if float64(count) <= threshold*float64(size) {
			// Even spread across the whole window. Multiply before
			// dividing: a truncated per-item step would pack the items
			// at the window's start and leave no gaps for the next
			// insertion, degrading to O(n) relabels per insert.
			width := whi - wlo
			for i := 0; i < count; i++ {
				b.items[first+i].label = wlo + uint64(i+1)*width/uint64(count+1)
			}
			// The newcomer's own assignment is not maintenance cost.
			b.Relabeled += count - 1
			return
		}
	}
	panic("labeling: wbox redistribution failed (space too small)")
}

// Validate checks that labels are strictly increasing in list order.
func (b *WBox) Validate() error {
	for i := 1; i < len(b.items); i++ {
		if b.items[i-1].label >= b.items[i].label {
			return fmt.Errorf("labeling: wbox labels not increasing at %d (%d >= %d)",
				i, b.items[i-1].label, b.items[i].label)
		}
	}
	return nil
}

// --- XML element store on top of two endpoint labels per element ---

// WBoxElem labels one XML element by its start and end endpoints.
type WBoxElem struct {
	Tag        string
	Start, End *WItem
	Level      int
}

// Contains reports whether e strictly contains d under the current
// labels.
func (e *WBoxElem) Contains(d *WBoxElem) bool {
	return e.Start.Label() < d.Start.Label() && d.End.Label() < e.End.Label()
}

// WBoxStore labels a document's elements with BOX order labels: the
// interval-containment test of the traditional scheme, but with
// amortized-logarithmic instead of O(N) relabeling on updates.
type WBoxStore struct {
	box   *WBox
	elems []*WBoxElem // document order
}

// NewWBoxStore labels every element of doc.
func NewWBoxStore(doc *xmltree.Document, bits uint) (*WBoxStore, error) {
	st := &WBoxStore{box: NewWBox(bits)}
	var last *WItem
	var add func(e *xmltree.Element, level int) error
	add = func(e *xmltree.Element, level int) error {
		start, err := st.box.InsertAfter(last)
		if err != nil {
			return err
		}
		last = start
		we := &WBoxElem{Tag: e.Tag, Start: start, Level: level}
		st.elems = append(st.elems, we)
		for _, c := range e.Children {
			if err := add(c, level+1); err != nil {
				return err
			}
		}
		end, err := st.box.InsertAfter(last)
		if err != nil {
			return err
		}
		last = end
		we.End = end
		return nil
	}
	if doc != nil && doc.Root != nil {
		if err := add(doc.Root, 1); err != nil {
			return nil, err
		}
	}
	// Initial construction is not "relabeling"; reset the counter so it
	// measures update cost only.
	st.box.Relabeled = 0
	return st, nil
}

// Len returns the number of elements.
func (st *WBoxStore) Len() int { return len(st.elems) }

// Elem returns the i-th element in document order.
func (st *WBoxStore) Elem(i int) *WBoxElem { return st.elems[i] }

// Relabeled returns the number of endpoint labels rewritten by updates.
func (st *WBoxStore) Relabeled() int { return st.box.Relabeled }

// InsertLeafAfter inserts a new empty element with the given tag
// immediately after element `after` ends (a following sibling), or as
// the first child of `parent` when after is nil. Only the two new
// endpoints need labels; existing labels move only when a BOX window
// redistributes.
func (st *WBoxStore) InsertLeafAfter(tag string, parent, after *WBoxElem) (*WBoxElem, error) {
	var anchor *WItem
	level := 1
	switch {
	case after != nil:
		anchor = after.End
		level = after.Level
	case parent != nil:
		anchor = parent.Start
		level = parent.Level + 1
	default:
		return nil, fmt.Errorf("labeling: wbox insert needs a parent or a left sibling")
	}
	start, err := st.box.InsertAfter(anchor)
	if err != nil {
		return nil, err
	}
	end, err := st.box.InsertAfter(start)
	if err != nil {
		return nil, err
	}
	we := &WBoxElem{Tag: tag, Start: start, End: end, Level: level}
	st.elems = append(st.elems, we)
	return we, nil
}

// Nodes returns join inputs for one tag under the CURRENT labels (labels
// mutate on redistribution, so the slice must be rebuilt per query).
func (st *WBoxStore) Nodes(tag string) []join.Node {
	var out []join.Node
	for _, e := range st.elems {
		if e.Tag != tag {
			continue
		}
		out = append(out, join.Node{
			Start: int(e.Start.Label()),
			End:   int(e.End.Label()) + 1, // exclusive bound after the end label
			Level: e.Level,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Query answers tag-pair structural joins over the BOX labels with
// Stack-Tree-Desc, making the store a complete query+update baseline.
func (st *WBoxStore) Query(aTag, dTag string, axis join.Axis) []join.Match {
	return join.StackTreeDesc(st.Nodes(aTag), st.Nodes(dTag), axis)
}

// Validate checks label order and element nesting sanity.
func (st *WBoxStore) Validate() error {
	if err := st.box.Validate(); err != nil {
		return err
	}
	for i, e := range st.elems {
		if e.Start.Label() >= e.End.Label() {
			return fmt.Errorf("labeling: wbox element %d start !< end", i)
		}
	}
	return nil
}
