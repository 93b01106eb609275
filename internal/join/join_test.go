package join

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// n builds a Node whose Ref encodes its own interval (segment 1).
func n(start, end, level int) Node {
	return Node{Start: start, End: end, Level: level,
		Ref: ElemRef{SID: 1, Start: start, End: end, Level: level}}
}

func pairSet(ps []Match) map[[2]int]bool {
	out := map[[2]int]bool{}
	for _, p := range ps {
		out[[2]int{p.Anc.Start, p.Desc.Start}] = true
	}
	return out
}

func TestSTDEmptyInputs(t *testing.T) {
	if got := StackTreeDesc(nil, nil, Descendant); len(got) != 0 {
		t.Fatalf("got %v", got)
	}
	if got := StackTreeDesc([]Node{n(0, 10, 1)}, nil, Descendant); len(got) != 0 {
		t.Fatalf("got %v", got)
	}
	if got := StackTreeDesc(nil, []Node{n(0, 10, 1)}, Descendant); len(got) != 0 {
		t.Fatalf("got %v", got)
	}
}

func TestSTDSimpleNesting(t *testing.T) {
	// a[0,100) contains d[10,20) and d[30,40); a[50,60) contains nothing.
	alist := []Node{n(0, 100, 1), n(50, 60, 2)}
	dlist := []Node{n(10, 20, 2), n(30, 40, 2), n(70, 80, 2)}
	got := StackTreeDesc(alist, dlist, Descendant)
	want := map[[2]int]bool{{0, 10}: true, {0, 30}: true, {0, 70}: true}
	if !eq(pairSet(got), want) {
		t.Fatalf("got %v, want %v", pairSet(got), want)
	}
}

func TestSTDAncestorChain(t *testing.T) {
	// Nested a's: a[0,100) > a[10,90) > a[20,80) all contain d[30,40).
	alist := []Node{n(0, 100, 1), n(10, 90, 2), n(20, 80, 3)}
	dlist := []Node{n(30, 40, 4)}
	got := StackTreeDesc(alist, dlist, Descendant)
	if len(got) != 3 {
		t.Fatalf("got %d pairs, want 3", len(got))
	}
}

func TestSTDChildAxis(t *testing.T) {
	alist := []Node{n(0, 100, 1), n(10, 90, 2)}
	dlist := []Node{n(20, 30, 3), n(40, 50, 2)}
	got := StackTreeDesc(alist, dlist, Child)
	// d at level 3 is the child of a at level 2; d at level 2 the child
	// of a at level 1.
	want := map[[2]int]bool{{10, 20}: true, {0, 40}: true}
	if !eq(pairSet(got), want) {
		t.Fatalf("got %v, want %v", pairSet(got), want)
	}
}

func TestSTDSelfTagJoin(t *testing.T) {
	// a//a with nested a's: no self-pairs.
	list := []Node{n(0, 100, 1), n(10, 90, 2), n(20, 80, 3)}
	got := StackTreeDesc(list, list, Descendant)
	want := map[[2]int]bool{{0, 10}: true, {0, 20}: true, {10, 20}: true}
	if !eq(pairSet(got), want) {
		t.Fatalf("got %v, want %v", pairSet(got), want)
	}
}

func TestSTDOutputDescendantSorted(t *testing.T) {
	alist := []Node{n(0, 100, 1), n(10, 50, 2), n(60, 90, 2)}
	dlist := []Node{n(20, 30, 3), n(40, 45, 3), n(70, 80, 3)}
	got := StackTreeDesc(alist, dlist, Descendant)
	starts := make([]int, len(got))
	for i, p := range got {
		starts[i] = p.Desc.Start
	}
	if !sort.IntsAreSorted(starts) {
		t.Fatalf("descendant starts not sorted: %v", starts)
	}
}

func TestSTDAdjacentNotContained(t *testing.T) {
	// a[0,10) and d[10,20): touching, not nested.
	got := StackTreeDesc([]Node{n(0, 10, 1)}, []Node{n(10, 20, 1)}, Descendant)
	if len(got) != 0 {
		t.Fatalf("got %v", got)
	}
}

// genIntervals builds a random properly-nested interval forest and
// returns the nodes plus parent links for ground truth.
func genIntervals(r *rand.Rand) (nodes []Node, parent map[int]int) {
	parent = map[int]int{}
	pos := 0
	var build func(level, parentStart int, budget int) int
	build = func(level, parentStart, budget int) int {
		for budget > 0 {
			start := pos
			pos += 1 + r.Intn(2)
			inner := r.Intn(budget)
			budget -= inner + 1
			used := build(level+1, start, inner)
			_ = used
			pos++
			nodes = append(nodes, Node{Start: start, End: pos, Level: level,
				Ref: ElemRef{SID: 1, Start: start, End: pos, Level: level}})
			parent[start] = parentStart
			pos += r.Intn(2)
		}
		return 0
	}
	build(1, -1, 8+r.Intn(10))
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Start < nodes[j].Start })
	return nodes, parent
}

func TestQuickSTDAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nodes, parent := genIntervals(r)
		// Split nodes randomly into A-list and D-list (overlap allowed).
		var alist, dlist []Node
		for _, nd := range nodes {
			if r.Intn(2) == 0 {
				alist = append(alist, nd)
			}
			if r.Intn(2) == 0 {
				dlist = append(dlist, nd)
			}
		}
		for _, axis := range []Axis{Descendant, Child} {
			want := map[[2]int]bool{}
			for _, a := range alist {
				for _, d := range dlist {
					if a.Start < d.Start && d.End <= a.End {
						if axis == Child {
							// ground truth for child: actual parent link
							if parent[d.Start] != a.Start {
								continue
							}
						}
						want[[2]int{a.Start, d.Start}] = true
					}
				}
			}
			got := pairSet(StackTreeDesc(alist, dlist, axis))
			if !eq(got, want) {
				t.Logf("seed %d axis %v: got %v want %v", seed, axis, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func eq(a, b map[[2]int]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}
