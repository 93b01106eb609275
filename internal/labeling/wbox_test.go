package labeling

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/join"
	"repro/internal/xmltree"
)

func TestWBoxSequentialAppend(t *testing.T) {
	b := NewWBox(20)
	var last *WItem
	for i := 0; i < 1000; i++ {
		it, err := b.InsertAfter(last)
		if err != nil {
			t.Fatal(err)
		}
		last = it
	}
	if b.Len() != 1000 {
		t.Fatalf("Len = %d", b.Len())
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWBoxFrontInsertForcesRelabels(t *testing.T) {
	b := NewWBox(16)
	for i := 0; i < 500; i++ {
		if _, err := b.InsertAfter(nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if b.Relabeled == 0 {
		t.Fatal("adversarial front insertion triggered no redistribution")
	}
	// Amortized cost must stay polylogarithmic (log₂²(500) ≈ 80 per
	// insert), far below the quadratic of naive relabeling.
	if b.Relabeled > 500*160 {
		t.Fatalf("relabeled %d times for 500 inserts — amortization broken", b.Relabeled)
	}
}

func TestWBoxMiddleInsert(t *testing.T) {
	b := NewWBox(20)
	a, _ := b.InsertAfter(nil)
	c, _ := b.InsertAfter(a)
	mid, err := b.InsertAfter(a)
	if err != nil {
		t.Fatal(err)
	}
	if !(a.Label() < mid.Label() && mid.Label() < c.Label()) {
		t.Fatalf("labels: %d %d %d", a.Label(), mid.Label(), c.Label())
	}
}

func TestWBoxSpaceExhaustion(t *testing.T) {
	b := NewWBox(4) // 16 labels, max 8 items
	var last *WItem
	var err error
	for i := 0; i < 16; i++ {
		last, err = b.InsertAfter(last)
		if err != nil {
			return // expected before filling the space
		}
	}
	t.Fatal("label space never exhausted")
}

func TestWBoxBadBits(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWBox(2) did not panic")
		}
	}()
	NewWBox(2)
}

func TestQuickWBoxOrderInvariant(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := NewWBox(18)
		var order []*WItem
		for i := 0; i < 300; i++ {
			var after *WItem
			pos := 0
			if len(order) > 0 && r.Intn(5) != 0 {
				pos = r.Intn(len(order)) + 1
				after = order[pos-1]
			}
			it, err := b.InsertAfter(after)
			if err != nil {
				return false
			}
			order = append(order[:pos], append([]*WItem{it}, order[pos:]...)...)
		}
		// The labels must reflect exactly the insertion order we tracked.
		for i := 1; i < len(order); i++ {
			if order[i-1].Label() >= order[i].Label() {
				return false
			}
		}
		return b.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestWBoxStoreFromDocument(t *testing.T) {
	doc := parseDoc(t, "<a><b><c/></b><d/></a>")
	st, err := NewWBoxStore(doc, 24)
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 4 {
		t.Fatalf("Len = %d", st.Len())
	}
	if st.Relabeled() != 0 {
		t.Fatalf("construction counted as relabeling: %d", st.Relabeled())
	}
	a, bb, c, d := st.Elem(0), st.Elem(1), st.Elem(2), st.Elem(3)
	if !a.Contains(bb) || !a.Contains(c) || !bb.Contains(c) || !a.Contains(d) {
		t.Fatal("missing containment")
	}
	if bb.Contains(d) || c.Contains(bb) || d.Contains(a) {
		t.Fatal("false containment")
	}
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWBoxStoreAgainstIntervalContainment(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc, err := xmltree.Parse([]byte(randomDoc(r)))
		if err != nil {
			return false
		}
		st, err := NewWBoxStore(doc, 30)
		if err != nil {
			return false
		}
		els := doc.Elements()
		for i := range els {
			for j := range els {
				if st.Elem(i).Contains(st.Elem(j)) != els[i].Contains(els[j]) {
					return false
				}
			}
		}
		return st.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestWBoxStoreInsertLeaf(t *testing.T) {
	doc := parseDoc(t, "<a><b/><c/></a>")
	st, err := NewWBoxStore(doc, 24)
	if err != nil {
		t.Fatal(err)
	}
	a, b := st.Elem(0), st.Elem(1)
	// New first child of <b/>.
	child, err := st.InsertLeafAfter("x", b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Contains(child) || !a.Contains(child) {
		t.Fatal("inserted child not contained")
	}
	if child.Level != b.Level+1 {
		t.Fatalf("child level = %d", child.Level)
	}
	// New sibling after <b/>.
	sib, err := st.InsertLeafAfter("y", nil, b)
	if err != nil {
		t.Fatal(err)
	}
	if b.Contains(sib) || !a.Contains(sib) {
		t.Fatal("sibling containment wrong")
	}
	if _, err := st.InsertLeafAfter("z", nil, nil); err == nil {
		t.Fatal("anchorless insert succeeded")
	}
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWBoxStoreQuery(t *testing.T) {
	doc := parseDoc(t, "<a><b><c/></b><c/></a>")
	st, err := NewWBoxStore(doc, 24)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Query("a", "c", join.Descendant); len(got) != 2 {
		t.Fatalf("a//c = %d", len(got))
	}
	if got := st.Query("b", "c", join.Child); len(got) != 1 {
		t.Fatalf("b/c = %d", len(got))
	}
	// Query stays correct after label-mutating insertions.
	b := st.Elem(1)
	for i := 0; i < 50; i++ {
		if _, err := st.InsertLeafAfter("c", b, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.Query("b", "c", join.Child); len(got) != 51 {
		t.Fatalf("b/c after inserts = %d", len(got))
	}
	if got := st.Query("a", "c", join.Descendant); len(got) != 52 {
		t.Fatalf("a//c after inserts = %d", len(got))
	}
}

// TestWBoxHeavyLocalInsertionAmortized: many insertions at one point (the
// registration-form workload) — labels stay consistent and total relabels
// stay amortized-small, the property [9] is built for.
func TestWBoxHeavyLocalInsertionAmortized(t *testing.T) {
	doc := parseDoc(t, "<a><b/></a>")
	st, err := NewWBoxStore(doc, 34)
	if err != nil {
		t.Fatal(err)
	}
	parent := st.Elem(0)
	const n = 5000
	for i := 0; i < n; i++ {
		if _, err := st.InsertLeafAfter("x", parent, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	// The classic bound is amortized O(log² N) relabels per insert; with
	// ~10k endpoint labels log₂²(N) ≈ 180. Allow 2×, reject anything in
	// linear territory (which would be thousands).
	perInsert := float64(st.Relabeled()) / n
	if perInsert > 360 {
		t.Fatalf("%.1f relabels/insert — amortization broken", perInsert)
	}
}

// BenchmarkOrderMaintenance times W-BOX (mutable labels, amortized
// relabeling, O(1) lookup) on an adversarial workload: repeated insertion
// at one point.
func BenchmarkOrderMaintenance(b *testing.B) {
	// The box is reset every 50k items so b.N ramping measures the
	// structure at a fixed scale instead of degenerating into an
	// ever-larger store (the WBox slice memmove is O(n) per insert).
	const resetAt = 50_000
	b.Run("WBOX-insert", func(b *testing.B) {
		box := NewWBox(48)
		anchor, _ := box.InsertAfter(nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if box.Len() >= resetAt {
				b.StopTimer()
				box = NewWBox(48)
				anchor, _ = box.InsertAfter(nil)
				b.StartTimer()
			}
			if _, err := box.InsertAfter(anchor); err != nil {
				b.Fatal(err)
			}
		}
	})
}
