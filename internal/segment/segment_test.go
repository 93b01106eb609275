package segment

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// mustInsert inserts and fails the test on error.
func mustInsert(t *testing.T, tr *Tree, gp, l int) *Segment {
	t.Helper()
	s, err := tr.Insert(gp, l)
	if err != nil {
		t.Fatalf("Insert(%d,%d): %v", gp, l, err)
	}
	return s
}

func TestEmptyTree(t *testing.T) {
	tr := NewTree()
	if tr.TotalLen() != 0 {
		t.Fatalf("TotalLen = %d", tr.TotalLen())
	}
	if tr.NumSegments() != 1 {
		t.Fatalf("NumSegments = %d, want 1 (dummy root)", tr.NumSegments())
	}
	root, ok := tr.Lookup(RootSID)
	if !ok || root != tr.Root() {
		t.Fatal("root not in SB-tree")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertFirstSegment(t *testing.T) {
	tr := NewTree()
	s := mustInsert(t, tr, 0, 100)
	if s.SID != 1 || s.GP != 0 || s.L != 100 || s.LP != 0 {
		t.Fatalf("segment = %+v", s)
	}
	if tr.TotalLen() != 100 {
		t.Fatalf("TotalLen = %d", tr.TotalLen())
	}
	if s.Parent != tr.Root() {
		t.Fatal("parent not root")
	}
	p := s.Path()
	if len(p) != 2 || p[0] != RootSID || p[1] != s.SID {
		t.Fatalf("path = %v", p)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertNested(t *testing.T) {
	tr := NewTree()
	a := mustInsert(t, tr, 0, 100) // <a>...</a>, spans [0,100)
	b := mustInsert(t, tr, 50, 20) // inside a
	if b.Parent != a {
		t.Fatalf("b.Parent = %v", b.Parent.SID)
	}
	if a.L != 120 || tr.TotalLen() != 120 {
		t.Fatalf("a.L = %d, total = %d", a.L, tr.TotalLen())
	}
	if b.GP != 50 || b.LP != 50 {
		t.Fatalf("b = gp %d lp %d", b.GP, b.LP)
	}
	// Insert inside b.
	c := mustInsert(t, tr, 55, 10)
	if c.Parent != b {
		t.Fatal("c not child of b")
	}
	if c.LP != 5 {
		t.Fatalf("c.LP = %d, want 5", c.LP)
	}
	if b.L != 30 || a.L != 130 {
		t.Fatalf("b.L = %d a.L = %d", b.L, a.L)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertSiblingsLocalPositions(t *testing.T) {
	tr := NewTree()
	a := mustInsert(t, tr, 0, 100)
	// Three siblings inside a, inserted left to right.
	s1 := mustInsert(t, tr, 10, 5)
	s2 := mustInsert(t, tr, 30, 5) // at original offset 30-5=25 of a's text
	s3 := mustInsert(t, tr, 50, 5) // at original offset 50-10=40
	if s1.LP != 10 || s2.LP != 25 || s3.LP != 40 {
		t.Fatalf("lps = %d %d %d, want 10 25 40", s1.LP, s2.LP, s3.LP)
	}
	if a.L != 115 {
		t.Fatalf("a.L = %d", a.L)
	}
	// Insert a new left sibling before them all: their LPs must not move.
	s0 := mustInsert(t, tr, 5, 7)
	if s0.LP != 5 {
		t.Fatalf("s0.LP = %d", s0.LP)
	}
	if s1.LP != 10 || s2.LP != 25 || s3.LP != 40 {
		t.Fatalf("lps changed: %d %d %d", s1.LP, s2.LP, s3.LP)
	}
	// Global positions did move.
	if s1.GP != 17 || s2.GP != 37 || s3.GP != 57 {
		t.Fatalf("gps = %d %d %d, want 17 37 57", s1.GP, s2.GP, s3.GP)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertAtExistingStart(t *testing.T) {
	tr := NewTree()
	mustInsert(t, tr, 0, 100)
	b := mustInsert(t, tr, 20, 10)
	// Insert at exactly b's start: new segment lands before b.
	c := mustInsert(t, tr, 20, 6)
	if c.GP != 20 || b.GP != 26 {
		t.Fatalf("c.GP = %d, b.GP = %d; want 20, 26", c.GP, b.GP)
	}
	if c.LP != 20 || b.LP != 20 {
		t.Fatalf("c.LP = %d, b.LP = %d; both insertion points are original offset 20", c.LP, b.LP)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertAtExistingEnd(t *testing.T) {
	tr := NewTree()
	a := mustInsert(t, tr, 0, 100)
	b := mustInsert(t, tr, 20, 10) // spans [20,30)
	// Insert at b's end: lands after b, inside a.
	c := mustInsert(t, tr, 30, 6)
	if c.Parent != a {
		t.Fatalf("c.Parent = %d, want a", c.Parent.SID)
	}
	if c.LP != 20 {
		t.Fatalf("c.LP = %d, want 20 (b's text is foreign to a)", c.LP)
	}
	if b.GP != 20 || b.L != 10 {
		t.Fatal("b moved")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertErrors(t *testing.T) {
	tr := NewTree()
	if _, err := tr.Insert(1, 10); err == nil {
		t.Fatal("insert beyond empty doc succeeded")
	}
	if _, err := tr.Insert(0, 0); err == nil {
		t.Fatal("zero-length insert succeeded")
	}
	if _, err := tr.Insert(-1, 10); err == nil {
		t.Fatal("negative position insert succeeded")
	}
	mustInsert(t, tr, 0, 10)
	if _, err := tr.Insert(11, 5); err == nil {
		t.Fatal("insert past end succeeded")
	}
	if _, err := tr.Insert(10, 5); err != nil {
		t.Fatalf("insert at end: %v", err)
	}
}

func TestRemoveWholeSegment(t *testing.T) {
	tr := NewTree()
	a := mustInsert(t, tr, 0, 100)
	b := mustInsert(t, tr, 50, 20)
	c := mustInsert(t, tr, 55, 5) // inside b
	rep, err := tr.Remove(b.GP, b.L)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Deleted) != 2 || rep.Deleted[0] != b.SID || rep.Deleted[1] != c.SID {
		t.Fatalf("Deleted = %v, want [b c]", rep.Deleted)
	}
	if len(rep.Affected) != 0 {
		t.Fatalf("Affected = %v, want none", rep.Affected)
	}
	if a.L != 100 || tr.TotalLen() != 100 {
		t.Fatalf("a.L = %d", a.L)
	}
	if _, ok := tr.Lookup(b.SID); ok {
		t.Fatal("b still in SB-tree")
	}
	if _, ok := tr.Lookup(c.SID); ok {
		t.Fatal("c still in SB-tree")
	}
	if len(a.Children) != 0 {
		t.Fatal("a still has children")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveInsideSegment(t *testing.T) {
	tr := NewTree()
	a := mustInsert(t, tr, 0, 100)
	rep, err := tr.Remove(10, 20) // removes a's own text [10,30)
	if err != nil {
		t.Fatal(err)
	}
	if a.L != 80 || tr.TotalLen() != 80 {
		t.Fatalf("a.L = %d", a.L)
	}
	if len(rep.Affected) != 1 || rep.Affected[0] != (RemovedPart{a.SID, 10, 30}) {
		t.Fatalf("Affected = %v", rep.Affected)
	}
	tombs := a.Tombstones()
	if len(tombs) != 1 || tombs[0] != (Range{10, 30}) {
		t.Fatalf("tombs = %v", tombs)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveShiftsLaterSegments(t *testing.T) {
	tr := NewTree()
	mustInsert(t, tr, 0, 100)
	b := mustInsert(t, tr, 20, 10)
	c := mustInsert(t, tr, 60, 10) // well after b
	if _, err := tr.Remove(b.GP, b.L); err != nil {
		t.Fatal(err)
	}
	if c.GP != 50 {
		t.Fatalf("c.GP = %d, want 50", c.GP)
	}
	if c.LP != 50 {
		t.Fatalf("c.LP = %d, must not change", c.LP)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveLeftIntersection(t *testing.T) {
	tr := NewTree()
	a := mustInsert(t, tr, 0, 100)
	b := mustInsert(t, tr, 20, 30) // spans [20,50)
	// Remove [40, 60): left-intersects b (removes b's tail [40,50)) and
	// a's own text [50,60).
	rep, err := tr.Remove(40, 20)
	if err != nil {
		t.Fatal(err)
	}
	if b.GP != 20 || b.L != 20 {
		t.Fatalf("b = [%d, %d)", b.GP, b.End())
	}
	// a held 130 chars (100 own + 30 of b) and the removal took 20.
	if a.L != 110 {
		t.Fatalf("a.L = %d, want 110", a.L)
	}
	// b lost original range [20,30); a lost original range... a's own
	// coords: global 50..60 is a-original 20..30 (b's 30 chars are
	// foreign, inserted at a-offset 20).
	wantB := RemovedPart{b.SID, 20, 30}
	wantA := RemovedPart{a.SID, 20, 30}
	if len(rep.Affected) != 2 {
		t.Fatalf("Affected = %v", rep.Affected)
	}
	got := map[SID]RemovedPart{}
	for _, p := range rep.Affected {
		got[p.SID] = p
	}
	if got[b.SID] != wantB || got[a.SID] != wantA {
		t.Fatalf("Affected = %v, want %v and %v", rep.Affected, wantA, wantB)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveRightIntersection(t *testing.T) {
	tr := NewTree()
	a := mustInsert(t, tr, 0, 100)
	b := mustInsert(t, tr, 20, 30) // spans [20,50)
	// Remove [10,30): a's own text [10,20) and b's head [20,30).
	rep, err := tr.Remove(10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if b.GP != 10 {
		t.Fatalf("b.GP = %d, want 10 (survivor slides to range start)", b.GP)
	}
	if b.L != 20 {
		t.Fatalf("b.L = %d, want 20", b.L)
	}
	if b.LP != 20 {
		t.Fatalf("b.LP = %d, immutable", b.LP)
	}
	// a held 130 chars (100 own + 30 of b) and the removal took 20.
	if a.L != 110 {
		t.Fatalf("a.L = %d, want 110", a.L)
	}
	got := map[SID]RemovedPart{}
	for _, p := range rep.Affected {
		got[p.SID] = p
	}
	if got[a.SID] != (RemovedPart{a.SID, 10, 20}) {
		t.Fatalf("a part = %v", got[a.SID])
	}
	if got[b.SID] != (RemovedPart{b.SID, 0, 10}) {
		t.Fatalf("b part = %v", got[b.SID])
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveFigure6Shape(t *testing.T) {
	// Reproduces the shape of Figure 6: the removed range is contained in
	// segment 1, fully contains segments 4, 5, 6, left-intersects
	// segment 2 and right-intersects segments 7 and 8 (7 nested in ... we
	// model 7 containing 8).
	tr := NewTree()
	s1 := mustInsert(t, tr, 0, 1000)
	s2 := mustInsert(t, tr, 100, 200) // [100,300)
	s4 := mustInsert(t, tr, 150, 20)  // inside s2
	s5 := mustInsert(t, tr, 400, 50)  // [400,450) own child of s1
	s6 := mustInsert(t, tr, 410, 10)  // inside s5
	s7 := mustInsert(t, tr, 500, 300) // [500,800)
	s8 := mustInsert(t, tr, 510, 100) // inside s7, [510,610)
	// Remove [200, 550): left-intersects s2 (incl. s4? s4 is [150,170),
	// before the range), contains s5+s6, right-intersects s7 and s8.
	rep, err := tr.Remove(200, 350)
	if err != nil {
		t.Fatal(err)
	}
	deleted := map[SID]bool{}
	for _, id := range rep.Deleted {
		deleted[id] = true
	}
	if !deleted[s5.SID] || !deleted[s6.SID] || len(rep.Deleted) != 2 {
		t.Fatalf("Deleted = %v, want s5 s6", rep.Deleted)
	}
	// Before the removal: s2 [100,320) (200 own + 20 of s4), s5 [400,460),
	// s7 [500,900) (300 own + 100 of s8), s8 [510,610), s1 length 1680.
	if s2.GP != 100 || s2.End() != 200 {
		t.Fatalf("s2 = [%d,%d), want [100,200)", s2.GP, s2.End())
	}
	// s7 loses only its head [500,550); its surviving 350 chars slide to
	// the start of the removed range.
	if s7.GP != 200 || s7.End() != 550 {
		t.Fatalf("s7 = [%d,%d), want [200,550)", s7.GP, s7.End())
	}
	// s8 loses [510,550); its survivor also starts where the range began.
	if s8.GP != 200 || s8.End() != 260 {
		t.Fatalf("s8 = [%d,%d), want [200,260)", s8.GP, s8.End())
	}
	if s1.L != 1330 || tr.TotalLen() != 1330 {
		t.Fatalf("s1.L = %d, want 1330", s1.L)
	}
	if s4.GP != 150 || s4.L != 20 {
		t.Fatal("s4 should be untouched")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveErrors(t *testing.T) {
	tr := NewTree()
	mustInsert(t, tr, 0, 50)
	if _, err := tr.Remove(0, 0); err == nil {
		t.Fatal("zero-length remove succeeded")
	}
	if _, err := tr.Remove(40, 20); err == nil {
		t.Fatal("overlong remove succeeded")
	}
	if _, err := tr.Remove(-1, 5); err == nil {
		t.Fatal("negative remove succeeded")
	}
}

func TestGlobalOfWithChildrenAndTombstones(t *testing.T) {
	tr := NewTree()
	a := mustInsert(t, tr, 0, 100)
	// Child inserted at a-original offset 40.
	mustInsert(t, tr, 40, 10)
	// a's original offset 40 now sits at global 50 (child text precedes);
	// offset 39 still at global 39.
	if g := a.GlobalOf(40); g != 50 {
		t.Fatalf("GlobalOf(40) = %d, want 50", g)
	}
	if g := a.GlobalOf(39); g != 39 {
		t.Fatalf("GlobalOf(39) = %d, want 39", g)
	}
	// Exclusive end at the insertion point does not include child text.
	if g := a.GlobalOfEnd(40); g != 40 {
		t.Fatalf("GlobalOfEnd(40) = %d, want 40", g)
	}
	// Now remove a's own text [10,20) (global [10,20), before the child).
	if _, err := tr.Remove(10, 10); err != nil {
		t.Fatal(err)
	}
	// a-original 30 now sits at global 20.
	if g := a.GlobalOf(30); g != 20 {
		t.Fatalf("after tombstone GlobalOf(30) = %d, want 20", g)
	}
	// a-original 40 sits at global 30 + child length 10 = 40.
	if g := a.GlobalOf(40); g != 40 {
		t.Fatalf("after tombstone GlobalOf(40) = %d, want 40", g)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestLocate: every global position maps to the segment whose own text
// holds it and back — Locate inverts GlobalOf — across a child segment
// and a tombstone.
func TestLocate(t *testing.T) {
	tr := NewTree()
	a := mustInsert(t, tr, 0, 100)
	c := mustInsert(t, tr, 40, 10) // child at a-original 40
	if _, err := tr.Remove(10, 10); err != nil {
		t.Fatal(err) // a's own [10,20) becomes a tombstone
	}
	// Now: a = [0,100), child c = [30,40).
	for gp := 0; gp < tr.TotalLen(); gp++ {
		s, orig, ok := tr.Locate(gp)
		want := a
		if gp >= c.GP && gp < c.End() {
			want = c
		}
		if !ok || s != want || s.GlobalOf(orig) != gp {
			t.Fatalf("Locate(%d) = seg %d orig %d (%v); want seg %d and GlobalOf(orig) == gp", gp, s.SID, orig, ok, want.SID)
		}
	}
	if s, orig, _ := tr.Locate(10); s != a || orig != 20 {
		t.Fatalf("Locate(10) = seg %d orig %d, want the byte after the tombstone (orig 20)", s.SID, orig)
	}
	if s, orig, _ := tr.Locate(c.GP); s != c || orig != 0 {
		t.Fatalf("Locate(child start) = seg %d orig %d, want the child's own first byte", s.SID, orig)
	}
	for _, gp := range []int{-1, tr.TotalLen()} {
		if _, _, ok := tr.Locate(gp); ok {
			t.Fatalf("Locate(%d) ok outside the document", gp)
		}
	}
}

func TestLocalPositionAfterTombstone(t *testing.T) {
	tr := NewTree()
	a := mustInsert(t, tr, 0, 100)
	if _, err := tr.Remove(10, 20); err != nil { // tombstone a[10,30)
		t.Fatal(err)
	}
	// Insert at global 50 = a's current-own offset 50, original offset 70.
	b := mustInsert(t, tr, 50, 5)
	if b.LP != 70 {
		t.Fatalf("b.LP = %d, want 70 (original coordinates)", b.LP)
	}
	if b.GP != 50 {
		t.Fatalf("b.GP = %d", b.GP)
	}
	if g := a.GlobalOf(70); g != 55 {
		// Original 70 -> current-own 50 -> +child 5 (LP 70 <= 70).
		t.Fatalf("GlobalOf(70) = %d, want 55", g)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestChildLPToward(t *testing.T) {
	tr := NewTree()
	a := mustInsert(t, tr, 0, 100)
	b := mustInsert(t, tr, 30, 40)
	c := mustInsert(t, tr, 50, 10)
	// P_c^a is b's LP (b is the child of a on the path to c).
	lp, err := ChildLPToward(a, c)
	if err != nil {
		t.Fatal(err)
	}
	if lp != b.LP {
		t.Fatalf("ChildLPToward(a,c) = %d, want %d", lp, b.LP)
	}
	// a directly contains b: P_b^a is b's own LP.
	lp, err = ChildLPToward(a, b)
	if err != nil || lp != b.LP {
		t.Fatalf("ChildLPToward(a,b) = %d, %v", lp, err)
	}
	// c is not an ancestor of b.
	if _, err := ChildLPToward(c, b); err == nil {
		t.Fatal("ChildLPToward(c,b) succeeded")
	}
}

func TestPathsAreStable(t *testing.T) {
	tr := NewTree()
	a := mustInsert(t, tr, 0, 100)
	b := mustInsert(t, tr, 10, 30)
	c := mustInsert(t, tr, 15, 5)
	wantC := []SID{RootSID, a.SID, b.SID, c.SID}
	checkPath := func() {
		t.Helper()
		p := c.Path()
		if len(p) != len(wantC) {
			t.Fatalf("path = %v", p)
		}
		for i := range p {
			if p[i] != wantC[i] {
				t.Fatalf("path = %v, want %v", p, wantC)
			}
		}
	}
	checkPath()
	mustInsert(t, tr, 60, 10) // unrelated insert
	checkPath()
	if _, err := tr.Remove(70, 5); err != nil { // unrelated remove
		t.Fatal(err)
	}
	checkPath()
}

func TestDump(t *testing.T) {
	tr := NewTree()
	mustInsert(t, tr, 0, 100)
	mustInsert(t, tr, 10, 20)
	if _, err := tr.Remove(50, 5); err != nil {
		t.Fatal(err)
	}
	out := tr.Dump()
	for _, want := range []string{"root [0,115)", "seg 1 [0,115)", "seg 2 [10,30)", "tombs"} {
		if !contains(out, want) {
			t.Fatalf("Dump missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestSizeBytesGrowsLinearly(t *testing.T) {
	tr := NewTree()
	mustInsert(t, tr, 0, 1_000_000)
	base := tr.SizeBytes()
	for i := 0; i < 100; i++ {
		mustInsert(t, tr, 10+i, 3)
	}
	grown := tr.SizeBytes()
	perSeg := float64(grown-base) / 100
	if perSeg < 40 || perSeg > 200 {
		t.Fatalf("per-segment footprint = %.1f bytes, outside sane range", perSeg)
	}
}

// --- model-based property tests ---

// mirror is a brute-force positional model of the super document's
// segments used as an oracle for Insert/Remove.
type mirror struct {
	spans map[SID]*mspan
	total int
}

type mspan struct{ start, length int }

func newMirror() *mirror { return &mirror{spans: map[SID]*mspan{}} }

func (m *mirror) insert(sid SID, gp, l int) {
	for _, sp := range m.spans {
		switch {
		case sp.start >= gp:
			sp.start += l
		case gp < sp.start+sp.length:
			sp.length += l
		}
	}
	m.spans[sid] = &mspan{gp, l}
	m.total += l
}

func (m *mirror) remove(gp, l int) {
	rs, re := gp, gp+l
	for sid, sp := range m.spans {
		end := sp.start + sp.length
		ov := min(end, re) - max(sp.start, rs)
		if ov <= 0 {
			if sp.start >= re {
				sp.start -= l
			}
			continue
		}
		if ov == sp.length {
			delete(m.spans, sid)
			continue
		}
		sp.length -= ov
		if sp.start >= re {
			sp.start -= l
		} else if sp.start >= rs {
			sp.start = rs
		}
	}
	m.total -= l
}

// applyRandomOps drives tr and the mirror through n random valid
// operations and returns false at the first divergence.
func applyRandomOps(t *testing.T, r *rand.Rand, n int) bool {
	t.Helper()
	tr := NewTree()
	m := newMirror()
	lps := map[SID]int{}
	for i := 0; i < n; i++ {
		doInsert := m.total == 0 || r.Intn(10) < 7
		if doInsert {
			gp := r.Intn(m.total + 1)
			l := r.Intn(50) + 1
			s, err := tr.Insert(gp, l)
			if err != nil {
				t.Logf("Insert(%d,%d): %v", gp, l, err)
				return false
			}
			m.insert(s.SID, gp, l)
			lps[s.SID] = s.LP
		} else {
			gp := r.Intn(m.total)
			l := r.Intn(m.total-gp) + 1
			if _, err := tr.Remove(gp, l); err != nil {
				t.Logf("Remove(%d,%d): %v", gp, l, err)
				return false
			}
			m.remove(gp, l)
		}
		if tr.TotalLen() != m.total {
			t.Logf("op %d: TotalLen = %d, mirror = %d", i, tr.TotalLen(), m.total)
			return false
		}
		if err := tr.Validate(); err != nil {
			t.Logf("op %d: %v", i, err)
			return false
		}
		// All live mirror segments must agree with the tree, and vice
		// versa.
		live := 0
		tr.Walk(func(s *Segment) bool { live++; return true })
		if live != len(m.spans)+1 {
			t.Logf("op %d: tree has %d segments, mirror %d", i, live-1, len(m.spans))
			return false
		}
		ok := true
		tr.Walk(func(s *Segment) bool {
			if s.SID == RootSID {
				return true
			}
			sp, found := m.spans[s.SID]
			if !found || sp.start != s.GP || sp.length != s.L {
				t.Logf("op %d: segment %d = [%d,+%d), mirror %v", i, s.SID, s.GP, s.L, sp)
				ok = false
				return false
			}
			if lps[s.SID] != s.LP {
				t.Logf("op %d: segment %d LP changed %d -> %d", i, s.SID, lps[s.SID], s.LP)
				ok = false
				return false
			}
			return true
		})
		if !ok {
			return false
		}
	}
	return true
}

func TestQuickInsertRemoveModel(t *testing.T) {
	f := func(seed int64) bool {
		return applyRandomOps(t, rand.New(rand.NewSource(seed)), 120)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickGlobalOfMonotone(t *testing.T) {
	// GlobalOf must be strictly increasing in the original offset over
	// surviving (non-tombstoned) coordinates and GlobalOfEnd must never
	// exceed GlobalOf at the same offset.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := NewTree()
		if _, err := tr.Insert(0, 500); err != nil {
			return false
		}
		for i := 0; i < 20; i++ {
			if tr.TotalLen() == 0 {
				break
			}
			if r.Intn(4) == 0 {
				gp := r.Intn(tr.TotalLen())
				l := r.Intn(tr.TotalLen()-gp) + 1
				if _, err := tr.Remove(gp, l); err != nil {
					return false
				}
			} else {
				gp := r.Intn(tr.TotalLen() + 1)
				if _, err := tr.Insert(gp, r.Intn(30)+1); err != nil {
					return false
				}
			}
		}
		ok := true
		tr.Walk(func(s *Segment) bool {
			if s.SID == RootSID {
				return true
			}
			tombed := func(x int) bool {
				for _, tb := range s.Tombstones() {
					if tb.Start <= x && x < tb.End {
						return true
					}
				}
				return false
			}
			prev := -1
			for x := 0; x <= 600; x++ {
				if tombed(x) {
					continue
				}
				g := s.GlobalOf(x)
				if g <= prev {
					ok = false
					return false
				}
				if s.GlobalOfEnd(x) > g {
					ok = false
					return false
				}
				prev = g
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Insertion benches reset the tree every 10k segments: the global
// position shift is O(#segments) by design, so an unbounded store would
// make b.N ramping quadratic instead of measuring the fixed-size cost.
const benchResetAt = 10_000

func BenchmarkInsertFlat(b *testing.B) {
	tr := NewTree()
	if _, err := tr.Insert(0, 1<<30); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tr.NumSegments() >= benchResetAt {
			b.StopTimer()
			tr = NewTree()
			if _, err := tr.Insert(0, 1<<30); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if _, err := tr.Insert(100+i%1000, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInsertNested(b *testing.B) {
	tr := NewTree()
	if _, err := tr.Insert(0, 1<<30); err != nil {
		b.Fatal(err)
	}
	gp := 1
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tr.NumSegments() >= benchResetAt {
			b.StopTimer()
			tr = NewTree()
			if _, err := tr.Insert(0, 1<<30); err != nil {
				b.Fatal(err)
			}
			gp = 1
			b.StartTimer()
		}
		if _, err := tr.Insert(gp, 10); err != nil {
			b.Fatal(err)
		}
		gp++
	}
}
