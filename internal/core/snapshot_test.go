package core

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/join"
)

func TestStoreSnapshotRoundTrip(t *testing.T) {
	s := NewStore(LD, WithAttributes())
	mustInsert(t, s, 0, `<a id="1"><x></x></a>`)
	mustInsert(t, s, 13, "<d><d/></d>")
	if err := s.RemoveSegment(16, 4); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := RestoreStore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mode() != LD {
		t.Fatalf("mode = %v", got.Mode())
	}
	if err := got.CheckAgainstText(); err != nil {
		t.Fatal(err)
	}
	if ws, gs := s.Stats(), got.Stats(); ws != gs {
		t.Fatalf("stats diverged: %+v vs %+v", ws, gs)
	}
	for _, q := range [][2]string{{"a", "d"}, {"x", "d"}, {"a", "@id"}} {
		w, err1 := s.Query(q[0], q[1], join.Descendant, LazyJoin)
		g, err2 := got.Query(q[0], q[1], join.Descendant, LazyJoin)
		if err1 != nil || err2 != nil || len(w) != len(g) {
			t.Fatalf("%s//%s: %d/%v vs %d/%v", q[0], q[1], len(w), err1, len(g), err2)
		}
	}
	// Spans were rebuilt: a nested insert must get the right level.
	text, _ := got.Text()
	_ = text
	if _, err := got.InsertSegment(13, []byte("<m/>")); err != nil {
		t.Fatal(err)
	}
	// Offset 13 is inside <x>, so m's level must come out as x's child —
	// only possible if the span indexes were rebuilt from the snapshot.
	ms, err := got.Query("x", "m", join.Child, LazyJoin)
	if err != nil || len(ms) != 1 {
		t.Fatalf("x/m after restore = %v, %v (span indexes not rebuilt?)", ms, err)
	}
	if err := got.CheckAgainstText(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreSnapshotHelpers(t *testing.T) {
	s := NewStore(LS, WithoutText())
	mustInsert(t, s, 0, "<a><b/></a>")
	if s.Mode() != LS {
		t.Fatal("Mode wrong")
	}
	if s.Len() != 11 {
		t.Fatalf("Len = %d", s.Len())
	}
	sb, tl := s.UpdateLogBytes()
	if sb <= 0 || tl <= 0 {
		t.Fatalf("UpdateLogBytes = %d, %d", sb, tl)
	}
	if s.SegmentTree() == nil || s.SegmentTree().NumSegments() != 2 {
		t.Fatal("SegmentTree wrong")
	}
	nodes := s.GlobalElements("b")
	if len(nodes) != 1 || nodes[0].Start != 3 {
		t.Fatalf("GlobalElements = %v", nodes)
	}
	if got := s.GlobalElements("zzz"); got != nil {
		t.Fatalf("GlobalElements(zzz) = %v", got)
	}
}

func TestCollapseSegmentInPackage(t *testing.T) {
	s := NewStore(LD)
	mustInsert(t, s, 0, "<a><x></x></a>")
	mustInsert(t, s, 6, "<b><c></c></b>")
	mustInsert(t, s, 12, "<d/>")
	if s.sb.NumSegments() != 4 {
		t.Fatalf("segments = %d", s.sb.NumSegments())
	}
	newSID, err := s.CollapseSegment(2)
	if err != nil {
		t.Fatal(err)
	}
	if newSID == 2 {
		t.Fatal("sid not fresh")
	}
	if s.sb.NumSegments() != 3 {
		t.Fatalf("segments after collapse = %d", s.sb.NumSegments())
	}
	if err := s.CheckAgainstText(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CollapseSegment(0); err == nil {
		t.Fatal("collapsing root succeeded")
	}
	if _, err := s.CollapseSegment(999); err == nil {
		t.Fatal("collapsing unknown sid succeeded")
	}
	noText := NewStore(LD, WithoutText())
	mustInsert(t, noText, 0, "<a/>")
	if _, err := noText.CollapseSegment(1); err == nil {
		t.Fatal("collapse without text succeeded")
	}
}

func TestRestoreStoreRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{nil, []byte("NOPE!"), []byte("LXML1")} {
		if _, err := RestoreStore(bytes.NewReader(data)); err == nil {
			t.Errorf("RestoreStore(%q) succeeded", data)
		}
	}
	// Wrong version.
	s := NewStore(LD)
	mustInsert(t, s, 0, "<a/>")
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len("LXML1")] = 99 // corrupt the version varint
	if _, err := RestoreStore(bytes.NewReader(raw)); err == nil {
		t.Fatal("wrong version accepted")
	}
}

func TestMergeSortedBothSides(t *testing.T) {
	cases := []struct{ a, b, want []int }{
		{nil, nil, nil},
		{[]int{1, 3}, nil, []int{1, 3}},
		{nil, []int{2}, []int{2}},
		{[]int{1, 5, 9}, []int{2, 5, 10}, []int{1, 2, 5, 5, 9, 10}},
		{[]int{4}, []int{1, 2, 3}, []int{1, 2, 3, 4}},
	}
	for _, c := range cases {
		got := mergeSorted(append([]int(nil), c.a...), c.b)
		if len(got) != len(c.want) {
			t.Fatalf("mergeSorted(%v,%v) = %v", c.a, c.b, got)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("mergeSorted(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
			}
		}
	}
}

// snapshotCorpus is Snapshot output over the option matrix, after a
// history that leaves nested segments, a tombstone and a cut chunk.
func snapshotCorpus(t testing.TB) [][]byte {
	var out [][]byte
	for _, opts := range [][]Option{
		nil,
		{WithoutText()},
		{WithAttributes(), WithValues()},
	} {
		for _, mode := range []Mode{LD, LS} {
			s := NewStore(mode, opts...)
			for _, step := range []struct {
				gp   int
				frag string
			}{
				{0, `<a id="1"><x>v</x><y/><z/></a>`},
				{13, "<d><d/></d>"},
				{0, "<top>t</top>"},
			} {
				if _, err := s.InsertSegment(step.gp, []byte(step.frag)); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.RemoveSegment(s.Len()-len("<z/></a>"), len("<z/>")); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := s.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			out = append(out, buf.Bytes())
		}
	}
	return out
}

// allocatedBy reports the bytes the process allocated while fn ran.
func allocatedBy(fn func()) uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	fn()
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc - before
}

// restoreSlack is what a restore may allocate beyond a multiple of its
// input: the stream buffer, one text chunk and the empty indexes.
const restoreSlack = 1 << 20

// TestRestoreStoreForgedTextLength forges a snapshot whose SB-tree and
// text-length field agree on a terabyte of text that never arrives (the
// two lengths a re-seed peer controls), and one whose text length alone
// is forged: neither may allocate what it claims.
func TestRestoreStoreForgedTextLength(t *testing.T) {
	const claimed = 1 << 40
	forge := func(rootLen int) []byte {
		s := NewStore(LD)
		mustInsert(t, s, 0, "<a><b/></a>")
		text, _ := s.Text()
		s.sb.Root().L = rootLen
		var buf bytes.Buffer
		if err := s.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		tail := append(binary.AppendVarint(nil, int64(len(text))), text...)
		raw, ok := bytes.CutSuffix(buf.Bytes(), tail)
		if !ok {
			t.Fatal("snapshot does not end in varint(len) + text")
		}
		return append(append(raw[:len(raw):len(raw)], binary.AppendVarint(nil, claimed)...), text...)
	}
	for name, raw := range map[string][]byte{"both lengths": forge(claimed), "text length only": forge(len("<a><b/></a>"))} {
		var err error
		grew := allocatedBy(func() { _, err = RestoreStore(bytes.NewReader(raw)) })
		if err == nil {
			t.Fatalf("%s: forged snapshot restored", name)
		}
		if grew > uint64(len(raw))+restoreSlack {
			t.Fatalf("%s: restoring %d forged bytes allocated %d", name, len(raw), grew)
		}
	}
}

// FuzzRestoreStore: whatever the bytes, RestoreStore returns a store or
// an error — no panic, no allocation out of proportion to the input —
// and a store it returns re-snapshots to a stream that restores to the
// same stream. Genuine Snapshot output (the seed corpus) round-trips
// byte for byte; that is asserted on the seeds, because a mutated input
// may encode the same state differently (a padded varint, a repeated
// dictionary entry).
func FuzzRestoreStore(f *testing.F) {
	for _, seed := range snapshotCorpus(f) {
		f.Add(seed)
		s, err := RestoreStore(bytes.NewReader(seed))
		if err != nil {
			f.Fatal(err)
		}
		var again bytes.Buffer
		if err := s.Snapshot(&again); err != nil || !bytes.Equal(again.Bytes(), seed) {
			f.Fatalf("Snapshot(Restore(x)) != x on genuine Snapshot output (%v)", err)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s *Store
		var err error
		// A decoded record costs a few dozen bytes of index per input byte.
		if grew := allocatedBy(func() { s, err = RestoreStore(bytes.NewReader(data)) }); grew > 256*uint64(len(data))+restoreSlack {
			t.Fatalf("restoring %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := s.Snapshot(&first); err != nil {
			t.Fatal(err)
		}
		s2, err := RestoreStore(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("a restored store's snapshot does not restore: %v", err)
		}
		if err := s2.Snapshot(&second); err != nil || !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("Snapshot(Restore(x)) is not a fixed point (%v)", err)
		}
	})
}
