package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/elemindex"
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

// TestRestoreVersion1: a version-1 snapshot without a value index has
// version 2's layout and restores; one with a value index is refused
// with an error that names the version.
func TestRestoreVersion1(t *testing.T) {
	v1 := func(opts ...Option) []byte {
		s := NewStore(LD, opts...)
		mustInsert(t, s, 0, "<a><b>x</b></a>")
		var buf bytes.Buffer
		if err := s.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		if raw[len(snapshotMagic)] != binary.AppendVarint(nil, snapshotVersion)[0] {
			t.Fatal("version varint not where expected")
		}
		raw[len(snapshotMagic)] = binary.AppendVarint(nil, 1)[0]
		return raw
	}
	got, err := RestoreStore(bytes.NewReader(v1(WithAttributes())))
	if err != nil {
		t.Fatalf("version-1 snapshot without values: %v", err)
	}
	if err := got.CheckAgainstText(); err != nil {
		t.Fatal(err)
	}
	_, err = RestoreStore(bytes.NewReader(v1(WithValues())))
	if err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("version-1 value-index snapshot: err = %v, want one naming version 1", err)
	}
}

// TestRestoreStoreForgedTID: tag ids index the tag list's slice and the
// census, so a snapshot naming one outside the dictionary is refused —
// in the tag list before anything is sized by it, and in the element
// index — and the refusal allocates nothing out of proportion.
func TestRestoreStoreForgedTID(t *testing.T) {
	s := NewStore(LD)
	mustInsert(t, s, 0, "<a><b/></a>")
	var snap, tags, ix bytes.Buffer
	if err := s.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if err := s.tags.Encode(&tags); err != nil {
		t.Fatal(err)
	}
	if err := s.ix.Encode(&ix); err != nil {
		t.Fatal(err)
	}
	const forged = 1 << 40
	seg := s.tags.Segments(0)[0].SID
	tgl := []byte("TGL1")
	for _, v := range []int64{1, forged, 1, int64(seg), 1} {
		tgl = binary.AppendVarint(tgl, v)
	}
	eix := []byte("EIX1")
	for _, v := range []int64{1, 2, int64(seg), 0, 11, 1} {
		eix = binary.AppendVarint(eix, v)
	}
	for name, c := range map[string]struct{ section, forged []byte }{
		"tag list":      {tags.Bytes(), tgl},
		"element index": {ix.Bytes(), eix},
	} {
		if bytes.Count(snap.Bytes(), c.section) != 1 {
			t.Fatalf("%s section not found once", name)
		}
		raw := bytes.Replace(snap.Bytes(), c.section, c.forged, 1)
		var err error
		grew := allocatedBy(func() { _, err = RestoreStore(bytes.NewReader(raw)) })
		if err == nil || !strings.Contains(err.Error(), "dictionary") {
			t.Fatalf("%s: a tag id outside the dictionary: err = %v", name, err)
		}
		if grew > 256*uint64(len(raw))+restoreSlack {
			t.Fatalf("%s: restoring %d forged bytes allocated %d", name, len(raw), grew)
		}
	}
}

// TestValueSpansAfterRestore: a value record repeats its element's span,
// so the span indexes a restore rebuilds must skip it, or every valued
// element would count twice in a later insertion's depth. A restored
// store and a twin that never went through the snapshot take the same
// nested insert and answer a child-axis join alike.
func TestValueSpansAfterRestore(t *testing.T) {
	for _, mode := range []Mode{LD, LS} {
		twin := NewStore(mode, WithValues())
		mustInsert(t, twin, 0, "<r>a<x>b<y>c</y></x></r>")
		var buf bytes.Buffer
		if err := twin.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := RestoreStore(&buf)
		if err != nil {
			t.Fatal(err)
		}
		at := len("<r>a<x>b<y>")
		for _, s := range []*Store{twin, got} {
			mustInsert(t, s, at, "<z>d</z>")
			if err := s.CheckAgainstText(); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range [][2]string{{"y", "z"}, {"x", "z"}, {"r", "x"}} {
			want, err1 := twin.Query(q[0], q[1], join.Child, LazyJoin)
			have, err2 := got.Query(q[0], q[1], join.Child, LazyJoin)
			if err1 != nil || err2 != nil || !sameGlobalPairs(want, have) {
				t.Fatalf("%v %s/%s: restored %v (%v), twin %v (%v)", mode, q[0], q[1], have, err2, want, err1)
			}
		}
		if ms, _ := got.Query("y", "z", join.Child, LazyJoin); len(ms) != 1 {
			t.Fatalf("%v: y/z after restore = %v, want the inserted z", mode, ms)
		}
	}
}

func TestMergeSortedBothSides(t *testing.T) {
	cases := []struct{ a, b, want []int32 }{
		{nil, nil, nil},
		{[]int32{1, 3}, nil, []int32{1, 3}},
		{nil, []int32{2}, []int32{2}},
		{[]int32{1, 5, 9}, []int32{2, 5, 10}, []int32{1, 2, 5, 5, 9, 10}},
		{[]int32{4}, []int32{1, 2, 3}, []int32{1, 2, 3, 4}},
	}
	for _, c := range cases {
		got := mergeSorted(append([]int32(nil), c.a...), c.b)
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
// history that leaves nested segments, a tombstone and a cut chunk, and
// again after one more insert. Snapshot writes the view it acquires, as
// a checkpoint does; each cell also checks that a view pinned at the
// first state and serialized only after the insert, as a checkpoint's
// writer does, writes exactly the first state's bytes (in LS its tag
// lists are the view's sorted ones).
func snapshotCorpus(t testing.TB) [][]byte {
	var out [][]byte
	for _, opts := range [][]Option{
		nil,
		{WithoutText()},
		{WithAttributes(), WithValues()},
		{WithValues()},
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

			v := s.AcquireView()
			if _, err := s.InsertSegment(0, []byte(`<late n="2">w</late>`)); err != nil {
				t.Fatal(err)
			}
			var pinned bytes.Buffer
			if err := v.Snapshot(&pinned); err != nil {
				t.Fatal(err)
			}
			v.Release()
			if !bytes.Equal(pinned.Bytes(), buf.Bytes()) {
				t.Fatalf("%v %v: a view pinned before a write serializes differently from the store at that state", mode, opts)
			}
			var after bytes.Buffer
			if err := s.Snapshot(&after); err != nil {
				t.Fatal(err)
			}
			out = append(out, after.Bytes())
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

// tidMajorEIX is the element index section as the B+-tree index this
// store used to have wrote it: every record in (tid, sid, start, end,
// level) order.
func tidMajorEIX(ix *elemindex.Index) []byte {
	var keys []elemindex.Key
	ix.WalkAll(func(k elemindex.Key) bool {
		keys = append(keys, k)
		return true
	})
	slices.SortFunc(keys, elemindex.Compare)
	buf := binary.AppendVarint([]byte("EIX1"), int64(len(keys)))
	var prev elemindex.Key
	for _, k := range keys {
		buf = binary.AppendVarint(buf, int64(k.TID-prev.TID))
		buf = binary.AppendVarint(buf, int64(k.SID-prev.SID))
		buf = binary.AppendVarint(buf, int64(k.Start-prev.Start))
		buf = binary.AppendVarint(buf, int64(k.End))
		buf = binary.AppendVarint(buf, int64(k.Level))
		prev = k
	}
	return buf
}

// TestRestoreTidMajorElementIndex: a snapshot whose element index section
// is in the old tid-major record order restores to the same store as the
// one written today, byte for byte on re-snapshot.
func TestRestoreTidMajorElementIndex(t *testing.T) {
	// Besides the corpus, a store whose tags recur across segments, so
	// that the two orders differ.
	r := rand.New(rand.NewSource(7))
	mixed := NewStore(LD, WithAttributes())
	for i := 0; i < 30; i++ {
		text, _ := mixed.Text()
		pts := insertionPoints(text)
		mustInsert(t, mixed, pts[r.Intn(len(pts))], randomFragment(r, 3))
	}
	var buf bytes.Buffer
	if err := mixed.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	reordered := 0
	for i, snap := range append(snapshotCorpus(t), buf.Bytes()) {
		s, err := RestoreStore(bytes.NewReader(snap))
		if err != nil {
			t.Fatal(err)
		}
		var cur bytes.Buffer
		if err := s.ix.Encode(&cur); err != nil {
			t.Fatal(err)
		}
		old := tidMajorEIX(s.ix)
		if !bytes.Equal(old, cur.Bytes()) {
			reordered++
		}
		if bytes.Count(snap, cur.Bytes()) != 1 {
			t.Fatalf("snapshot %d: element index section not found once", i)
		}
		legacy := bytes.Replace(snap, cur.Bytes(), old, 1)
		r, err := RestoreStore(bytes.NewReader(legacy))
		if err != nil {
			t.Fatalf("snapshot %d: tid-major section: %v", i, err)
		}
		var again bytes.Buffer
		if err := r.Snapshot(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), snap) {
			t.Fatalf("snapshot %d: tid-major section restores to another store", i)
		}
		if r.keepText {
			if err := r.CheckAgainstText(); err != nil {
				t.Fatalf("snapshot %d: %v", i, err)
			}
		}
	}
	if reordered == 0 {
		t.Fatal("no corpus snapshot has records whose tid-major order differs")
	}
}
