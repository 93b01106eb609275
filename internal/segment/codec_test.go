package segment

import (
	"bufio"
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, tr *Tree) *Tree {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeTree(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func sameTrees(a, b *Tree) bool {
	if a.NumSegments() != b.NumSegments() || a.TotalLen() != b.TotalLen() {
		return false
	}
	same := true
	a.Walk(func(s *Segment) bool {
		o, ok := b.Lookup(s.SID)
		if !ok || o.GP() != s.GP() || o.L != s.L || o.LP != s.LP || !slices.Equal(o.Path(), s.Path()) ||
			len(o.Children) != len(s.Children) || len(o.Tombstones()) != len(s.Tombstones()) {
			same = false
			return false
		}
		for i, tb := range s.Tombstones() {
			if o.Tombstones()[i] != tb {
				same = false
				return false
			}
		}
		for i, c := range s.Children {
			if o.Children[i].SID != c.SID {
				same = false
				return false
			}
		}
		return true
	})
	return same
}

func TestCodecEmptyTree(t *testing.T) {
	got := roundTrip(t, NewTree())
	if got.NumSegments() != 1 || got.TotalLen() != 0 {
		t.Fatalf("got %d segments, len %d", got.NumSegments(), got.TotalLen())
	}
	// SID allocation continues where the original left off.
	s, err := got.Insert(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if s.SID != 1 {
		t.Fatalf("first SID after restore = %d", s.SID)
	}
}

func TestCodecPreservesStructureAndSIDs(t *testing.T) {
	tr := NewTree()
	mustInsert(t, tr, 0, 100)
	mustInsert(t, tr, 10, 20)
	mustInsert(t, tr, 15, 5)
	if _, err := tr.Remove(40, 10); err != nil { // tombstone in segment 1
		t.Fatal(err)
	}
	got := roundTrip(t, tr)
	if !sameTrees(tr, got) {
		t.Fatal("round trip changed the tree")
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	// nextSID preserved: inserting yields a fresh id.
	s, err := got.Insert(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, clash := tr.Lookup(s.SID); clash {
		t.Fatalf("restored tree reused SID %d", s.SID)
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{nil, []byte("XXXX"), []byte("SBT1"), []byte("SBT1\x01")} {
		if _, err := DecodeTree(bufio.NewReader(bytes.NewReader(data))); err == nil {
			t.Errorf("DecodeTree(%q) succeeded", data)
		}
	}
}

func TestQuickCodecRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := NewTree()
		total := 0
		for i := 0; i < 40; i++ {
			if total == 0 || r.Intn(10) < 7 {
				gp := r.Intn(total + 1)
				l := r.Intn(40) + 1
				if _, err := tr.Insert(gp, l); err != nil {
					return false
				}
				total += l
			} else {
				gp := r.Intn(total)
				l := r.Intn(total-gp) + 1
				if _, err := tr.Remove(gp, l); err != nil {
					return false
				}
				total -= l
			}
		}
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			return false
		}
		got, err := DecodeTree(bufio.NewReader(&buf))
		if err != nil {
			return false
		}
		return sameTrees(tr, got) && got.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
