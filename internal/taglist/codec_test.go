package taglist

import (
	"bufio"
	"bytes"
	"fmt"
	"testing"

	"repro/internal/segment"
)

func TestDictCodecRoundTrip(t *testing.T) {
	d := NewDict()
	for _, name := range []string{"article", "author", "title", "@id", "προσωπο"} {
		d.Intern(name)
	}
	var buf bytes.Buffer
	if err := d.EncodeDict(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDict(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != d.Len() {
		t.Fatalf("len = %d, want %d", got.Len(), d.Len())
	}
	for i := 0; i < d.Len(); i++ {
		if got.Name(TID(i)) != d.Name(TID(i)) {
			t.Fatalf("tag %d = %q, want %q", i, got.Name(TID(i)), d.Name(TID(i)))
		}
	}
	// Ids resolve identically.
	if id, ok := got.Lookup("@id"); !ok {
		t.Fatal("@id lost")
	} else if want, _ := d.Lookup("@id"); id != want {
		t.Fatalf("@id = %d, want %d", id, want)
	}
}

func TestDictCodecRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{nil, []byte("NOPE"), []byte("DCT1")} {
		if _, err := DecodeDict(bufio.NewReader(bytes.NewReader(data))); err == nil {
			t.Errorf("DecodeDict(%q) succeeded", data)
		}
	}
}

func TestListCodecRoundTrip(t *testing.T) {
	tr, segs := buildSegments(t)
	l := New(tr, LD)
	l.AddSegment(segs[1], map[TID]int{1: 3, 2: 1})
	l.AddSegment(segs[2], map[TID]int{1: 2})
	l.AddSegment(segs[3], map[TID]int{2: 5})

	var buf bytes.Buffer
	if err := l.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bufio.NewReader(&buf), tr, LS, dictOf(3))
	if err != nil {
		t.Fatal(err)
	}
	if got.Mode() != LS {
		t.Fatalf("mode = %v", got.Mode())
	}
	if got.NumTags() != l.NumTags() || got.NumEntries() != l.NumEntries() {
		t.Fatalf("tags/entries = %d/%d, want %d/%d",
			got.NumTags(), got.NumEntries(), l.NumTags(), l.NumEntries())
	}
	for _, tid := range []TID{1, 2} {
		want := l.Segments(tid)
		have := got.Segments(tid)
		if len(want) != len(have) {
			t.Fatalf("tid %d: %d vs %d entries", tid, len(have), len(want))
		}
		for i := range want {
			if want[i].SID != have[i].SID || want[i].Count != have[i].Count {
				t.Fatalf("tid %d entry %d differs", tid, i)
			}
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestListCodecUnknownSegment(t *testing.T) {
	tr, segs := buildSegments(t)
	l := New(tr, LD)
	l.AddSegment(segs[1], map[TID]int{1: 1})
	var buf bytes.Buffer
	if err := l.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	// Decoding against a tree that lacks the segment must fail.
	if _, err := Decode(bufio.NewReader(&buf), segment.NewTree(), LD, dictOf(2)); err == nil {
		t.Fatal("decode against empty tree succeeded")
	}
}

func TestListCodecRejectsGarbage(t *testing.T) {
	tr, _ := buildSegments(t)
	for _, data := range [][]byte{nil, []byte("NOPE"), []byte("TGL1")} {
		if _, err := Decode(bufio.NewReader(bytes.NewReader(data)), tr, LD, dictOf(2)); err == nil {
			t.Errorf("Decode(%q) succeeded", data)
		}
	}
}

// dictOf returns a dictionary of n tags, so tag ids 0..n-1 decode.
func dictOf(n int) *Dict {
	d := NewDict()
	for i := 0; i < n; i++ {
		d.Intern(fmt.Sprint("t", i))
	}
	return d
}

func TestModeString(t *testing.T) {
	if LD.String() != "LD" || LS.String() != "LS" {
		t.Fatal("mode strings wrong")
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode renders empty")
	}
}
