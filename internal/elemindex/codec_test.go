package elemindex

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/segment"
	"repro/internal/taglist"
)

func TestCodecRoundTripSmall(t *testing.T) {
	ix := New()
	ix.Add(key(1, 5, 0, 100, 1))
	ix.Add(key(1, 5, 10, 20, 2))
	ix.Add(key(2, 7, 3, 9, 4))
	var buf bytes.Buffer
	if err := ix.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 {
		t.Fatalf("len = %d", got.Len())
	}
	for _, k := range []Key{key(1, 5, 0, 100, 1), key(1, 5, 10, 20, 2), key(2, 7, 3, 9, 4)} {
		if !got.Has(k) {
			t.Fatalf("missing %+v", k)
		}
	}
}

func TestCodecEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := New().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("len = %d", got.Len())
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{nil, []byte("XOXO"), []byte("EIX1")} {
		if _, err := Decode(bufio.NewReader(bytes.NewReader(data))); err == nil {
			t.Errorf("Decode(%q) succeeded", data)
		}
	}
}

func TestQuickCodecRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ix := New()
		model := map[Key]bool{}
		for i := 0; i < 150; i++ {
			k := Key{
				TID:   taglist.TID(r.Intn(6)),
				SID:   segment.SID(r.Intn(8) + 1),
				Start: r.Intn(500),
				End:   r.Intn(500) + 501,
				Level: r.Intn(9),
			}
			ix.Add(k)
			model[k] = true
		}
		var buf bytes.Buffer
		if err := ix.Encode(&buf); err != nil {
			return false
		}
		got, err := Decode(bufio.NewReader(&buf))
		if err != nil {
			return false
		}
		if got.Len() != len(model) {
			return false
		}
		ok := true
		got.WalkAll(func(k Key) bool {
			if !model[k] {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// tidMajorStream is what the B+-tree index this package replaced wrote
// for tidMajorKeys: EIX1 records in (tid, sid, start, end, level) order.
const tidMajorStream = "EIX1\x10\x00\x02\x00P\x02\x00\f\x00<\x04\x02\v\x06(\x04\x00\x00\"B\x04\x00\x06'\x18\x04\x02\x05\x12\x1c\x06\x00\x06\a\x12\x06\x02\x06\x02\x0e\x06"

var tidMajorKeys = []Key{
	key(0, 1, 0, 40, 1), key(1, 1, 3, 20, 2), key(1, 1, 20, 33, 2), key(2, 1, 9, 14, 3),
	key(1, 4, 0, 12, 2), key(2, 4, 5, 9, 3), key(0, 7, 0, 30, 2), key(3, 7, 6, 7, 3),
}

// TestCodecDecodesTidMajorStream: a snapshot written in the old record
// order decodes to the index built from the same records.
func TestCodecDecodesTidMajorStream(t *testing.T) {
	got, err := Decode(bufio.NewReader(strings.NewReader(tidMajorStream)))
	if err != nil {
		t.Fatal(err)
	}
	want := New()
	if _, err := want.AddSegment(slices.Clone(tidMajorKeys)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %v, built %v", got.runs, want.runs)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

// streamKeys parses an EIX1 stream record by record, without grouping or
// sorting: the fuzz target's reference reading. ok is false when the
// stream is malformed or a value does not fit the index.
func streamKeys(data []byte) (keys []Key, ok bool) {
	br := bufio.NewReader(bytes.NewReader(data))
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != codecMagic {
		return nil, false
	}
	count, err := binary.ReadVarint(br)
	if err != nil || count < 0 {
		return nil, false
	}
	var prev [3]int64 // tid, sid, start
	for i := int64(0); i < count; i++ {
		var v [5]int64
		for j := range v {
			if v[j], err = binary.ReadVarint(br); err != nil {
				return nil, false
			}
		}
		prev = [3]int64{prev[0] + v[0], prev[1] + v[1], prev[2] + v[2]}
		for _, x := range []int64{prev[0], prev[2], v[3], v[4]} {
			if x < math.MinInt32 || x > math.MaxInt32 {
				return nil, false
			}
		}
		keys = append(keys, Key{TID: taglist.TID(prev[0]), SID: segment.SID(prev[1]),
			Start: int(prev[2]), End: int(v[3]), Level: int(v[4])})
	}
	return keys, true
}

func sortedKeys(keys []Key) []Key {
	out := slices.Clone(keys)
	slices.SortFunc(out, Compare)
	return out
}

// FuzzDecodeIndex: Decode reads bytes from disk and from a primary's
// re-seed stream. Whatever they are, it must not panic; it must accept a
// stream exactly when the stream is well-formed and holds no record
// twice; and the index it returns must be valid and encode back to the
// stream's records.
func FuzzDecodeIndex(f *testing.F) {
	f.Add([]byte(tidMajorStream))
	f.Add([]byte("EIX1\x00"))
	f.Add([]byte("EIX1\x04\x02\x02\x00\x14\x02\x00\x00\x00\x14\x02")) // one record twice
	ix := New()
	if _, err := ix.AddSegment(slices.Clone(tidMajorKeys)); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Decode(bufio.NewReader(bytes.NewReader(data)))
		keys, ok := streamKeys(data)
		want := sortedKeys(keys)
		unique := ok && len(slices.Compact(slices.Clone(want))) == len(want)
		if err != nil {
			if unique {
				t.Fatalf("rejected a well-formed stream of distinct records: %v", err)
			}
			return
		}
		if !unique {
			t.Fatalf("accepted a stream the reference reading rejects (ok=%v)", ok)
		}
		if err := got.Validate(); err != nil && !strings.Contains(err.Error(), "start >= end") && !strings.Contains(err.Error(), "negative level") {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := got.Encode(&out); err != nil {
			t.Fatal(err)
		}
		again, ok := streamKeys(out.Bytes())
		if !ok || !slices.Equal(sortedKeys(again), want) {
			t.Fatalf("Encode(Decode(x)) holds other records than x")
		}
	})
}
