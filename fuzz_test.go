package lazyxml

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/xmltree"
)

func parseProbe(s string) (*xmltree.Document, error) { return xmltree.Parse([]byte(s)) }

// FuzzParsePath: arbitrary path expressions must parse or error, never
// panic, and accepted ones must round-trip through String.
func FuzzParsePath(f *testing.F) {
	for _, s := range []string{"a//b", "a/b/c", "//a", "/", "", "a[b]", "a//", "x y"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, expr string) {
		p, err := ParsePath(expr)
		if err != nil {
			return
		}
		again, err := ParsePath(p.String())
		if err != nil {
			t.Fatalf("round-trip of %q -> %q failed: %v", expr, p.String(), err)
		}
		if again.String() != p.String() {
			t.Fatalf("round-trip changed %q -> %q", p.String(), again.String())
		}
	})
}

// FuzzParsePattern: same contract for twig patterns.
func FuzzParsePattern(f *testing.F) {
	for _, s := range []string{"a[b]//c", "a[//b/c][d]", "a[b[c]]", "a]", "[", "a[b]c"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, expr string) {
		p, err := ParsePattern(expr)
		if err != nil {
			return
		}
		again, err := ParsePattern(p.String())
		if err != nil {
			t.Fatalf("round-trip of %q -> %q failed: %v", expr, p.String(), err)
		}
		if again.String() != p.String() {
			t.Fatalf("round-trip changed %q -> %q", p.String(), again.String())
		}
	})
}

// FuzzInsertSegment: arbitrary fragments either fail cleanly or leave a
// consistent store.
func FuzzInsertSegment(f *testing.F) {
	for _, s := range []string{"<a/>", "<a><b>t</b></a>", "<a>", "x", "", "<a b='c'/>"} {
		f.Add([]byte(s), uint16(0))
	}
	f.Fuzz(func(t *testing.T, frag []byte, posRaw uint16) {
		db := Open(LD)
		mustFrag := []byte("<root><x></x></root>")
		if _, err := db.Insert(0, mustFrag); err != nil {
			t.Fatal(err)
		}
		gp := int(posRaw) % (db.Len() + 1)
		if _, err := db.Insert(gp, frag); err != nil {
			// Rejected: the store must be untouched and consistent.
			if cerr := db.CheckConsistency(); cerr != nil {
				t.Fatalf("store inconsistent after rejected insert: %v", cerr)
			}
			return
		}
		// Accepted: the fragment was well-formed; the insertion point may
		// still have produced a super document that is not well-formed
		// (that responsibility is the caller's), so only check when the
		// text still parses.
		if err := db.CheckConsistency(); err != nil {
			text, _ := db.Text()
			wrapped := "<__dummy__>" + string(text) + "</__dummy__>"
			if _, perr := parseProbe(wrapped); perr == nil {
				t.Fatalf("well-formed super document but inconsistent store: %v", err)
			}
		}
	})
}

// FuzzDecodeRecord: the record decoder parses bytes that arrive from the
// network (ApplyRecords), one commit unit each. Arbitrary input must
// decode or error, never panic; a forged length or op count must not
// make it allocate past what the input holds; and an accepted unit
// re-encodes to exactly its input — what a follower appends is what it
// was sent.
func FuzzDecodeRecord(f *testing.F) {
	for _, unit := range [][]core.Op{
		{{Kind: core.OpInsert, GP: 7, Frag: []byte("<a/>")}},
		{{Kind: core.OpRemove, GP: 300, L: 12}},
		{{Kind: core.OpNameDel, SID: 1 << 40, Name: ""}},
		{ // a Put
			{Kind: core.OpInsert, GP: 0, Frag: []byte("<d><x/></d>")},
			{Kind: core.OpNamePut, SID: 5, Name: "docs/a"},
		},
		{ // a Collapse
			{Kind: core.OpInsert, GP: 4, Frag: []byte("<c/>")},
			{Kind: core.OpNamePut, SID: 9, Name: "c"},
			{Kind: core.OpRemove, GP: 8, L: 4},
		},
	} {
		enc := encodeUnit(unit)
		f.Add(enc)
		f.Add(enc[:len(enc)-1])
		f.Add(append(enc, 0))
	}
	// Refused: an empty unit, an op count past maxUnitOps, an insert
	// claiming a gigabyte of fragment, a name claiming 64 KiB, and a zero
	// written the long way (non-canonical varint).
	f.Add(appendCRC([]byte{0}))
	f.Add(appendCRC(append(binary.AppendUvarint(nil, maxUnitOps+1), byte(core.OpRemove), 0, 2)))
	f.Add(binary.AppendUvarint(nil, 1<<40))
	f.Add(binary.AppendVarint(binary.AppendVarint([]byte{1, byte(core.OpInsert)}, 0), 1<<30))
	f.Add(binary.AppendUvarint(binary.AppendVarint([]byte{1, byte(core.OpNamePut)}, 1), 1<<16))
	f.Add(appendCRC([]byte{1, byte(core.OpRemove), 0x80, 0x00, 0x02}))
	f.Add([]byte{1, 9, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		unit, err := decodeUnit(data)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(8*len(data))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		if len(unit) == 0 || len(unit) > maxUnitOps {
			t.Fatalf("accepted a unit of %d ops", len(unit))
		}
		if enc := encodeUnit(unit); !bytes.Equal(enc, data) {
			t.Fatalf("decode then encode changed the record:\n in % x\nout % x", data, enc)
		}
	})
}

// TestDecodeRecordRefusesEmptyAndOverlong pins the two unit-level
// refusals the fuzz seeds above start from.
func TestDecodeRecordRefusesEmptyAndOverlong(t *testing.T) {
	if _, err := decodeUnit(appendCRC([]byte{0})); err == nil {
		t.Fatal("empty unit accepted")
	}
	ops := make([]core.Op, maxUnitOps+1)
	for i := range ops {
		ops[i] = core.Op{Kind: core.OpRemove, GP: 0, L: 1}
	}
	if _, err := decodeUnit(encodeUnit(ops)); err == nil {
		t.Fatal("unit past maxUnitOps accepted")
	}
	if _, err := decodeUnit(encodeUnit(ops[:maxUnitOps])); err != nil {
		t.Fatalf("unit of maxUnitOps refused: %v", err)
	}
}

// FuzzSnapshotHeader: snapshot.lxml's header decoder parses bytes a
// re-seed receives from the network (the SNAPBEGIN payload leads with
// them). Arbitrary input must decode or error, never panic; a forged
// count or name length must not make it allocate past the input plus
// the 64 KiB name cap; and an accepted header re-encodes to exactly the
// bytes it consumed.
func FuzzSnapshotHeader(f *testing.F) {
	many := map[string]SID{}
	for i := 0; i < 40; i++ {
		many[fmt.Sprintf("docs/%02d", i)] = SID(3*i + 1)
	}
	for _, docs := range []map[string]SID{{}, {"a": 1}, many} {
		enc := encodeSnapshotHeader(42, docs)
		f.Add(enc)
		f.Add(enc[:len(enc)-1])
		f.Add(append(enc, "LXSNAP"...))
	}
	head := binary.AppendUvarint([]byte(snapshotMagic), 7)
	// A count of 2^62 names, and one name claiming the full 64 KiB.
	f.Add(binary.AppendUvarint(head, 1<<62))
	f.Add(binary.AppendUvarint(binary.AppendVarint(binary.AppendUvarint(head, 1), 1), 1<<16))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		seq, docs, err := readSnapshotHeader(r)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(64*len(data))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		consumed := data[:len(data)-r.Len()]
		if enc := encodeSnapshotHeader(seq, docs); !bytes.Equal(enc, consumed) {
			t.Fatalf("decode then encode changed the header:\n in % x\nout % x", consumed, enc)
		}
	})
}
