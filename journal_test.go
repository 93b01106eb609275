package lazyxml

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

func TestJournalReopenReplays(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append([]byte("<a><x></x></a>")); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Insert(6, []byte("<d/>")); err != nil {
		t.Fatal(err)
	}
	if err := j.Remove(6, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Insert(6, []byte("<e/>")); err != nil {
		t.Fatal(err)
	}
	wantText, _ := j.Text()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(dir, LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	gotText, err := j2.Text()
	if err != nil {
		t.Fatal(err)
	}
	if string(gotText) != string(wantText) {
		t.Fatalf("replayed text %q, want %q", gotText, wantText)
	}
	if err := j2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if n, _ := j2.Count("a//e"); n != 1 {
		t.Fatal("replayed state wrong")
	}
	// Continue writing after reopen.
	if _, err := j2.Insert(6, []byte("<f/>")); err != nil {
		t.Fatal(err)
	}
	if n, _ := j2.Count("a//f"); n != 1 {
		t.Fatal("post-replay insert failed")
	}
}

func TestJournalCompact(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, LS, []Option{WithAttributes()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append([]byte(`<a id="1"><b/></a>`)); err != nil {
		t.Fatal(err)
	}
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	// Journal emptied down to its header, snapshot present.
	if st, err := os.Stat(filepath.Join(dir, journalName)); err != nil || st.Size() != int64(logHeaderLen) {
		t.Fatalf("journal not emptied: %v %v", st, err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); err != nil {
		t.Fatal("snapshot missing")
	}
	// Post-compact updates land in the journal; reopen sees both.
	// Offset 10 is the content start of <a id="1">.
	if _, err := j.Insert(10, []byte("<c/>")); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, err := OpenJournal(dir, LD, nil) // mode/opts ignored: snapshot wins
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Mode() != LS {
		t.Fatalf("mode = %v, want LS from snapshot", j2.Mode())
	}
	if n, _ := j2.Count("a/@id"); n != 1 {
		t.Fatal("snapshot attribute option lost")
	}
	if n, _ := j2.Count("a/c"); n != 1 {
		t.Fatal("post-compact journal record lost")
	}
	if err := j2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestJournalTornTailIgnored(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append([]byte("<a><b/></a>")); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Insert(3, []byte("<c/>")); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Simulate a crash mid-write: chop bytes off the journal tail.
	walPath := filepath.Join(dir, journalName)
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(dir, LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	// The first record survives; the torn second record is dropped.
	if n, _ := j2.Count("a//b"); n != 1 {
		t.Fatal("first record lost")
	}
	if n, _ := j2.Count("a//c"); n != 0 {
		t.Fatal("torn record applied")
	}
	if err := j2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestJournalCorruptTailIgnored(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append([]byte("<a/>")); err != nil {
		t.Fatal(err)
	}
	j.Close()
	walPath := filepath.Join(dir, journalName)
	raw, _ := os.ReadFile(walPath)
	raw[len(raw)-1] ^= 0xff // break the checksum
	if err := os.WriteFile(walPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(dir, LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 0 {
		t.Fatal("corrupt record applied")
	}
}

func TestJournalRejectsBadFragmentBeforeWAL(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, LD, nil, WithSync())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Insert(0, []byte("<broken")); err == nil {
		t.Fatal("bad fragment accepted")
	}
	j.Close()
	st, err := os.Stat(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != int64(logHeaderLen) {
		t.Fatal("bad fragment reached the WAL")
	}
}

func TestJournalClosedErrors(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := j.Append([]byte("<a/>")); err == nil {
		t.Fatal("append after close succeeded")
	}
	if err := j.Remove(0, 1); err == nil {
		t.Fatal("remove after close succeeded")
	}
}

func TestValidateFragment(t *testing.T) {
	n, err := ValidateFragment([]byte("<a><b/><c/></a>"))
	if err != nil || n != 3 {
		t.Fatalf("got %d, %v", n, err)
	}
	if _, err := ValidateFragment([]byte("nope")); err == nil {
		t.Fatal("bad fragment validated")
	}
}

// TestJournalRefusesHeaderlessFiles pins how a directory in an older
// layout fails: in the two-log layout journal.wal starts straight with
// records and snapshot.lxml with the bare store snapshot, and before
// commit units the log's header said LXWL2. Each must make OpenJournal
// fail loudly instead of opening an empty database or misreading one.
func TestJournalRefusesHeaderlessFiles(t *testing.T) {
	db := Open(LD)
	mustAppend(t, db, "<a><b/></a>")
	var bare bytes.Buffer
	if err := db.Snapshot(&bare); err != nil {
		t.Fatal(err)
	}
	for name, file := range map[string]struct {
		path string
		data []byte
	}{
		"records without a log header": {journalName, encodeUnit([]core.Op{{Kind: core.OpInsert, GP: 0, Frag: []byte("<a/>")}})},
		// A log from before commit units: a well-formed LXWL2 header over
		// a one-op record (op, gp, length, fragment, crc).
		"one-op records (LXWL2)":     {journalName, lxwl2Log()},
		"empty log":                  {journalName, nil},
		"snapshot without its magic": {snapshotName, bare.Bytes()},
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, file.path), file.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if j, err := OpenJournal(dir, LD, nil); err == nil {
			j.Close()
			t.Fatalf("%s: OpenJournal succeeded, opening a %d-byte database", name, j.Len())
		}
	}
}

// lxwl2Log renders a log in the format before commit units.
func lxwl2Log() []byte {
	hdr := binary.BigEndian.AppendUint64([]byte("LXWL2"), 0)
	hdr = binary.BigEndian.AppendUint32(hdr, crc32.ChecksumIEEE(hdr))
	rec := binary.AppendVarint(binary.AppendVarint([]byte{byte(core.OpInsert)}, 0), 4)
	rec = append(rec, "<a/>"...)
	return append(hdr, appendCRC(rec)...)
}

// TestSkipUnitAgreesWithReadUnit holds replay's skip path to the decoder
// on every record variant and every damage to it: each truncation, each
// byte flipped three ways, and the refused shapes. On the same bytes —
// the record followed by a clean one — skipUnit must fail exactly where
// readUnit fails, and where both succeed report readUnit's encoding
// length and leave the reader at the same place.
func TestSkipUnitAgreesWithReadUnit(t *testing.T) {
	next := encodeUnit([]core.Op{{Kind: core.OpInsert, GP: 1, Frag: []byte("<n/>")}})
	var inputs [][]byte
	for _, unit := range [][]core.Op{
		{{Kind: core.OpInsert, GP: 7, Frag: []byte("<a>" + string(bytes.Repeat([]byte("x"), 5000)) + "</a>")}},
		{{Kind: core.OpRemove, GP: 300, L: 12}},
		{{Kind: core.OpNameDel, SID: 1 << 40, Name: ""}},
		{{Kind: core.OpInsert, GP: 0, Frag: []byte("<d><x/></d>")}, {Kind: core.OpNamePut, SID: 5, Name: "docs/a"}},
		{{Kind: core.OpInsert, GP: 4, Frag: []byte("<c/>")}, {Kind: core.OpNamePut, SID: 9, Name: "c"}, {Kind: core.OpRemove, GP: 8, L: 4}},
	} {
		enc := encodeUnit(unit)
		for i := 0; i <= len(enc); i++ {
			inputs = append(inputs, enc[:i])
		}
		for i := range enc {
			for _, x := range []byte{0x01, 0x80, 0xff} {
				bad := bytes.Clone(enc)
				bad[i] ^= x
				inputs = append(inputs, bad)
			}
		}
	}
	inputs = append(inputs,
		appendCRC([]byte{0}),
		appendCRC(append(binary.AppendUvarint(nil, maxUnitOps+1), byte(core.OpRemove), 0, 2)),
		appendCRC([]byte{1, byte(core.OpRemove), 0x80, 0x00, 0x02}), // a zero written the long way
		appendCRC([]byte{1, byte(core.OpRemove), 0x00, 0x02}),
		[]byte{1, 9, 0, 0},
	)
	for _, in := range inputs {
		data := append(bytes.Clone(in), next...)
		rd, sk := bufio.NewReader(bytes.NewReader(data)), bufio.NewReader(bytes.NewReader(data))
		_, enc, rerr := readUnit(rd)
		n, serr := skipUnit(sk)
		if (rerr == nil) != (serr == nil) || rerr == nil && n != len(enc) {
			t.Fatalf("record %x: readUnit gives %d bytes, %v; skipUnit %d bytes, %v", in, len(enc), rerr, n, serr)
		}
		if rerr != nil {
			continue
		}
		_, a, aerr := readUnit(rd)
		_, b, berr := readUnit(sk)
		if !bytes.Equal(a, b) || (aerr == nil) != (berr == nil) {
			t.Fatalf("record %x: the readers part after it", in)
		}
	}
}
