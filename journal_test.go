package lazyxml

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
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

// TestJournalRefusesHeaderlessFiles pins how a directory in the older
// two-log layout fails: its journal.wal starts straight with records and
// its snapshot.lxml with the bare store snapshot, and each must make
// OpenJournal fail loudly instead of opening an empty database.
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
		"records without a log header": {journalName, encodeRecord(walRecord{op: opInsert, gp: 0, l: 4, frag: []byte("<a/>")})},
		"empty log":                    {journalName, nil},
		"snapshot without its magic":   {snapshotName, bare.Bytes()},
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
