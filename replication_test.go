package lazyxml

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestReplSeqPersistence: sequence numbers survive close/reopen, and
// Compact advances the horizon and persists the new base.
func TestReplSeqPersistence(t *testing.T) {
	dir := t.TempDir()
	jc, err := OpenShardedCollection(dir, 1, LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := jc.Put("a", []byte("<a><x/></a>")); err != nil {
		t.Fatal(err)
	}
	if err := jc.Put("b", []byte("<b></b>")); err != nil {
		t.Fatal(err)
	}
	if _, err := jc.Insert("b", 3, []byte("<y/>")); err != nil {
		t.Fatal(err)
	}
	seq, horizon := jc.ShardJournal(0).ReplState()
	if seq != 5 { // two puts (segment + name record each) and one insert
		t.Fatalf("seq = %d after 5 records", seq)
	}
	if horizon != 0 {
		t.Fatalf("fresh journal's horizon should be 0, got %d", horizon)
	}
	if err := jc.Close(); err != nil {
		t.Fatal(err)
	}

	jc2, err := OpenShardedCollection(dir, 1, LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := jc2.ShardJournal(0).ReplState(); s != seq {
		t.Fatalf("seq after reopen = %d, want %d", s, seq)
	}

	if err := jc2.Compact(); err != nil {
		t.Fatal(err)
	}
	s, h := jc2.ShardJournal(0).ReplState()
	if s != seq || h != seq {
		t.Fatalf("after compact seq=%d horizon=%d, want both %d", s, h, seq)
	}
	// A reader below the horizon is told to re-seed.
	cur := &JournalCursor{Seq: 0}
	if _, err := jc2.ShardJournal(0).ReadRecords(cur, 10); err != ErrCompacted {
		t.Fatalf("ReadRecords below horizon: err = %v, want ErrCompacted", err)
	}
	if err := jc2.Close(); err != nil {
		t.Fatal(err)
	}

	// The compacted base survives another reopen in the log's own header:
	// no side file carries a sequence.
	jc3, err := OpenShardedCollection(dir, 1, LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer jc3.Close()
	if s, h := jc3.ShardJournal(0).ReplState(); s != seq || h != seq {
		t.Fatalf("after reopen seq=%d horizon=%d, want both %d", s, h, seq)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != journalName && e.Name() != snapshotName {
			t.Fatalf("unexpected file %s beside the log and the snapshot", e.Name())
		}
	}
}

// TestReplReadRecordsByteIdentity: the records ReadRecords returns are
// byte-identical to the WAL file after its header — the wire format IS
// the file format — segment and name records alike.
func TestReplReadRecordsByteIdentity(t *testing.T) {
	dir := t.TempDir()
	jc, err := OpenShardedCollection(dir, 1, LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := jc.Put("doc", []byte("<doc><a/><b/></doc>")); err != nil {
		t.Fatal(err)
	}
	if _, err := jc.Insert("doc", 5, []byte("<c/>")); err != nil {
		t.Fatal(err)
	}
	if err := jc.RemoveElementAt("doc", 9); err != nil {
		t.Fatal(err)
	}
	if err := jc.Delete("doc"); err != nil {
		t.Fatal(err)
	}

	var streamed []byte
	cur := &JournalCursor{}
	for {
		recs, err := jc.ShardJournal(0).ReadRecords(cur, 2) // small batches: exercise the cursor
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			break
		}
		for _, r := range recs {
			streamed = append(streamed, r.Data...)
		}
	}
	onDisk, err := os.ReadFile(filepath.Join(dir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed, onDisk[logHeaderLen:]) {
		t.Fatalf("streamed records (%d bytes) differ from journal.wal's (%d bytes)",
			len(streamed), len(onDisk)-logHeaderLen)
	}
	if cur.Seq != 6 { // put = 2 records, insert, remove, delete = 2 records
		t.Fatalf("cursor ended at %d, want 6", cur.Seq)
	}
	jc.Close()
}

// TestReplApplyMirrors: records tapped off one collection and applied to
// another reproduce the documents, the query results, and the WAL bytes.
func TestReplApplyMirrors(t *testing.T) {
	srcDir, dstDir := t.TempDir(), t.TempDir()
	src, err := OpenShardedCollection(srcDir, 1, LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := OpenShardedCollection(dstDir, 1, LD, nil)
	if err != nil {
		t.Fatal(err)
	}

	type taped struct {
		seq int64
		rec []byte
	}
	var tape []taped
	src.ShardJournal(0).SetReplTap(func(seq int64, rec []byte) {
		tape = append(tape, taped{seq, append([]byte(nil), rec...)})
	})

	if err := src.Put("inv", []byte("<inv><item/></inv>")); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Insert("inv", 5, []byte("<item n=\"2\"/>")); err != nil {
		t.Fatal(err)
	}
	if err := src.Put("tmp", []byte("<tmp/>")); err != nil {
		t.Fatal(err)
	}
	if err := src.Delete("tmp"); err != nil {
		t.Fatal(err)
	}

	for _, rec := range tape {
		seq, err := dst.ApplyRecords(0, [][]byte{rec.rec})
		if err != nil {
			t.Fatalf("apply: %v", err)
		}
		if seq != rec.seq {
			t.Fatalf("record landed at seq %d on the replica, %d on the source", seq, rec.seq)
		}
	}

	if err := dst.CheckConsistency(); err != nil {
		t.Fatalf("replica inconsistent: %v", err)
	}
	if got, want := dst.Names(), src.Names(); len(got) != len(want) {
		t.Fatalf("replica names %v, source %v", got, want)
	}
	srcText, _ := src.Text("inv")
	dstText, err := dst.Text("inv")
	if err != nil || !bytes.Equal(srcText, dstText) {
		t.Fatalf("replica text %q (%v), source %q", dstText, err, srcText)
	}
	srcN, _ := src.Count("inv//item")
	dstN, err := dst.Count("inv//item")
	if err != nil || srcN != dstN {
		t.Fatalf("replica count %d (%v), source %d", dstN, err, srcN)
	}

	src.Close()
	dst.Close()
	a, err := os.ReadFile(filepath.Join(srcDir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dstDir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("%s differs between source (%d bytes) and replica (%d bytes)", journalName, len(a), len(b))
	}
}
