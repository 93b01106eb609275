package lazyxml

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/xmlgen"
)

// Cross-feature integration: the combinations users will actually run.

func TestIntegrationCollectionSnapshot(t *testing.T) {
	c := NewCollection(LD, WithValues())
	if err := c.Put("people", []byte("<people><person><name>Ann</name></person></people>")); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("items", []byte("<items><item/></items>")); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.shards[0].db.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The restored DB holds both documents' content (the Collection's
	// name map is a session-level convenience, not persisted state).
	if n, _ := restored.CountPattern("person[name='Ann']"); n != 1 {
		t.Fatal("value predicate broken after collection snapshot")
	}
	if n, _ := restored.Count("items/item"); n != 1 {
		t.Fatal("second document lost")
	}
}

func TestIntegrationJournalWithPatterns(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, LD, []Option{WithValues(), WithAttributes()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append([]byte(`<people></people>`)); err != nil {
		t.Fatal(err)
	}
	const open = len("<people>")
	for i, name := range []string{"Ann", "Bob", "Ann"} {
		frag := []byte(`<person id="p` + string(rune('0'+i)) + `"><name>` + name + `</name></person>`)
		if _, err := j.Insert(open, frag); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2, err := OpenJournal(dir, LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if n, _ := j2.CountPattern("person[name='Ann']"); n != 2 {
		t.Fatal("value predicate broken after journal compact+reopen")
	}
	if n, _ := j2.CountPattern("person[@id='p1']"); n != 1 {
		t.Fatal("attribute predicate broken after journal compact+reopen")
	}
}

func TestIntegrationParallelFacade(t *testing.T) {
	db := Open(LD)
	text := xmlgen.XMark(xmlgen.XMarkConfig{Seed: 3, Persons: 50, Items: 10})
	if _, err := db.Insert(0, text); err != nil {
		t.Fatal(err)
	}
	// Split the store into many segments for real partitioning.
	ms, _ := db.Query("person")
	for i := 0; i < 10 && i < len(ms); i++ {
		if _, err := db.Collapse(SID(1)); err != nil {
			break
		}
	}
	seq, err := db.QueryPair("person", "phone", Descendant, LazyJoin)
	if err != nil {
		t.Fatal(err)
	}
	par, err := db.QueryPairParallel("person", "phone", Descendant, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("parallel %d vs sequential %d", len(par), len(seq))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("result %d differs", i)
		}
	}
}

func TestIntegrationRebuildMultiDocument(t *testing.T) {
	// Several top-level documents + rebuild: the soak-test regression.
	db := Open(LD, WithValues())
	mustAppend(t, db, "<a><x>v</x></a>")
	mustAppend(t, db, "<b/>")
	mustAppend(t, db, "<c><y>v</y></c>")
	if err := db.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if db.Segments() != 3 {
		t.Fatalf("segments after multi-doc rebuild = %d, want 3", db.Segments())
	}
	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if n, _ := db.CountPattern("a[x='v']"); n != 1 {
		t.Fatal("values broken after multi-doc rebuild")
	}
}

func TestIntegrationSaveRestoreChain(t *testing.T) {
	dir := t.TempDir()
	db := Open(LS, WithAttributes())
	mustAppend(t, db, `<site><person id="p1"><phone/></person></site>`)
	snap := filepath.Join(dir, "a.snap")
	if err := db.SnapshotFile(snap); err != nil {
		t.Fatal(err)
	}
	r1, err := RestoreFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r1.Insert(6, []byte(`<person id="p2"><phone/></person>`)); err != nil {
		t.Fatal(err)
	}
	snap2 := filepath.Join(dir, "b.snap")
	if err := r1.SnapshotFile(snap2); err != nil {
		t.Fatal(err)
	}
	r2, err := RestoreFile(snap2)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := r2.Count("person//phone"); n != 2 {
		t.Fatal("snapshot chain lost data")
	}
	if n, _ := r2.Count("person/@id"); n != 2 {
		t.Fatal("attribute option lost across snapshot chain")
	}
	if err := r2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSnapshotRoundTrip(b *testing.B) {
	db := Open(LD)
	text := xmlgen.XMark(xmlgen.XMarkConfig{Seed: 5, Persons: 1000, Items: 200})
	if _, err := db.Insert(0, text); err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Snapshot(&buf); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(buf.Len())/1024, "snapshot-KB")
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := db.Snapshot(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := Restore(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
