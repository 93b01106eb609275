package lazyxml

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

func TestSnapshotRoundTrip(t *testing.T) {
	db := Open(LD)
	mustAppend(t, db, "<a><x></x></a>")
	if _, err := db.Insert(6, []byte("<d><d/></d>")); err != nil {
		t.Fatal(err)
	}
	if err := db.Remove(9, 4); err != nil { // the inner <d/>
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := db.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Restore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := got.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	wantText, _ := db.Text()
	gotText, err := got.Text()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantText, gotText) {
		t.Fatalf("text diverged: %s vs %s", wantText, gotText)
	}
	ws, gs := db.Stats(), got.Stats()
	if ws != gs {
		t.Fatalf("stats diverged: %+v vs %+v", ws, gs)
	}
	for _, q := range []string{"a//d", "x//d", "a/x", "x/d"} {
		n1, err1 := db.Count(q)
		n2, err2 := got.Count(q)
		if err1 != nil || err2 != nil || n1 != n2 {
			t.Fatalf("%s: %d/%v vs %d/%v", q, n1, err1, n2, err2)
		}
	}
	// The restored store must keep working: updates and queries.
	if _, err := got.Append([]byte("<a><d/></a>")); err != nil {
		t.Fatal(err)
	}
	if err := got.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	n, err := got.Count("a//d")
	if err != nil {
		t.Fatal(err)
	}
	orig, _ := db.Count("a//d")
	if n != orig+1 {
		t.Fatalf("post-restore insert: a//d = %d, want %d", n, orig+1)
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.snap")
	db := Open(LS)
	mustAppend(t, db, "<a><b/><c/></a>")
	if err := db.SnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := RestoreFile(path, WithoutText())
	if err != nil {
		t.Fatal(err)
	}
	if got.Mode() != LS {
		t.Fatalf("mode = %v, want LS (from snapshot)", got.Mode())
	}
	if _, err := got.Text(); err != nil {
		t.Fatalf("text retention must come from the snapshot, not the restore options: %v", err)
	}
	if n, _ := got.Count("a//b"); n != 1 {
		t.Fatalf("a//b = %d", n)
	}
	if _, err := RestoreFile(filepath.Join(t.TempDir(), "missing.snap")); err == nil {
		t.Fatal("restore of missing file succeeded")
	}
}

func TestSnapshotWithoutText(t *testing.T) {
	db := Open(LD, WithoutText())
	mustAppend(t, db, "<a><b/></a>")
	var buf bytes.Buffer
	if err := db.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := got.Text(); err == nil {
		t.Fatal("restored WithoutText store has text")
	}
	if n, _ := got.Count("a/b"); n != 1 {
		t.Fatal("query broken after textless restore")
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("x"),
		[]byte("NOTASNAPSHOT"),
		[]byte("LXML1"), // truncated after magic
	}
	for _, c := range cases {
		if _, err := Restore(bytes.NewReader(c)); err == nil {
			t.Errorf("Restore(%q) succeeded", c)
		}
	}
	// A valid snapshot truncated in the middle must fail, not hang or
	// produce a half-store.
	db := Open(LD)
	mustAppend(t, db, "<a><b/><c/><d/></a>")
	var buf bytes.Buffer
	if err := db.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for _, cut := range []int{6, len(whole) / 3, len(whole) / 2, len(whole) - 1} {
		if _, err := Restore(bytes.NewReader(whole[:cut])); err == nil {
			t.Errorf("Restore of %d/%d bytes succeeded", cut, len(whole))
		}
	}
}

// TestQuickSnapshotAfterRandomWorkload snapshots stores built by random
// update histories and verifies full behavioural equivalence after
// restore.
func TestQuickSnapshotAfterRandomWorkload(t *testing.T) {
	tags := []string{"a", "b", "c"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := Open(LD)
		for i := 0; i < 12; i++ {
			text, _ := db.Text()
			if len(text) > 0 && r.Intn(4) == 0 {
				// Remove a random top-level-ish element via Query.
				ms, err := db.Query(tags[r.Intn(len(tags))])
				if err != nil || len(ms) == 0 {
					continue
				}
				m := ms[r.Intn(len(ms))]
				if err := db.Remove(m.DescStart, m.DescEnd-m.DescStart); err != nil {
					return false
				}
				continue
			}
			frag := randomSnapshotFragment(r, tags)
			gp := 0
			if len(text) > 0 {
				// Insert after some element's end (always valid).
				ms, err := db.Query(tags[r.Intn(len(tags))])
				if err != nil {
					return false
				}
				if len(ms) > 0 {
					gp = ms[r.Intn(len(ms))].DescEnd
				}
			}
			if _, err := db.Insert(gp, []byte(frag)); err != nil {
				return false
			}
		}
		var buf bytes.Buffer
		if err := db.Snapshot(&buf); err != nil {
			return false
		}
		got, err := Restore(&buf)
		if err != nil {
			t.Log(err)
			return false
		}
		if err := got.CheckConsistency(); err != nil {
			t.Log(err)
			return false
		}
		for _, a := range tags {
			for _, d := range tags {
				n1, _ := db.Count(a + "//" + d)
				n2, _ := got.Count(a + "//" + d)
				if n1 != n2 {
					t.Logf("seed %d %s//%s: %d vs %d", seed, a, d, n1, n2)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func randomSnapshotFragment(r *rand.Rand, tags []string) string {
	var sb strings.Builder
	var emit func(depth int)
	emit = func(depth int) {
		tag := tags[r.Intn(len(tags))]
		if depth > 2 || r.Intn(3) == 0 {
			sb.WriteString("<" + tag + "/>")
			return
		}
		sb.WriteString("<" + tag + ">")
		for i, n := 0, r.Intn(3); i < n; i++ {
			emit(depth + 1)
		}
		sb.WriteString("</" + tag + ">")
	}
	emit(0)
	return sb.String()
}
