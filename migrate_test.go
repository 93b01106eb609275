package lazyxml

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faultline"
)

// testdata/twolog is a journal directory written by the last commit that
// kept two logs per shard: put a, put b, insert into a, Compact (so
// snapshot.lxml, docs.snap and both seq metas exist), then put c, insert
// into b, put d, delete c. It closed at seq 7 and docSeq 5.
const twoLogSeq = 7 + 5

var twoLogTexts = map[string]string{
	"a": `<load><item n="2"/><item n="0"/><item n="1"/></load>`,
	"b": `<load><item n="3"/><item n="9"/></load>`,
	"d": `<load><item n="4"/></load>`,
}

func copyTwoLogFixture(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	src := filepath.Join("testdata", "twolog")
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// verifyTwoLogMigrated checks a migrated fixture: the same names, texts
// and whole-collection counts the old code closed with, one sequence that
// is the sum of the old two with the horizon at it (no old position is
// resumable), and only the one-log layout's files left.
func verifyTwoLogMigrated(t *testing.T, jc *JournaledCollection, dir string) {
	t.Helper()
	if err := jc.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if got := jc.Names(); !equalStrings(got, []string{"a", "b", "d"}) {
		t.Fatalf("names = %v", got)
	}
	for name, want := range twoLogTexts {
		textIsOneOf(t, jc, name, 0, want)
	}
	if n, err := jc.Count("load//item"); err != nil || n != 6 {
		t.Fatalf("Count(load//item) = %d, %v; want 6", n, err)
	}
	if segs := jc.Stats().Segments; segs != 5 {
		t.Fatalf("segments = %d, want 5", segs)
	}
	if seq, horizon := jc.Journal().ReplState(); seq < twoLogSeq || horizon != twoLogSeq {
		t.Fatalf("seq %d horizon %d, want seq >= %d and horizon %d", seq, horizon, twoLogSeq, twoLogSeq)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != journalName && e.Name() != snapshotName {
			t.Fatalf("%s left behind by the migration", e.Name())
		}
	}
}

func TestMigrateTwoLogFixture(t *testing.T) {
	dir := copyTwoLogFixture(t)
	jc, err := OpenJournaledCollection(dir, LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	verifyTwoLogMigrated(t, jc, dir)
	if seq, _ := jc.Journal().ReplState(); seq != twoLogSeq {
		t.Fatalf("seq = %d, want old seq + old docSeq = %d", seq, twoLogSeq)
	}
	// The migrated store takes writes, and reopens through the normal path.
	if _, err := jc.Insert("d", 6, []byte(insFrag)); err != nil {
		t.Fatal(err)
	}
	if err := jc.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenJournaledCollection(dir, LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if seq, _ := re.Journal().ReplState(); seq != twoLogSeq+1 {
		t.Fatalf("seq after reopen = %d, want %d", seq, twoLogSeq+1)
	}
	textIsOneOf(t, re, "d", 0, twoLogTexts["d"][:6]+insFrag+twoLogTexts["d"][6:])
}

// TestMigrateCrashMatrix walks the crash ladder (dropped, then torn) over
// every mutating file operation of the migrating open. Whatever survives
// must reopen — finishing or restarting the migration — to exactly the
// migrated state.
func TestMigrateCrashMatrix(t *testing.T) {
	ffs := faultline.NewFaultFS(nil)
	jc, err := OpenJournaledCollection(copyTwoLogFixture(t), LD, nil, WithFS(ffs))
	if err != nil {
		t.Fatal(err)
	}
	n := ffs.Mutations()
	jc.Close()
	if n == 0 {
		t.Fatal("the migrating open performed no mutating I/O; the matrix is empty")
	}
	for _, torn := range []bool{false, true} {
		for k := int64(1); k <= n; k++ {
			dir := copyTwoLogFixture(t)
			ffs := faultline.NewFaultFS(nil)
			if torn {
				ffs.TornWrites()
			}
			ffs.CrashAfter(k)
			if jc, err := OpenJournaledCollection(dir, LD, nil, WithFS(ffs)); err == nil {
				jc.Close()
				t.Fatalf("torn=%v k=%d: open succeeded across a crash", torn, k)
			} else if !errors.Is(err, faultline.ErrInjected) {
				t.Fatalf("torn=%v k=%d: open failed with a non-injected error: %v", torn, k, err)
			}
			re, err := OpenJournaledCollection(dir, LD, nil)
			if err != nil {
				t.Fatalf("torn=%v k=%d: reopen after a crashed migration: %v", torn, k, err)
			}
			verifyTwoLogMigrated(t, re, dir)
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
