package lazyxml

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/faultline"
)

// TestConcurrentWritersOneShard drives several writers at one shard at
// once. Every write must resolve its document's span, log and apply as
// one step: a writer that computed its offset from a span another writer
// has since moved lands inside a neighbour's tags, and a log whose order
// differs from the apply order replays to a different text than the one
// acknowledged.
func TestConcurrentWritersOneShard(t *testing.T) {
	const entry = "<e/>"
	t.Run("in-memory", func(t *testing.T) {
		const docs, perDoc = 4, 200
		sc := NewCollection(LD)
		for d := 0; d < docs; d++ {
			if err := sc.Put(fmt.Sprintf("d%d", d), []byte("<r></r>")); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		errs := make([]error, docs)
		for d := 0; d < docs; d++ {
			wg.Add(1)
			go func(d int) {
				defer wg.Done()
				for i := 0; i < perDoc && errs[d] == nil; i++ {
					_, errs[d] = sc.Insert(fmt.Sprintf("d%d", d), 3, []byte(entry))
				}
			}(d)
		}
		wg.Wait()
		want := "<r>" + strings.Repeat(entry, perDoc) + "</r>"
		for d := 0; d < docs; d++ {
			if errs[d] != nil {
				t.Fatalf("writer %d: %v", d, errs[d])
			}
			got, err := sc.Text(fmt.Sprintf("d%d", d))
			if err != nil || string(got) != want {
				t.Fatalf("d%d holds %d entries (%v), want exactly %d:\n%.200s", d, bytes.Count(got, []byte(entry)), err, perDoc, got)
			}
		}
		if err := sc.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("durable", func(t *testing.T) {
		const writers, perWriter = 4, 100
		dir := t.TempDir()
		sc, err := OpenShardedCollection(dir, 1, LD, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := sc.Put("d", []byte("<r></r>")); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make([]error, writers)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				frag := []byte(fmt.Sprintf("<e w=\"%d\"/>", w))
				for i := 0; i < perWriter && errs[w] == nil; i++ {
					_, errs[w] = sc.Insert("d", 3, frag)
				}
			}(w)
		}
		wg.Wait()
		for w, err := range errs {
			if err != nil {
				t.Fatalf("writer %d: %v", w, err)
			}
		}
		acked, err := sc.Text("d")
		if err != nil {
			t.Fatal(err)
		}
		if err := sc.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := OpenShardedCollection(dir, 1, LD, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		got, err := re.Text("d")
		if err != nil || !bytes.Equal(got, acked) {
			t.Fatalf("replayed text differs from the acknowledged one (%v):\nacked %.200s\n  got %.200s", err, acked, got)
		}
		if err := re.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRejectedUpdateNeverReachesLog: an update the store refuses must
// leave no trace in the log, or the next open replays it, fails the same
// way and refuses the whole directory.
func TestRejectedUpdateNeverReachesLog(t *testing.T) {
	t.Run("journal", func(t *testing.T) {
		dir := t.TempDir()
		j, err := OpenJournal(dir, LD, nil)
		if err != nil {
			t.Fatal(err)
		}
		const doc = "<a><b/></a>"
		if _, err := j.Append([]byte(doc)); err != nil {
			t.Fatal(err)
		}
		if _, err := j.Insert(9999, []byte("<c/>")); err == nil {
			t.Fatal("insert past the end accepted")
		}
		if err := j.Remove(3, 1e5); err == nil {
			t.Fatal("removal past the end accepted")
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j2, err := OpenJournal(dir, LD, nil)
		if err != nil {
			t.Fatalf("reopen after refused updates: %v", err)
		}
		defer j2.Close()
		if text, _ := j2.Text(); string(text) != doc {
			t.Fatalf("reopened text %q, want %q", text, doc)
		}
	})
	t.Run("follower", func(t *testing.T) {
		records := func(sc *ShardedCollection) [][]byte {
			t.Helper()
			recs, err := sc.ShardJournal(0).ReadRecords(&JournalCursor{}, 100)
			if err != nil {
				t.Fatal(err)
			}
			out := make([][]byte, len(recs))
			for i, r := range recs {
				out[i] = r.Data
			}
			return out
		}
		small, err := OpenShardedCollection(t.TempDir(), 1, LD, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer small.Close()
		if err := small.Put("d", []byte("<d/>")); err != nil {
			t.Fatal(err)
		}
		big, err := OpenShardedCollection(t.TempDir(), 1, LD, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer big.Close()
		if err := big.Put("d", []byte("<d>"+strings.Repeat("<x/>", 50)+"</d>")); err != nil {
			t.Fatal(err)
		}
		if _, err := big.Insert("d", 100, []byte("<y/>")); err != nil {
			t.Fatal(err)
		}
		// The small store's history, then an insert whose offset only the
		// big store has: the follower must refuse it.
		bigRecs := records(big)
		run := append(records(small), bigRecs[len(bigRecs)-1])

		dir := t.TempDir()
		fol, err := OpenShardedCollection(dir, 1, LD, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fol.ApplyRecords(0, run); err == nil {
			t.Fatal("follower applied an insert outside its store")
		}
		if err := fol.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := OpenShardedCollection(dir, 1, LD, nil)
		if err != nil {
			t.Fatalf("follower reopen after a refused record: %v", err)
		}
		defer re.Close()
		if text, err := re.Text("d"); err != nil || string(text) != "<d/>" {
			t.Fatalf("follower reopened as %q, %v", text, err)
		}
		if err := re.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestOneUnitOneFsync: a synced write without group commit costs one log
// write and one fsync per operation, whatever the operation's op count —
// a Put is its segment and its name, a Collapse three ops, each one unit.
func TestOneUnitOneFsync(t *testing.T) {
	ffs := faultline.NewFaultFS(nil)
	sc, err := OpenShardedCollection(t.TempDir(), 1, LD, nil, WithSync(), WithFS(ffs))
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	for _, step := range []struct {
		name string
		run  func() error
	}{
		{"put", func() error { return sc.Put("d", []byte("<d><x/></d>")) }},
		{"insert", func() error { _, err := sc.Insert("d", 3, []byte("<y/>")); return err }},
		{"collapse", func() error { _, err := sc.Collapse("d"); return err }},
		{"delete", func() error { return sc.Delete("d") }},
	} {
		before := ffs.Mutations()
		if err := step.run(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if n := ffs.Mutations() - before; n != 2 {
			t.Fatalf("%s made %d file mutations, want 2: one log write, one fsync", step.name, n)
		}
	}
}

// TestFailedLogSyncPoisons: a write whose fsync failed may or may not be
// in the log, so the journal refuses every later write. At the parent a
// later write was acknowledged on top of a store that lacked the failed
// one while the log held it, and the reopened text differed from the
// acknowledged one.
func TestFailedLogSyncPoisons(t *testing.T) {
	boom := errors.New("sync failed")
	dir := t.TempDir()
	seedCrashDir(t, dir)
	ffs := faultline.NewFaultFS(nil)
	sc, err := OpenShardedCollection(dir, 1, LD, nil, WithSync(), WithFS(ffs))
	if err != nil {
		t.Fatal(err)
	}
	ffs.FailOp(faultline.OpSync, "journal.wal", boom, 0)
	if _, err := sc.Insert("a", 6, []byte(insFrag)); !errors.Is(err, boom) {
		t.Fatalf("insert with a failed fsync returned %v, want the injected error", err)
	}
	var acked []byte
	if _, err := sc.Insert("a", 6, []byte(`<item n="3"/>`)); err == nil {
		acked, _ = sc.Text("a")
	}
	sc.Close()
	re, err := OpenShardedCollection(dir, 1, LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if acked != nil {
		if got, _ := re.Text("a"); !bytes.Equal(got, acked) {
			t.Fatalf("a write acknowledged after a failed fsync reopened as %q, not the acknowledged %q", got, acked)
		}
		return
	}
	textIsOneOf(t, re, "a", 0, seedDocA, seedDocA[:6]+insFrag+seedDocA[6:])
}

// TestRemovingWholeDocumentIsRefused: a removal of a document's entire
// span would delete its segment and leave its name bound to nothing;
// that is a Delete, which removes both in one unit.
func TestRemovingWholeDocumentIsRefused(t *testing.T) {
	sc := NewCollection(LD)
	const doc = "<d><x/></d>"
	if err := sc.Put("d", []byte(doc)); err != nil {
		t.Fatal(err)
	}
	if err := sc.Remove("d", 0, len(doc)); err == nil {
		t.Fatal("removal of the whole document accepted")
	}
	if err := sc.RemoveElementAt("d", 0); err == nil {
		t.Fatal("removal of the root element accepted")
	}
	if err := sc.RemoveElementAt("d", 3); err != nil {
		t.Fatal(err)
	}
	if text, err := sc.Text("d"); err != nil || string(text) != "<d></d>" {
		t.Fatalf("d = %q, %v", text, err)
	}
	if err := sc.Delete("d"); err != nil {
		t.Fatal(err)
	}
	if err := sc.Put("d", []byte(doc)); err != nil {
		t.Fatalf("put after delete: %v", err)
	}
}
