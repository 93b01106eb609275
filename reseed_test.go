package lazyxml

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"testing"

	"repro/internal/faultline"
)

// seedSource builds a primary-side sharded collection with enough
// documents to populate every shard, returning the names per shard.
func seedSource(t *testing.T, dir string, shards int) (*ShardedCollection, map[int][]string) {
	t.Helper()
	sc, err := OpenShardedCollection(dir, shards, LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	byShard := map[int][]string{}
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("src-%d", i)
		if err := sc.Put(name, []byte(fmt.Sprintf("<d><x n=\"%d\"/></d>", i))); err != nil {
			t.Fatal(err)
		}
		byShard[sc.ShardOf(name)] = append(byShard[sc.ShardOf(name)], name)
	}
	return sc, byShard
}

func sortedNames(sc *ShardedCollection, shard int) []string {
	var out []string
	for _, n := range sc.Names() {
		if sc.ShardOf(n) == shard {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// TestReseedInstallAtomic checks the happy path: installing a captured
// snapshot replaces exactly the target shard's documents with the
// source's, survives a close/reopen, and leaves the replication
// positions at the capture's sequences.
func TestReseedInstallAtomic(t *testing.T) {
	for _, shards := range []int{1, 2} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			src, srcByShard := seedSource(t, t.TempDir(), shards)
			defer src.Close()
			dstDir := t.TempDir()
			dst, err := OpenShardedCollection(dstDir, shards, LD, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := dst.Put("stale-doc", []byte("<old/>")); err != nil {
				t.Fatal(err)
			}
			target := dst.ShardOf("stale-doc")

			snap, err := src.CaptureShardSnapshot(target)
			if err != nil {
				t.Fatal(err)
			}
			if err := dst.InstallReseed(target, snap); err != nil {
				t.Fatal(err)
			}

			want := append([]string(nil), srcByShard[target]...)
			sort.Strings(want)
			got := sortedNames(dst, target)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("shard %d after install holds %v, want source's %v", target, got, want)
			}
			for _, n := range want {
				gotText, err := dst.Text(n)
				if err != nil {
					t.Fatal(err)
				}
				srcText, _ := src.Text(n)
				if !bytes.Equal(gotText, srcText) {
					t.Fatalf("doc %s differs after re-seed", n)
				}
			}
			jc := dst.ShardJournal(target)
			seq, horizon := jc.Journal().ReplState()
			if seq != snap.Seq || horizon != snap.Seq {
				t.Fatalf("re-seeded shard at seq %d horizon %d, capture was %d", seq, horizon, snap.Seq)
			}
			if err := dst.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
			if err := dst.Close(); err != nil {
				t.Fatal(err)
			}

			re, err := OpenShardedCollection(dstDir, shards, LD, nil)
			if err != nil {
				t.Fatalf("reopen after install: %v", err)
			}
			defer re.Close()
			if got := sortedNames(re, target); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("reopen lost the re-seed: shard %d holds %v, want %v", target, got, want)
			}
			if err := re.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestReseedInstallCrashMatrix kills the "process" at every mutating
// file operation of the staged swap (dropping the failing write, then
// tearing it), then reopens with a clean filesystem: recovery must
// either roll the install forward or put the old shard back — the
// shard's document set, match count, segment count and sequence are
// exactly the old ones or exactly the new ones, never a mixture, and
// always consistent.
func TestReseedInstallCrashMatrix(t *testing.T) {
	for _, shards := range []int{1, 2} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			src, srcByShard := seedSource(t, t.TempDir(), shards)
			defer src.Close()

			seedDst := func(ffs *faultline.FaultFS) (*ShardedCollection, int, error) {
				dir := t.TempDir()
				boot, err := OpenShardedCollection(dir, shards, LD, nil)
				if err != nil {
					return nil, 0, err
				}
				if err := boot.Put("stale-doc", []byte("<old/>")); err != nil {
					return nil, 0, err
				}
				target := boot.ShardOf("stale-doc")
				if err := boot.Close(); err != nil {
					return nil, 0, err
				}
				var jOpts []JournalOption
				if ffs != nil {
					jOpts = append(jOpts, WithFS(ffs))
				}
				dst, err := OpenShardedCollection(dir, shards, LD, nil, jOpts...)
				return dst, target, err
			}

			// Sizing run.
			ffs := faultline.NewFaultFS(nil)
			dst, target, err := seedDst(ffs)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := src.CaptureShardSnapshot(target)
			if err != nil {
				t.Fatal(err)
			}
			base := ffs.Mutations()
			if err := dst.InstallReseed(target, snap); err != nil {
				t.Fatalf("fault-free install: %v", err)
			}
			n := ffs.Mutations() - base
			dst.Close()
			if n == 0 {
				t.Fatal("install performed no mutating I/O")
			}

			oldSet := "[stale-doc]"
			newNames := append([]string(nil), srcByShard[target]...)
			sort.Strings(newNames)
			newSet := fmt.Sprint(newNames)

			// The ladder runs twice: rungs 1..n drop the failing write whole,
			// rungs n+1..2n tear it.
			for rung := int64(1); rung <= 2*n; rung++ {
				ffs := faultline.NewFaultFS(nil)
				k, torn := rung, rung > n
				if torn {
					ffs.TornWrites()
					k -= n
				}
				dst, target, err := seedDst(ffs)
				if err != nil {
					t.Fatalf("k=%d: %v", k, err)
				}
				dir := dst.dir
				ffs.CrashAfter(ffs.Mutations() + k)
				if err := dst.InstallReseed(target, snap); err == nil {
					t.Fatalf("k=%d: install succeeded across a crash", k)
				} else if !errors.Is(err, faultline.ErrInjected) {
					t.Fatalf("k=%d: non-injected failure: %v", k, err)
				}
				dst.Close()

				re, err := OpenShardedCollection(dir, shards, LD, nil)
				if err != nil {
					t.Fatalf("k=%d: reopen after crashed install: %v", k, err)
				}
				if err := re.CheckConsistency(); err != nil {
					t.Fatalf("k=%d: inconsistent after crashed install: %v", k, err)
				}
				got := fmt.Sprint(sortedNames(re, target))
				if got != oldSet && got != newSet {
					t.Fatalf("k=%d: shard %d reopened with %v — neither the old %v nor the new %v",
						k, target, got, oldSet, newSet)
				}
				// One segment and one <x> per source document, one put (two
				// records) behind the stale shard: all three follow the set.
				wantDocs, wantSeq := len(newNames), snap.Seq
				if got == oldSet {
					wantDocs, wantSeq = 0, 2
				}
				rjc := re.ShardJournal(target)
				items, err := rjc.Count("d//x")
				seq, _ := rjc.Journal().ReplState()
				if err != nil || items != wantDocs || seq != wantSeq || rjc.Stats().Segments != max(wantDocs, 1) {
					t.Fatalf("k=%d torn=%v: shard %d holds %s with %d matches (%v), %d segments, seq %d; want %d matches, seq %d",
						k, torn, target, got, items, err, rjc.Stats().Segments, seq, wantDocs, wantSeq)
				}
				// Still writable after recovery.
				if err := re.Put("post-crash", []byte("<p/>")); err != nil {
					t.Fatalf("k=%d: write after recovery: %v", k, err)
				}
				re.Close()
			}
		})
	}
}

// TestPromoteEpoch checks the epoch machinery on the store: promotion
// bumps and persists the epoch, AdvanceEpoch is forward-only.
func TestPromoteEpoch(t *testing.T) {
	dir := t.TempDir()
	sc, err := OpenShardedCollection(dir, 2, LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Epoch() != 0 {
		t.Fatalf("fresh store at epoch %d, want 0", sc.Epoch())
	}
	e, err := sc.Promote()
	if err != nil || e != 1 {
		t.Fatalf("Promote = (%d, %v), want (1, nil)", e, err)
	}
	if err := sc.AdvanceEpoch(5); err != nil {
		t.Fatal(err)
	}
	// Epochs only move forward: a lower value is a silent no-op.
	if err := sc.AdvanceEpoch(3); err != nil {
		t.Fatal(err)
	}
	if sc.Epoch() != 5 {
		t.Fatalf("epoch regressed to %d", sc.Epoch())
	}
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenShardedCollection(dir, 2, LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Epoch() != 5 {
		t.Fatalf("epoch not persisted: reopened at %d, want 5", re.Epoch())
	}
}
