package maintain

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	lazyxml "repro"
	"repro/internal/faultline"
)

// Crash-point matrix over the maintenance cycle itself: an insert
// fragments a document past the thresholds, a controller cycle collapses
// and compacts it — twice, so the second cycle folds a log with a
// non-zero base into a snapshot that replaces an earlier one — and every
// mutating file operation along the way is, in turn, the moment the
// process dies. Maintenance never changes document content, so the legal
// post-crash states are exactly the workload's own: each document before
// or after each insert, never in between, the whole-collection match
// count likewise, and the reopened store CheckConsistency-clean and
// writable.

const (
	crashDocA = "<load><item n=\"0\"/><item n=\"1\"/></load>"
	crashDocB = "<load><item n=\"9\"/></load>"
	crashFrag = "<item n=\"2\"/>"
)

func seedMaintDir(t *testing.T, dir string) {
	t.Helper()
	jc, err := lazyxml.OpenShardedCollection(dir, 1, lazyxml.LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := jc.Put("a", []byte(crashDocA)); err != nil {
		t.Fatal(err)
	}
	if err := jc.Put("b", []byte(crashDocB)); err != nil {
		t.Fatal(err)
	}
	if err := jc.Close(); err != nil {
		t.Fatal(err)
	}
}

// maintCycle is the workload under the matrix: twice over, one
// fragmenting insert, then one controller cycle with thresholds low
// enough that it must collapse and compact.
func maintCycle(jc *lazyxml.ShardedCollection) (*Controller, error) {
	ctl := New(jc, Config{
		Policy: Policy{SegmentsHigh: 2, SegmentsLow: 1, LogBytesHigh: 1,
			MinActionGap: time.Nanosecond},
	})
	for cycle := 0; cycle < 2; cycle++ {
		if _, err := jc.Insert("a", 6, []byte(crashFrag)); err != nil {
			return ctl, err
		}
		if err := ctl.RunOnce(context.Background()); err != nil {
			return ctl, err
		}
	}
	return ctl, nil
}

func maintTextIsOneOf(t *testing.T, jc *lazyxml.ShardedCollection, name string, k int64, want ...string) {
	t.Helper()
	got, err := jc.Text(name)
	if err != nil {
		t.Fatalf("k=%d: text %s: %v", k, name, err)
	}
	for _, w := range want {
		if bytes.Equal(got, []byte(w)) {
			return
		}
	}
	t.Fatalf("k=%d: doc %s in an in-between state after crash:\n%s", k, name, got)
}

func TestAutoCompactCrashPointMatrix(t *testing.T) {
	insertedA := crashDocA[:6] + crashFrag + crashDocA[6:]
	insertedTwiceA := crashDocA[:6] + crashFrag + crashFrag + crashDocA[6:]
	for _, torn := range []bool{false, true} {
		torn := torn
		mode := "drop"
		if torn {
			mode = "torn"
		}
		t.Run(mode, func(t *testing.T) {
			// Sizing run: count the cycle's mutating operations with no
			// fault armed, and prove the controller actually maintained —
			// otherwise the matrix exercises nothing.
			dir := t.TempDir()
			seedMaintDir(t, dir)
			ffs := faultline.NewFaultFS(nil)
			jc, err := lazyxml.OpenShardedCollection(dir, 1, lazyxml.LD, nil, lazyxml.WithFS(ffs))
			if err != nil {
				t.Fatal(err)
			}
			base := ffs.Mutations()
			ctl, err := maintCycle(jc)
			if err != nil {
				t.Fatalf("fault-free cycle: %v", err)
			}
			n := ffs.Mutations() - base
			snap := ctl.Snapshot()
			if snap.CollapsedDocs < 2 || snap.Compacts < 2 {
				t.Fatalf("fault-free cycle did not maintain: %+v", snap)
			}
			jc.Close()
			if n == 0 {
				t.Fatal("maintenance cycle performed no mutating I/O; the matrix is empty")
			}

			for k := int64(1); k <= n; k++ {
				k := k
				t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
					dir := t.TempDir()
					seedMaintDir(t, dir)
					ffs := faultline.NewFaultFS(nil)
					if torn {
						ffs.TornWrites()
					}
					jc, err := lazyxml.OpenShardedCollection(dir, 1, lazyxml.LD, nil, lazyxml.WithFS(ffs))
					if err != nil {
						t.Fatalf("open: %v", err)
					}
					ffs.CrashAfter(ffs.Mutations() + k)
					_, err = maintCycle(jc)
					if !ffs.Crashed() {
						t.Fatal("crash point did not fire")
					}
					if err == nil {
						t.Fatal("maintenance cycle succeeded across a crash")
					}
					if !errors.Is(err, faultline.ErrInjected) {
						t.Fatalf("cycle failed with a non-injected error: %v", err)
					}
					jc.Close()

					// Restart: clean filesystem over whatever survived.
					re, err := lazyxml.OpenShardedCollection(dir, 1, lazyxml.LD, nil)
					if err != nil {
						t.Fatalf("reopen after crash corrupted the store: %v", err)
					}
					if err := re.CheckConsistency(); err != nil {
						t.Fatalf("reopened store inconsistent: %v", err)
					}
					maintTextIsOneOf(t, re, "a", k, crashDocA, insertedA, insertedTwiceA)
					maintTextIsOneOf(t, re, "b", k, crashDocB)
					// A log replayed on top of the snapshot that already holds
					// it leaves every named document intact and only the total
					// wrong, and a collapse's copy orphaned beside its original
					// adds to the totals without any name reaching it: the
					// whole collection must equal the sums over its documents.
					a, _ := re.Text("a")
					inA := bytes.Count(a, []byte("<item"))
					if n, err := re.Count("load//item"); err != nil || n != inA+1 {
						t.Fatalf("Count(load//item) after reopen = %d, %v; the documents hold %d", n, err, inA+1)
					}
					segs := 0
					for _, d := range re.DocSegments() {
						segs += d.Segments
					}
					if n := re.Stats().Segments; n != segs {
						t.Fatalf("Stats().Segments after reopen = %d; the documents span %d", n, segs)
					}
					if err := re.Put("post-crash", []byte(crashDocB)); err != nil {
						t.Fatalf("write after reopen: %v", err)
					}
					if err := re.Close(); err != nil {
						t.Fatalf("close after reopen: %v", err)
					}
				})
			}
		})
	}
}
