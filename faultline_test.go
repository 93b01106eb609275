package lazyxml

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/faultline"
)

// Crash-point matrix over the durability stack: every mutating file
// operation (write, sync, rename, truncate, remove …) a scenario
// performs is, in turn, made the moment the process dies. After each
// simulated crash the directory is reopened with a clean filesystem and
// must come back CheckConsistency-clean, with every document either in
// its pre-crash or post-crash state — never half of one — the same for
// the whole-collection match and segment counts (a replayed-twice log
// leaves every named document intact and only the totals wrong), and a
// sequence no lower than the last one acknowledged. The matrix runs
// twice: once dropping the failing write whole, once tearing it in half
// (the classic torn tail).

const (
	seedDocA = "<load><item n=\"0\"/><item n=\"1\"/></load>"
	seedDocB = "<load><item n=\"9\"/></load>"
	newDoc   = "<load><fresh/></load>"
	insFrag  = "<item n=\"2\"/>"
)

// seedCrashDir builds the deterministic pre-crash state: two documents,
// one insert, everything folded so each matrix iteration starts from an
// identical directory.
func seedCrashDir(t *testing.T, dir string) {
	t.Helper()
	jc, err := OpenShardedCollection(dir, 1, LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := jc.Put("a", []byte(seedDocA)); err != nil {
		t.Fatal(err)
	}
	if err := jc.Put("b", []byte(seedDocB)); err != nil {
		t.Fatal(err)
	}
	if err := jc.Close(); err != nil {
		t.Fatal(err)
	}
}

// crashScenario is one cell column of the matrix: a named workload whose
// every fsync/rename/write boundary the matrix walks, plus the states a
// document may legally be in after the crash.
type crashScenario struct {
	name string
	run  func(jc *ShardedCollection) error
	// verify gets the reopened collection; it must accept both the
	// pre-state and any prefix of the scenario's effects.
	verify func(t *testing.T, jc *ShardedCollection, k int64)
	// items and segments are the legal reopened values of the
	// whole-collection Count("load//item") and Stats().Segments.
	items, segments []int
}

func intIsOneOf(t *testing.T, what string, k int64, got int, want []int) {
	t.Helper()
	for _, w := range want {
		if got == w {
			return
		}
	}
	t.Fatalf("k=%d: %s reopened as %d, not any legal value %v", k, what, got, want)
}

func textIsOneOf(t *testing.T, jc *ShardedCollection, name string, k int64, want ...string) {
	t.Helper()
	got, err := jc.Text(name)
	if err != nil {
		t.Fatalf("k=%d: Text(%s): %v", k, name, err)
	}
	for _, w := range want {
		if bytes.Equal(got, []byte(w)) {
			return
		}
	}
	t.Fatalf("k=%d: doc %s reopened as %q, not any legal state %q", k, name, got, want)
}

func crashScenarios() []crashScenario {
	afterInsert := seedDocA[:6] + insFrag + seedDocA[6:]
	return []crashScenario{
		{
			name: "put",
			run:  func(jc *ShardedCollection) error { return jc.Put("new", []byte(newDoc)) },
			verify: func(t *testing.T, jc *ShardedCollection, k int64) {
				textIsOneOf(t, jc, "a", k, seedDocA)
				textIsOneOf(t, jc, "b", k, seedDocB)
				if _, err := jc.Text("new"); err == nil {
					textIsOneOf(t, jc, "new", k, newDoc)
				}
			},
			items: []int{3}, segments: []int{2, 3},
		},
		{
			name: "insert",
			run: func(jc *ShardedCollection) error {
				_, err := jc.Insert("a", 6, []byte(insFrag))
				return err
			},
			verify: func(t *testing.T, jc *ShardedCollection, k int64) {
				textIsOneOf(t, jc, "a", k, seedDocA, afterInsert)
				textIsOneOf(t, jc, "b", k, seedDocB)
			},
			items: []int{3, 4}, segments: []int{2, 3},
		},
		{
			name: "delete",
			run:  func(jc *ShardedCollection) error { return jc.Delete("a") },
			verify: func(t *testing.T, jc *ShardedCollection, k int64) {
				if _, err := jc.Text("a"); err == nil {
					textIsOneOf(t, jc, "a", k, seedDocA)
				}
				textIsOneOf(t, jc, "b", k, seedDocB)
			},
			items: []int{3, 1}, segments: []int{2, 1},
		},
		{
			// Compact is the richest cell: snapshot.lxml rewrite + rename
			// (the commit point), then journal.wal replaced by an empty log
			// based at the covered sequence. A crash between the two reopens
			// to a log whose records the snapshot already holds; replaying
			// them again would double the insert.
			name: "compact",
			run: func(jc *ShardedCollection) error {
				if _, err := jc.Insert("a", 6, []byte(insFrag)); err != nil {
					return err
				}
				return jc.Compact()
			},
			verify: func(t *testing.T, jc *ShardedCollection, k int64) {
				textIsOneOf(t, jc, "a", k, seedDocA, afterInsert)
				textIsOneOf(t, jc, "b", k, seedDocB)
			},
			items: []int{3, 4}, segments: []int{2, 3},
		},
	}
}

func TestCrashPointMatrix(t *testing.T) {
	for _, torn := range []bool{false, true} {
		torn := torn
		mode := "drop"
		if torn {
			mode = "torn"
		}
		for _, sc := range crashScenarios() {
			sc := sc
			t.Run(fmt.Sprintf("%s/%s", sc.name, mode), func(t *testing.T) {
				// Sizing run: count the scenario's mutating operations
				// with no fault armed.
				dir := t.TempDir()
				seedCrashDir(t, dir)
				ffs := faultline.NewFaultFS(nil)
				jc, err := OpenShardedCollection(dir, 1, LD, nil, WithFS(ffs))
				if err != nil {
					t.Fatal(err)
				}
				base := ffs.Mutations()
				if err := sc.run(jc); err != nil {
					t.Fatalf("fault-free run: %v", err)
				}
				n := ffs.Mutations() - base
				jc.Close()
				if n == 0 {
					t.Fatalf("scenario %s performed no mutating I/O; the matrix is empty", sc.name)
				}

				// One cell per mutating operation: the k-th one fails and
				// the process is dead from then on.
				for k := int64(1); k <= n; k++ {
					dir := t.TempDir()
					seedCrashDir(t, dir)
					ffs := faultline.NewFaultFS(nil)
					if torn {
						ffs.TornWrites()
					}
					jc, err := OpenShardedCollection(dir, 1, LD, nil, WithFS(ffs))
					if err != nil {
						t.Fatalf("k=%d: open: %v", k, err)
					}
					ffs.CrashAfter(ffs.Mutations() + k)
					err = sc.run(jc)
					if !ffs.Crashed() {
						t.Fatalf("k=%d: crash point did not fire", k)
					}
					if err == nil {
						t.Fatalf("k=%d: scenario succeeded across a crash", k)
					}
					if !errors.Is(err, faultline.ErrInjected) {
						t.Fatalf("k=%d: scenario failed with a non-injected error: %v", k, err)
					}
					acked, _ := jc.ShardJournal(0).ReplState()
					jc.Close() // descriptors only; the fault plan is already dead

					// The "restart": a clean filesystem over whatever bytes
					// survived. It must reopen consistent — or refuse loudly.
					re, err := OpenShardedCollection(dir, 1, LD, nil)
					if err != nil {
						t.Fatalf("k=%d: reopen after crash corrupted the store: %v", k, err)
					}
					if err := re.CheckConsistency(); err != nil {
						t.Fatalf("k=%d: reopened store inconsistent: %v", k, err)
					}
					sc.verify(t, re, k)
					items, err := re.Count("load//item")
					if err != nil {
						t.Fatalf("k=%d: query after reopen: %v", k, err)
					}
					intIsOneOf(t, "Count(load//item)", k, items, sc.items)
					intIsOneOf(t, "Stats().Segments", k, re.Stats().Segments, sc.segments)
					if seq, _ := re.ShardJournal(0).ReplState(); seq < acked {
						t.Fatalf("k=%d: sequence reopened as %d, below the acknowledged %d", k, seq, acked)
					}
					// The reopened store must also still accept writes and
					// survive a second clean cycle.
					if err := re.Put("post-crash", []byte(newDoc)); err != nil {
						t.Fatalf("k=%d: write after reopen: %v", k, err)
					}
					if err := re.Close(); err != nil {
						t.Fatalf("k=%d: close after reopen: %v", k, err)
					}
				}
			})
		}
	}
}

// TestFaultTargetedErrors drives the FailOp mechanism: a single failing
// call site must surface as an error from the operation that hit it —
// not crash the process, not corrupt the store.
func TestFaultTargetedErrors(t *testing.T) {
	boom := errors.New("disk full")
	cases := []struct {
		name   string
		op     string
		substr string
		skip   int // matching calls let through first
		run    func(jc *ShardedCollection) error
	}{
		{"wal-write", faultline.OpWrite, "journal.wal", 0,
			func(jc *ShardedCollection) error { return jc.Put("x", []byte(newDoc)) }},
		// A put is two records: its segment, then its name.
		{"name-record-write", faultline.OpWrite, "journal.wal", 1,
			func(jc *ShardedCollection) error { return jc.Put("x", []byte(newDoc)) }},
		{"snapshot-rename", faultline.OpRename, "snapshot.lxml", 0,
			func(jc *ShardedCollection) error { return jc.Compact() }},
		{"log-replace-rename", faultline.OpRename, "journal.wal", 0,
			func(jc *ShardedCollection) error { return jc.Compact() }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			seedCrashDir(t, dir)
			ffs := faultline.NewFaultFS(nil)
			jc, err := OpenShardedCollection(dir, 1, LD, nil, WithFS(ffs))
			if err != nil {
				t.Fatal(err)
			}
			ffs.FailOp(tc.op, tc.substr, boom, tc.skip)
			if err := tc.run(jc); !errors.Is(err, boom) {
				t.Fatalf("operation with injected %s on %s returned %v, want the injected error",
					tc.op, tc.substr, err)
			}
			jc.Close()

			re, err := OpenShardedCollection(dir, 1, LD, nil)
			if err != nil {
				t.Fatalf("reopen after local fault: %v", err)
			}
			defer re.Close()
			if err := re.CheckConsistency(); err != nil {
				t.Fatalf("store inconsistent after local fault: %v", err)
			}
			textIsOneOf(t, re, "a", 0, seedDocA)
			textIsOneOf(t, re, "b", 0, seedDocB)
		})
	}
}
