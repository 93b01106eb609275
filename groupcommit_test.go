package lazyxml

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/faultline"
)

// Group-commit test surface (DESIGN.md §15). Three pillars:
//
//   - a crash-point matrix over every mutating file operation of a
//     batched append (dropped and torn), proving all-or-prefix recovery
//     with no acknowledged write lost;
//   - an oracle-equivalence property: the same op stream produces
//     byte-identical documents and query results whether it ran batched
//     or record-at-a-time;
//   - a latency soak: a fixed arrival rate against commit-window sweeps
//     with bounded ack latency and no starved waiter.

// gcOpen opens a group-commit, sync-on-ack collection in dir.
func gcOpen(t *testing.T, dir string, window time.Duration, extra ...JournalOption) *JournaledCollection {
	t.Helper()
	opts := append([]JournalOption{WithSync(), WithGroupCommit(window)}, extra...)
	jc, err := OpenJournaledCollection(dir, LD, nil, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return jc
}

// TestGroupCommitBasic drives concurrent writers through one commit lane
// and checks results, durability across reopen, and the lane counters.
func TestGroupCommitBasic(t *testing.T) {
	dir := t.TempDir()
	jc := gcOpen(t, dir, 2*time.Millisecond)
	const writers = 24
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = jc.Put(fmt.Sprintf("doc-%02d", i), []byte(seedDocA))
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	// Duplicate puts and unknown deletes must fail individually without
	// poisoning the batch they rode in.
	var dupErr, delErr, okErr error
	wg.Add(3)
	go func() { defer wg.Done(); dupErr = jc.Put("doc-00", []byte(seedDocB)) }()
	go func() { defer wg.Done(); delErr = jc.Delete("no-such-doc") }()
	go func() { defer wg.Done(); okErr = jc.Put("doc-ok", []byte(seedDocB)) }()
	wg.Wait()
	if dupErr == nil || delErr == nil {
		t.Fatalf("invalid ops succeeded through the lane: dup=%v del=%v", dupErr, delErr)
	}
	if okErr != nil {
		t.Fatalf("valid op failed alongside invalid batchmates: %v", okErr)
	}
	if _, err := jc.Insert("doc-00", 6, []byte(insFrag)); err != nil {
		t.Fatalf("insert through lane: %v", err)
	}
	st := jc.CommitLaneStats()
	if !st.Enabled || st.Ops < writers+4 || st.Batches == 0 {
		t.Fatalf("lane stats implausible: %+v", st)
	}
	if st.Batches >= st.Ops {
		t.Fatalf("no batching happened: %d batches for %d ops", st.Batches, st.Ops)
	}
	if err := jc.CheckConsistency(); err != nil {
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
	if err := re.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if got := re.Len(); got != writers+1 {
		t.Fatalf("reopened with %d docs, want %d", got, writers+1)
	}
	textIsOneOf(t, re, "doc-00", 0, seedDocA[:6]+insFrag+seedDocA[6:])
	textIsOneOf(t, re, "doc-ok", 0, seedDocB)
}

// TestGroupCommitBatchCrashMatrix is the batched-append crash matrix:
// a whole batch — segment and name records alike — flushes through two
// mutating file operations (one write, one fsync). Two batches run back
// to back (puts and an insert, then a delete beside a put) and the
// matrix makes each of their file operations, in turn, the moment the
// process dies — once dropping the failing write, once tearing it. The invariants after reopen: the store
// is consistent, every op acknowledged before the crash is present,
// every document is in a legal all-or-prefix state, the whole-collection
// counts are legal, and the sequence is no lower than the acknowledged
// one.
func TestGroupCommitBatchCrashMatrix(t *testing.T) {
	const m = 8 // concurrent puts in the first batch, plus one insert
	type opResult struct {
		name string // "" for the insert op
		err  error
	}
	// runBatch returns the first batch's results (m puts, then the insert)
	// followed by the second's: the delete of b, then the put of "late".
	runBatch := func(jc *JournaledCollection) []opResult {
		res := make([]opResult, m+3)
		res[m+2].name = "late"
		var wg sync.WaitGroup
		for i := 0; i < m; i++ {
			i := i
			res[i].name = fmt.Sprintf("batch-%d", i)
			wg.Add(1)
			go func() {
				defer wg.Done()
				res[i].err = jc.Put(res[i].name, []byte(newDoc))
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := jc.Insert("a", 6, []byte(insFrag))
			res[m].err = err
		}()
		wg.Wait()
		wg.Add(2)
		go func() { defer wg.Done(); res[m+1].err = jc.Delete("b") }()
		go func() { defer wg.Done(); res[m+2].err = jc.Put("late", []byte(newDoc)) }()
		wg.Wait()
		return res
	}

	// Sizing run: count the batch flush's mutating operations fault-free.
	dir := t.TempDir()
	seedCrashDir(t, dir)
	ffs := faultline.NewFaultFS(nil)
	jc := gcOpen(t, dir, 50*time.Millisecond, WithFS(ffs))
	base := ffs.Mutations()
	if err := jc.Put("acked", []byte(newDoc)); err != nil {
		t.Fatal(err)
	}
	// The flush budget: a batch holding a segment record and a name record
	// is one write plus one fsync.
	if cost := ffs.Mutations() - base; cost != 2 {
		t.Fatalf("a batched flush containing a name cost %d mutating file ops, want 2", cost)
	}
	base = ffs.Mutations()
	for _, r := range runBatch(jc) {
		if r.err != nil {
			t.Fatalf("fault-free batch op failed: %v", r.err)
		}
	}
	n := ffs.Mutations() - base
	jc.Close()
	if n == 0 {
		t.Fatal("batched append performed no mutating I/O; the matrix is empty")
	}

	for _, torn := range []bool{false, true} {
		torn := torn
		mode := "drop"
		if torn {
			mode = "torn"
		}
		for k := int64(1); k <= n; k++ {
			k := k
			t.Run(fmt.Sprintf("%s/k=%d", mode, k), func(t *testing.T) {
				dir := t.TempDir()
				seedCrashDir(t, dir)
				ffs := faultline.NewFaultFS(nil)
				if torn {
					ffs.TornWrites()
				}
				jc := gcOpen(t, dir, 50*time.Millisecond, WithFS(ffs))
				// One fully acknowledged batch before the crash: its write
				// must never be lost.
				if err := jc.Put("acked", []byte(newDoc)); err != nil {
					t.Fatalf("pre-crash put: %v", err)
				}
				ffs.CrashAfter(ffs.Mutations() + k)
				res := runBatch(jc)
				if !ffs.Crashed() {
					t.Fatalf("crash point did not fire")
				}
				failed := 0
				for _, r := range res {
					if r.err != nil {
						failed++
						if !errors.Is(r.err, faultline.ErrInjected) {
							t.Fatalf("op failed with a non-injected error: %v", r.err)
						}
					}
				}
				if failed == 0 {
					t.Fatal("every batch op was acknowledged across a crash")
				}
				acked, _ := jc.Journal().ReplState()
				jc.Close()

				re, err := OpenJournaledCollection(dir, LD, nil)
				if err != nil {
					t.Fatalf("reopen after crash corrupted the store: %v", err)
				}
				if err := re.CheckConsistency(); err != nil {
					t.Fatalf("reopened store inconsistent: %v", err)
				}
				// No acked write lost: the pre-crash batch and any op the
				// crashed batch did acknowledge must be present.
				textIsOneOf(t, re, "acked", k, newDoc)
				for _, r := range append(res[:m:m], res[m+2]) {
					got, terr := re.Text(r.name)
					if r.err == nil && terr != nil {
						t.Fatalf("k=%d: acked put %q lost after reopen: %v", k, r.name, terr)
					}
					// All-or-prefix: a doc that did survive is whole.
					if terr == nil && !bytes.Equal(got, []byte(newDoc)) {
						t.Fatalf("k=%d: doc %q reopened as %q — a torn document", k, r.name, got)
					}
				}
				afterInsert := seedDocA[:6] + insFrag + seedDocA[6:]
				if res[m].err == nil {
					textIsOneOf(t, re, "a", k, afterInsert)
				} else {
					textIsOneOf(t, re, "a", k, seedDocA, afterInsert)
				}
				// An acknowledged delete stays deleted; an unacknowledged one
				// left b whole or gone.
				bItems := 0
				if _, terr := re.Text("b"); terr == nil {
					if res[m+1].err == nil {
						t.Fatalf("k=%d: acked delete of b undone by the crash", k)
					}
					textIsOneOf(t, re, "b", k, seedDocB)
					bItems = 1
				}
				items, err := re.Count("load//item")
				if err != nil {
					t.Fatalf("query after reopen: %v", err)
				}
				intIsOneOf(t, "Count(load//item)", k, items, []int{2 + bItems, 3 + bItems})
				// Seed 2 + acked 1, then up to m+1 puts and one insert.
				if segs := re.Stats().Segments; segs < 2 || segs > 3+m+2 {
					t.Fatalf("k=%d: %d segments reopened, want 2..%d", k, segs, 3+m+2)
				}
				if seq, _ := re.Journal().ReplState(); seq < acked {
					t.Fatalf("k=%d: sequence reopened as %d, below the acknowledged %d", k, seq, acked)
				}
				// The reopened store accepts writes and closes cleanly.
				if err := re.Put("post-crash", []byte(newDoc)); err != nil {
					t.Fatalf("write after reopen: %v", err)
				}
				if err := re.Close(); err != nil {
					t.Fatalf("close after reopen: %v", err)
				}
			})
		}
	}
}

// TestGroupCommitPoison pins the failed-flush contract: every waiter of
// the failed batch gets the error, the batch's effects never become
// visible, later writes are refused, and Compact/CaptureSnapshot refuse
// to fold the poisoned memory state into a snapshot.
func TestGroupCommitPoison(t *testing.T) {
	boom := errors.New("disk full")
	dir := t.TempDir()
	seedCrashDir(t, dir)
	ffs := faultline.NewFaultFS(nil)
	jc := gcOpen(t, dir, 10*time.Millisecond, WithFS(ffs))
	defer jc.Close()
	preNames := jc.Names()
	ffs.FailOp(faultline.OpWrite, "journal.wal", boom, 0)

	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = jc.Put(fmt.Sprintf("poison-%d", i), []byte(newDoc))
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("waiter %d: got %v, want the injected flush error", i, err)
		}
	}
	// The failed batch is invisible: readers still see exactly the
	// pre-batch documents.
	if got := jc.Names(); !equalStrings(got, preNames) {
		t.Fatalf("failed batch leaked into reads: %v vs %v", got, preNames)
	}
	textIsOneOf(t, jc, "a", 0, seedDocA)
	if err := jc.Put("after-poison", []byte(newDoc)); err == nil {
		t.Fatal("write accepted on a poisoned shard")
	}
	if err := jc.Compact(); err == nil {
		t.Fatal("compact folded a poisoned shard into a snapshot")
	}
	if _, err := jc.CaptureSnapshot(); err == nil {
		t.Fatal("re-seed capture served a poisoned shard")
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// equivOp is one deterministic step of a worker's document history.
type equivOp struct {
	kind int // 0 put (fresh), 1 insert, 2 remove-element, 3 delete+reput
	frag string
}

// equivScript derives worker w's op sequence from a fixed seed, so the
// batched and unbatched executions replay the identical stream.
func equivScript(w, rounds int) []equivOp {
	rng := rand.New(rand.NewSource(int64(1000 + w)))
	ops := make([]equivOp, 0, rounds)
	for r := 0; r < rounds; r++ {
		switch rng.Intn(4) {
		case 0:
			ops = append(ops, equivOp{kind: 1, frag: fmt.Sprintf("<item n=\"w%dr%d\"/>", w, r)})
		case 1:
			ops = append(ops, equivOp{kind: 2})
		case 2:
			ops = append(ops, equivOp{kind: 3})
		default:
			ops = append(ops, equivOp{kind: 1, frag: fmt.Sprintf("<x v=\"%d\"/>", rng.Intn(100))})
		}
	}
	return ops
}

// applyEquivOp applies one op. All inserts and removals target offset 6,
// so the elements starting there behave as a stack; depth tracks how
// many elements remain poppable, keeping the stream deterministic and
// identical between the batched and oracle executions.
func applyEquivOp(jc *JournaledCollection, name string, op equivOp, depth *int) error {
	switch op.kind {
	case 1:
		if _, err := jc.Insert(name, 6, []byte(op.frag)); err != nil {
			return err
		}
		*depth++
	case 2:
		if *depth == 0 {
			return nil
		}
		if err := jc.RemoveElementAt(name, 6); err != nil {
			return err
		}
		*depth--
	case 3:
		if err := jc.Delete(name); err != nil {
			return err
		}
		if err := jc.Put(name, []byte(seedDocA)); err != nil {
			return err
		}
		*depth = 2
	}
	return nil
}

// TestGroupCommitEquivalence is the oracle-equivalence property: the
// same per-document op streams, run concurrently through group commit
// and serially through the record-at-a-time path, are indistinguishable
// — identical texts, names, and structural-join results at every
// checkpoint, with compaction ticking in the middle of the batched run.
func TestGroupCommitEquivalence(t *testing.T) {
	const workers = 8
	rounds := 40
	if testing.Short() {
		rounds = 10
	}

	subject := gcOpen(t, t.TempDir(), time.Millisecond)
	defer subject.Close()
	oracle, err := OpenJournaledCollection(t.TempDir(), LD, nil, WithSync())
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()

	scripts := make([][]equivOp, workers)
	sDepth := make([]int, workers)
	oDepth := make([]int, workers)
	for w := 0; w < workers; w++ {
		scripts[w] = equivScript(w, rounds)
		sDepth[w], oDepth[w] = 2, 2 // seedDocA starts with two items at the stack offset
		name := fmt.Sprintf("w%d", w)
		if err := subject.Put(name, []byte(seedDocA)); err != nil {
			t.Fatal(err)
		}
		if err := oracle.Put(name, []byte(seedDocA)); err != nil {
			t.Fatal(err)
		}
	}

	checkpoints := 4
	perCheckpoint := rounds / checkpoints
	for cp := 0; cp < checkpoints; cp++ {
		lo, hi := cp*perCheckpoint, (cp+1)*perCheckpoint
		var wg sync.WaitGroup
		workerErr := make([]error, workers)
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				name := fmt.Sprintf("w%d", w)
				for _, op := range scripts[w][lo:hi] {
					if err := applyEquivOp(subject, name, op, &sDepth[w]); err != nil {
						workerErr[w] = err
						return
					}
				}
			}()
		}
		// Maintenance ticks while the batched writers run: compaction and
		// collapse must neither deadlock with the lane nor perturb state.
		if cp == 1 {
			if err := subject.Compact(); err != nil {
				t.Fatalf("compact during batched run: %v", err)
			}
		}
		if cp == 2 {
			if _, err := subject.Collapse("w0"); err != nil {
				t.Fatalf("collapse during batched run: %v", err)
			}
		}
		wg.Wait()
		for w, err := range workerErr {
			if err != nil {
				t.Fatalf("checkpoint %d worker %d: %v", cp, w, err)
			}
		}
		// The oracle replays the same window serially, worker-major — the
		// documents are disjoint, so the end state must match exactly.
		for w := 0; w < workers; w++ {
			name := fmt.Sprintf("w%d", w)
			for _, op := range scripts[w][lo:hi] {
				if err := applyEquivOp(oracle, name, op, &oDepth[w]); err != nil {
					t.Fatalf("oracle worker %d: %v", w, err)
				}
			}
		}
		if got, want := subject.Names(), oracle.Names(); !equalStrings(got, want) {
			t.Fatalf("checkpoint %d: names diverged: %v vs %v", cp, got, want)
		}
		for w := 0; w < workers; w++ {
			name := fmt.Sprintf("w%d", w)
			st, err1 := subject.Text(name)
			ot, err2 := oracle.Text(name)
			if err1 != nil || err2 != nil {
				t.Fatalf("checkpoint %d: text(%s): %v / %v", cp, name, err1, err2)
			}
			if !bytes.Equal(st, ot) {
				t.Fatalf("checkpoint %d: doc %s diverged:\n batched: %s\n oracle:  %s", cp, name, st, ot)
			}
		}
		sn, err1 := subject.Count("load//item")
		on, err2 := oracle.Count("load//item")
		if err1 != nil || err2 != nil || sn != on {
			t.Fatalf("checkpoint %d: join results diverged: %d (%v) vs %d (%v)", cp, sn, err1, on, err2)
		}
	}
	if err := subject.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCommitLatencySoak holds a fixed arrival rate against a sweep
// of commit windows: every waiter must complete (none starved), ack
// latency stays bounded, and the lane counters account for exactly the
// ops issued.
func TestGroupCommitLatencySoak(t *testing.T) {
	if testing.Short() {
		t.Skip("latency soak skipped in -short")
	}
	const (
		writers  = 16
		interval = 4 * time.Millisecond // per-writer arrival rate
		perSweep = 10 * time.Second
		p99Bound = 1 * time.Second
	)
	for _, window := range []time.Duration{0, time.Millisecond, 5 * time.Millisecond} {
		window := window
		t.Run(fmt.Sprintf("window=%s", window), func(t *testing.T) {
			jc := gcOpen(t, t.TempDir(), window)
			defer jc.Close()
			var (
				mu   sync.Mutex
				lats []time.Duration
			)
			var issued int64
			var wg sync.WaitGroup
			deadline := time.Now().Add(perSweep)
			for w := 0; w < writers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					name := fmt.Sprintf("s%d", w)
					if err := jc.Put(name, []byte(seedDocA)); err != nil {
						t.Errorf("writer %d seed: %v", w, err)
						return
					}
					var local []time.Duration
					n := int64(1)
					for i := 0; time.Now().Before(deadline); i++ {
						start := time.Now()
						_, err := jc.Insert(name, 6, []byte(insFrag))
						lat := time.Since(start)
						if err != nil {
							t.Errorf("writer %d op %d: %v", w, i, err)
							return
						}
						local = append(local, lat)
						n++
						// Fixed arrival rate: sleep out the remainder of the
						// interval, so batching comes from overlap, not from
						// saturating the lane.
						if rest := interval - lat; rest > 0 {
							time.Sleep(rest)
						}
					}
					mu.Lock()
					lats = append(lats, local...)
					issued += n
					mu.Unlock()
				}()
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
			if len(lats) == 0 {
				t.Fatal("soak issued no ops")
			}
			p50 := lats[len(lats)*50/100]
			p99 := lats[len(lats)*99/100]
			max := lats[len(lats)-1]
			t.Logf("window=%s ops=%d p50=%s p99=%s max=%s", window, len(lats), p50, p99, max)
			if p99 > p99Bound {
				t.Fatalf("p99 ack latency %s exceeds bound %s", p99, p99Bound)
			}
			st := jc.CommitLaneStats()
			if st.Ops != issued {
				t.Fatalf("lane accounted %d ops, %d were issued — a starved or double-counted waiter", st.Ops, issued)
			}
			if st.Batches == 0 || st.MaxBatch < 1 {
				t.Fatalf("lane stats implausible after soak: %+v", st)
			}
			if err := jc.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
