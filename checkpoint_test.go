package lazyxml

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultline"
)

// withCheckpointBytes sets the checkpoint budget's absolute term, so a
// test reaches a checkpoint in a few kilobytes of log.
func withCheckpointBytes(n int64) JournalOption { return func(j *JournaledDB) { j.ckMin = n } }

// withCheckpointHook installs the checkpoint writer's boundary hook.
func withCheckpointHook(fn func(stage string)) JournalOption {
	return func(j *JournaledDB) { j.ckHook = fn }
}

// ckGate holds the first checkpoint writer that reaches stage until the
// test releases it.
type ckGate struct {
	stage   string
	once    sync.Once
	reached chan struct{}
	release chan struct{}
}

func newCkGate(stage string) *ckGate {
	return &ckGate{stage: stage, reached: make(chan struct{}), release: make(chan struct{})}
}

func (g *ckGate) hook(stage string) {
	if stage != g.stage {
		return
	}
	first := false
	g.once.Do(func() { first = true })
	if first {
		close(g.reached)
		<-g.release
	}
}

// held reports whether a writer is waiting at the gate.
func (g *ckGate) held() bool {
	select {
	case <-g.reached:
		return true
	default:
		return false
	}
}

func (g *ckGate) wait(t *testing.T) {
	t.Helper()
	select {
	case <-g.reached:
	case <-time.After(10 * time.Second):
		t.Fatalf("no checkpoint writer reached %q", g.stage)
	}
}

// ckFrag is the i-th fragment a checkpoint test appends, about 200 bytes.
func ckFrag(i int) []byte {
	return []byte(fmt.Sprintf(`<r n="%d">%s</r>`, i, strings.Repeat("x", 180)))
}

// snapshotSeq returns the sequence dir's snapshot.lxml covers (0 if
// there is none) and fails the test unless the whole file restores: a
// torn snapshot in place is exactly what a checkpoint must never leave.
func snapshotSeq(t *testing.T, dir string) int64 {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, snapshotName))
	if errors.Is(err, os.ErrNotExist) {
		return 0
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	br := bufio.NewReader(f)
	seq, _, err := readSnapshotHeader(br)
	if err == nil {
		_, err = Restore(br)
	}
	if err != nil {
		t.Fatalf("snapshot.lxml in place does not restore: %v", err)
	}
	return seq
}

// logBase reads the base sequence in dir's journal.wal header.
func logBase(t *testing.T, dir string) int64 {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	base, err := readLogHeader(f)
	if err != nil {
		t.Fatal(err)
	}
	return base
}

// snapshotNotBelowBase checks the directory invariant a checkpoint must
// keep under every race: the snapshot on disk covers at least the log's
// base, so the log continues it.
func snapshotNotBelowBase(t *testing.T, dir string) int64 {
	t.Helper()
	seq, base := snapshotSeq(t, dir), logBase(t, dir)
	if seq < base {
		t.Fatalf("snapshot.lxml covers %d, below journal.wal's base %d", seq, base)
	}
	return seq
}

// sameText fails unless got's text equals want's.
func sameText(t *testing.T, what string, got, want *DB) {
	t.Helper()
	g, err := got.Text()
	if err != nil {
		t.Fatal(err)
	}
	w, _ := want.Text()
	if string(g) != string(w) {
		t.Fatalf("%s: %d bytes of text, want %d (the acknowledged state)", what, len(g), len(w))
	}
	if err := got.CheckConsistency(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// waitCheckpoints waits until j has renamed n checkpoints into place.
func waitCheckpoints(t *testing.T, j *JournaledDB, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if w, _, _ := j.checkpointStats(); w >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("fewer than %d checkpoints written", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCheckpointBoundsReplay: with a 4 KiB budget, 400 appends leave
// snapshots behind without any Compact, the log is never cut (the
// horizon stays at 0 and every record is still in the file), and a
// reopen applies exactly the records above the newest snapshot, counts
// their bytes toward its next budget and shows every append.
func TestCheckpointBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	const budget = 4 << 10
	j, err := OpenJournal(dir, LD, nil, withCheckpointBytes(budget))
	if err != nil {
		t.Fatal(err)
	}
	model := Open(LD)
	for i := 0; i < 400; i++ {
		if _, err := j.Append(ckFrag(i)); err != nil {
			t.Fatal(err)
		}
		model.Append(ckFrag(i))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	written, failed, _ := j.checkpointStats()
	if written == 0 || failed != 0 {
		t.Fatalf("checkpoints: %d written, %d failed; want some written and none failed", written, failed)
	}
	seq, horizon := j.ReplState()
	if records, _ := j.footprint(); horizon != 0 || records != seq {
		t.Fatalf("the log was cut: horizon %d, %d records for sequence %d", horizon, records, seq)
	}
	covered := snapshotSeq(t, dir)
	if covered <= 0 || covered > seq {
		t.Fatalf("snapshot covers %d of %d records", covered, seq)
	}

	// The bytes of the records above the snapshot, read off the log.
	f, err := os.Open(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(f)
	if _, err := readLogHeader(br); err != nil {
		t.Fatal(err)
	}
	var above int64
	for n := int64(1); ; n++ {
		_, enc, err := readUnit(br)
		if err != nil {
			break
		}
		if n > covered {
			above += int64(len(enc))
		}
	}
	f.Close()

	re, err := OpenJournal(dir, LD, nil, withCheckpointBytes(budget))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, _, replayed := re.checkpointStats(); replayed != above {
		t.Fatalf("reopen replayed %d bytes, want the %d above the snapshot's sequence %d", replayed, above, covered)
	}
	re.mu.Lock()
	logged := re.logged
	re.mu.Unlock()
	if logged != above {
		t.Fatalf("the next budget starts from %d bytes, want the %d replayed", logged, above)
	}
	if s, _ := re.ReplState(); s != seq {
		t.Fatalf("reopened at sequence %d, want %d", s, seq)
	}
	sameText(t, "reopened", re.DB, model)
}

// TestCorruptRecordBelowSnapshot pins what a reopen does with a damaged
// record that the snapshot already covers: the clean log ends there, as
// at any corrupt record, and since it ends below the snapshot's sequence
// the log is replaced by an empty one based at that sequence. The store
// is the snapshot's, the records above it are dropped with the rest of
// the log, and nothing is replayed.
func TestCorruptRecordBelowSnapshot(t *testing.T) {
	dir := t.TempDir()
	const budget = 4 << 10
	j, err := OpenJournal(dir, LD, nil, withCheckpointBytes(budget))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		if _, err := j.Append(ckFrag(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	seq, _ := j.ReplState()
	covered := snapshotSeq(t, dir)
	if covered < 2 || covered >= seq {
		t.Fatalf("snapshot covers %d of %d records; want some records on each side", covered, seq)
	}
	// Flip a fragment byte of the second record.
	path := filepath.Join(dir, journalName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	at := logHeaderLen + len(encodeUnit([]core.Op{{Kind: core.OpInsert, GP: 0, Frag: ckFrag(0)}})) + 20
	raw[at] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := OpenJournal(dir, LD, nil, withCheckpointBytes(budget))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	model := Open(LD)
	for i := 0; i < int(covered); i++ {
		model.Append(ckFrag(i))
	}
	sameText(t, "reopened over a corrupt covered record", re.DB, model)
	if s, horizon := re.ReplState(); s != covered || horizon != covered {
		t.Fatalf("reopened at sequence %d with horizon %d, want both at the snapshot's %d", s, horizon, covered)
	}
	if _, _, replayed := re.checkpointStats(); replayed != 0 {
		t.Fatalf("reopen replayed %d bytes, want none", replayed)
	}
	if base := logBase(t, dir); base != covered {
		t.Fatalf("journal.wal is based at %d, want %d", base, covered)
	}
}

// TestCheckpointCrashCells crashes the filesystem at each boundary of a
// checkpoint's write — the temp file's create, its first write, its
// fsync, the rename, the directory fsync, and after the checkpoint is
// in place — with acknowledged appends landing while the writer is held
// at that boundary. In one column the crash hits the checkpoint, in the
// other a further append (which is then not acknowledged). Dropped and
// torn writes both. Every cell must reopen to exactly the acknowledged
// appends, with the snapshot on disk whole and not below the log's base.
func TestCheckpointCrashCells(t *testing.T) {
	cells := []struct {
		stage string // where the writer is held; "" = let it finish
		nth   int64  // the crash hits the writer's nth mutating op from there
	}{
		{"create", 1}, // Create of the temp file
		{"create", 2}, // its first write
		{"sync", 1},   // its fsync
		{"rename", 1}, // the rename into place
		{"syncdir", 1},
		{"", 1},
	}
	for _, torn := range []bool{false, true} {
		for _, cell := range cells {
			for _, victim := range []string{"checkpoint", "append"} {
				if victim == "append" && cell.nth > 1 || cell.stage == "" && victim == "checkpoint" {
					continue
				}
				name := fmt.Sprintf("torn=%v/%s+%d/%s", torn, cell.stage, cell.nth, victim)
				if cell.stage == "" {
					name = fmt.Sprintf("torn=%v/after/append", torn)
				}
				t.Run(name, func(t *testing.T) {
					dir := t.TempDir()
					ffs := faultline.NewFaultFS(nil)
					if torn {
						ffs.TornWrites()
					}
					g := newCkGate(cell.stage)
					j, err := OpenJournal(dir, LD, nil, WithFS(ffs), WithSync(),
						withCheckpointBytes(2<<10), withCheckpointHook(g.hook))
					if err != nil {
						t.Fatal(err)
					}
					model := Open(LD)
					appendAcked := func(i int) error {
						_, err := j.Append(ckFrag(i))
						if err == nil {
							model.Append(ckFrag(i))
						}
						return err
					}
					i := 0
					for ; i < 200 && !g.held(); i++ {
						if err := appendAcked(i); err != nil {
							t.Fatal(err)
						}
						if cell.stage == "" {
							if w, _, _ := j.checkpointStats(); w > 0 {
								break
							}
						}
					}
					if cell.stage != "" {
						g.wait(t)
					} else {
						waitCheckpoints(t, j, 1)
					}
					// Appends land while the writer is held.
					for k := 0; k < 3; k++ {
						if err := appendAcked(i + 1 + k); err != nil {
							t.Fatal(err)
						}
					}
					if victim == "checkpoint" {
						ffs.CrashAfter(ffs.Mutations() + cell.nth)
					} else {
						// The append's record write is the crash.
						ffs.CrashAfter(ffs.Mutations() + 1)
						if err := appendAcked(1000); err == nil {
							t.Fatal("append acknowledged on a crashed filesystem")
						}
					}
					if cell.stage != "" {
						close(g.release)
					}
					j.Close() // waits for the writer; errors after the crash are expected

					re, err := OpenJournal(dir, LD, nil)
					if err != nil {
						t.Fatalf("reopen: %v", err)
					}
					defer re.Close()
					sameText(t, "reopened after the crash", re.DB, model)
					snapshotNotBelowBase(t, dir)
					if _, err := re.Append(ckFrag(2000)); err != nil {
						t.Fatalf("write after reopen: %v", err)
					}
				})
			}
		}
	}
}

// TestCheckpointRaces: a checkpoint held at a boundary while Compact,
// Close or a re-seed runs never leaves a snapshot older than the log's
// base, and the directory reopens to everything acknowledged.
func TestCheckpointRaces(t *testing.T) {
	// fill appends until a checkpoint writer is held at g's stage.
	fill := func(t *testing.T, j *JournaledDB, model *DB, g *ckGate) int {
		t.Helper()
		i := 0
		for ; i < 200 && !g.held(); i++ {
			if _, err := j.Append(ckFrag(i)); err != nil {
				t.Fatal(err)
			}
			model.Append(ckFrag(i))
		}
		g.wait(t)
		return i
	}
	for _, stage := range []string{"create", "sync", "rename"} {
		t.Run("compact-at-"+stage, func(t *testing.T) {
			dir := t.TempDir()
			g := newCkGate(stage)
			j, err := OpenJournal(dir, LD, nil, WithSync(), withCheckpointBytes(2<<10), withCheckpointHook(g.hook))
			if err != nil {
				t.Fatal(err)
			}
			model := Open(LD)
			i := fill(t, j, model, g)
			if _, err := j.Append(ckFrag(i)); err != nil {
				t.Fatal(err)
			}
			model.Append(ckFrag(i))
			if err := j.Compact(); err != nil {
				t.Fatal(err)
			}
			compacted, _ := j.ReplState()
			close(g.release)
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			if got := snapshotNotBelowBase(t, dir); got != compacted {
				t.Fatalf("snapshot covers %d, want Compact's %d: the older checkpoint replaced it", got, compacted)
			}
			if written, _, _ := j.checkpointStats(); written != 0 {
				t.Fatalf("%d checkpoints renamed over a newer Compact", written)
			}
			re, err := OpenJournal(dir, LD, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			sameText(t, "reopened", re.DB, model)
		})
	}
	t.Run("close-waits", func(t *testing.T) {
		dir := t.TempDir()
		g := newCkGate("sync")
		j, err := OpenJournal(dir, LD, nil, WithSync(), withCheckpointBytes(2<<10), withCheckpointHook(g.hook))
		if err != nil {
			t.Fatal(err)
		}
		model := Open(LD)
		fill(t, j, model, g)
		closed := make(chan error, 1)
		go func() { closed <- j.Close() }()
		select {
		case err := <-closed:
			t.Fatalf("Close returned (%v) while the checkpoint writer was still running", err)
		case <-time.After(50 * time.Millisecond):
		}
		close(g.release)
		if err := <-closed; err != nil {
			t.Fatal(err)
		}
		if snapshotNotBelowBase(t, dir) <= 0 {
			t.Fatal("the checkpoint Close waited for is not in place")
		}
		re, err := OpenJournal(dir, LD, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		sameText(t, "reopened", re.DB, model)
	})
	t.Run("reseed", func(t *testing.T) {
		src, err := OpenShardedCollection(t.TempDir(), 1, LD, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		for i := 0; i < 300; i++ {
			if err := src.Put(fmt.Sprintf("src-%d", i), []byte("<s/>")); err != nil {
				t.Fatal(err)
			}
		}
		snap, err := src.CaptureShardSnapshot(0)
		if err != nil {
			t.Fatal(err)
		}

		dir := t.TempDir()
		g := newCkGate("rename")
		dst, err := OpenShardedCollection(dir, 1, LD, nil, WithSync(), withCheckpointBytes(2<<10), withCheckpointHook(g.hook))
		if err != nil {
			t.Fatal(err)
		}
		defer dst.Close()
		for i := 0; i < 200 && !g.held(); i++ {
			if err := dst.Put(fmt.Sprintf("dst-%d", i), ckFrag(i)); err != nil {
				t.Fatal(err)
			}
		}
		g.wait(t)
		installed := make(chan error, 1)
		go func() { installed <- dst.InstallReseed(0, snap) }()
		time.Sleep(20 * time.Millisecond)
		close(g.release)
		if err := <-installed; err != nil {
			t.Fatal(err)
		}
		if got := snapshotNotBelowBase(t, dir); got != snap.Seq {
			t.Fatalf("re-seeded shard's snapshot covers %d, want the re-seed's %d", got, snap.Seq)
		}
		if got, want := dst.Names(), src.Names(); !equalStrings(got, want) {
			t.Fatalf("re-seeded shard holds %d names, want %d", len(got), len(want))
		}
	})
}

// TestCheckpointExcludesPoisonedBatch: a checkpoint captured before a
// group-commit batch is poisoned, and one due after it, never put the
// poisoned batch's documents into snapshot.lxml.
func TestCheckpointExcludesPoisonedBatch(t *testing.T) {
	boom := errors.New("disk full")
	dir := t.TempDir()
	ffs := faultline.NewFaultFS(nil)
	g := newCkGate("create")
	jc := gcOpen(t, dir, time.Millisecond, WithFS(ffs), withCheckpointBytes(2<<10), withCheckpointHook(g.hook))
	var acked []string
	for i := 0; i < 200 && !g.held(); i++ {
		name := fmt.Sprintf("ok-%03d", i)
		if err := jc.Put(name, ckFrag(i)); err != nil {
			t.Fatal(err)
		}
		acked = append(acked, name)
	}
	g.wait(t)
	// The held writer's view is the pre-poison store. Poison a batch that
	// by itself is over the budget.
	ffs.FailOp(faultline.OpWrite, "journal.wal", boom, 0)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := jc.Put(fmt.Sprintf("poison-%d", i), ckFrag(i)); err == nil {
				t.Error("a write in the poisoned batch was acknowledged")
			}
		}()
	}
	wg.Wait()
	close(g.release)
	jc.Close()

	f, err := os.Open(filepath.Join(dir, snapshotName))
	if err != nil {
		t.Fatalf("the pre-poison checkpoint is not in place: %v", err)
	}
	_, docs, err := readSnapshotHeader(bufio.NewReader(f))
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	for name := range docs {
		if strings.HasPrefix(name, "poison-") {
			t.Fatalf("snapshot.lxml holds %q from the poisoned batch", name)
		}
	}
	re, err := OpenShardedCollection(dir, 1, LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Names(); !equalStrings(got, acked) {
		t.Fatalf("reopened with %d names, want the %d acknowledged", len(got), len(acked))
	}
}

// TestCheckpointTwoBackendsOneDir: a killed daemon's backend is still
// running — its checkpoint writer held mid-write — when its successor
// opens the same directory, checkpoints on its own, and takes writes.
// Neither renames the other's temp file, so whatever snapshot ends in
// place is whole, and a third open shows every write.
func TestCheckpointTwoBackendsOneDir(t *testing.T) {
	for _, stage := range []string{"create", "sync", "rename"} {
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			g := newCkGate(stage)
			a, err := OpenJournal(dir, LD, nil, WithSync(), withCheckpointBytes(2<<10), withCheckpointHook(g.hook))
			if err != nil {
				t.Fatal(err)
			}
			model := Open(LD)
			for i := 0; i < 200 && !g.held(); i++ {
				if _, err := a.Append(ckFrag(i)); err != nil {
					t.Fatal(err)
				}
				model.Append(ckFrag(i))
			}
			g.wait(t)

			// a is abandoned: no more writes through it.
			b, err := OpenJournal(dir, LD, nil, WithSync(), withCheckpointBytes(2<<10))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 60; i++ {
				if _, err := b.Append(ckFrag(500 + i)); err != nil {
					t.Fatal(err)
				}
				model.Append(ckFrag(500 + i))
			}
			waitCheckpoints(t, b, 1)
			close(g.release)
			a.Close()
			snapshotNotBelowBase(t, dir)
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			snapshotNotBelowBase(t, dir)

			re, err := OpenJournal(dir, LD, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			sameText(t, "third open", re.DB, model)
			entries, _ := os.ReadDir(dir)
			for _, e := range entries {
				if strings.HasSuffix(e.Name(), ".tmp") {
					t.Fatalf("temp file %s left after a clean open", e.Name())
				}
			}
		})
	}
}

// BenchmarkCheckpointWriteWait prices what a checkpoint costs writers on a
// one-shard store of 16 documents totalling 1, 4 and 16 MB. Each
// iteration makes a checkpoint due and times the write that starts it —
// its commit plus the capture under the write lock, a sequence and a
// view — as capture_us, then times writes one after another while the
// writer serializes that view, until it is done: their median is wait_us
// and their 99th percentile wait_p99_us. A write inserts a small element or removes
// it again, so the segment count, which an update's cost depends on,
// stays the same at every size. The serialize holds no lock, so all three
// should stay flat as the store grows while ns/op (the writer's whole
// run) grows with it.
func BenchmarkCheckpointWriteWait(b *testing.B) {
	for _, mb := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("%dMB", mb), func(b *testing.B) {
			j, err := OpenJournal(b.TempDir(), LD, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer j.Close()
			const docs, open = 16, len("<doc>")
			item := "<p>" + strings.Repeat("x", 120) + "</p>"
			doc := []byte("<doc>" + strings.Repeat(item, (mb<<20)/docs/len(item)) + "</doc>")
			for d := 0; d < docs; d++ {
				if _, err := j.Append(doc); err != nil {
					b.Fatal(err)
				}
			}
			// Loading the documents may have started checkpoints of its own.
			j.mu.Lock()
			loading := j.ckDone
			j.mu.Unlock()
			if loading != nil {
				<-loading
			}
			before, _, _ := j.checkpointStats()
			// Every write inserts <w/> just inside the first document or
			// removes it again, so the store is the same size throughout.
			frag := []byte("<w/>")
			inserted := false
			write := func() {
				var err error
				if inserted {
					err = j.Remove(open, len(frag))
				} else {
					_, err = j.Insert(open, frag)
				}
				if err != nil {
					b.Fatal(err)
				}
				inserted = !inserted
			}
			var capture time.Duration
			var waits []time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j.mu.Lock()
				j.logged = j.checkpointBudget() + 1
				j.mu.Unlock()
				start := time.Now()
				write()
				capture += time.Since(start)
				j.mu.Lock()
				done := j.ckDone
				j.mu.Unlock()
			during:
				for {
					select {
					case <-done:
						break during
					default:
					}
					start := time.Now()
					write()
					waits = append(waits, time.Since(start))
				}
			}
			b.StopTimer()
			if w, failed, _ := j.checkpointStats(); w-before != int64(b.N) || failed != 0 {
				b.Fatalf("%d checkpoints written, %d failed, over %d iterations", w-before, failed, b.N)
			}
			slices.Sort(waits)
			b.ReportMetric(float64(capture.Microseconds())/float64(b.N), "capture_us")
			if len(waits) > 0 {
				b.ReportMetric(float64(waits[len(waits)/2].Nanoseconds())/1e3, "wait_us")
				b.ReportMetric(float64(waits[len(waits)*99/100].Nanoseconds())/1e3, "wait_p99_us")
			}
		})
	}
}
