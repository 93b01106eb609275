package maintain

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	lazyxml "repro"
)

// The oracle-equivalence property harness: a randomized op stream
// (put/delete/insert/remove-element/maintenance tick/primary toggle)
// runs against a durable 2-shard store whose controller auto-collapses
// and auto-compacts, and simultaneously against a naive oracle that is
// collapsed after every single update. At every checkpoint both stores
// must answer identically — per-document text, per-document counts,
// whole-collection counts — and pass CheckConsistency; at the end the
// durable store must reopen into the same state. Maintenance is
// correct exactly when it is invisible to every query.

const (
	oracleDocSeed = "<doc><item/><item/></doc>"
	oracleFrag    = "<x><y/></x>"
)

var oraclePaths = []string{"doc//item", "doc//x", "x//y", "doc//y"}

type oracleHarness struct {
	t      *testing.T
	r      *rand.Rand
	store  *lazyxml.ShardedCollection // the auto-compacting store under test
	oracle *lazyxml.ShardedCollection // always-collapsed reference
	names  []string
	next   int
}

func (h *oracleHarness) liveName() (string, bool) {
	if len(h.names) == 0 {
		return "", false
	}
	return h.names[h.r.Intn(len(h.names))], true
}

// fold keeps the oracle naive: collapsed back to one segment per
// document after every mutation, the state the paper's eager
// alternative would maintain.
func (h *oracleHarness) fold() {
	if err := h.oracle.CollapseAll(); err != nil {
		h.t.Fatalf("oracle collapse: %v", err)
	}
}

func (h *oracleHarness) put() {
	name := fmt.Sprintf("doc-%03d", h.next)
	h.next++
	if err := h.store.Put(name, []byte(oracleDocSeed)); err != nil {
		h.t.Fatalf("store put %s: %v", name, err)
	}
	if err := h.oracle.Put(name, []byte(oracleDocSeed)); err != nil {
		h.t.Fatalf("oracle put %s: %v", name, err)
	}
	h.names = append(h.names, name)
	h.fold()
}

func (h *oracleHarness) delete() {
	name, ok := h.liveName()
	if !ok {
		return
	}
	if err := h.store.Delete(name); err != nil {
		h.t.Fatalf("store delete %s: %v", name, err)
	}
	if err := h.oracle.Delete(name); err != nil {
		h.t.Fatalf("oracle delete %s: %v", name, err)
	}
	for i, n := range h.names {
		if n == name {
			h.names = append(h.names[:i], h.names[i+1:]...)
			break
		}
	}
	h.fold()
}

// insert adds a fragment at a random element boundary, found on the
// oracle's text — the two texts are equal by invariant, so the offset
// is valid on both sides.
func (h *oracleHarness) insert() {
	name, ok := h.liveName()
	if !ok {
		return
	}
	text, err := h.oracle.Text(name)
	if err != nil {
		h.t.Fatalf("oracle text %s: %v", name, err)
	}
	// Either right after the root's start tag or right before its end
	// tag — both are always element boundaries in a well-formed doc.
	off := bytes.IndexByte(text, '>') + 1
	if h.r.Intn(2) == 0 {
		off = bytes.LastIndex(text, []byte("</"))
	}
	if _, err := h.store.Insert(name, off, []byte(oracleFrag)); err != nil {
		h.t.Fatalf("store insert %s@%d: %v", name, off, err)
	}
	if _, err := h.oracle.Insert(name, off, []byte(oracleFrag)); err != nil {
		h.t.Fatalf("oracle insert %s@%d: %v", name, off, err)
	}
	h.fold()
}

func (h *oracleHarness) removeElement() {
	name, ok := h.liveName()
	if !ok {
		return
	}
	text, err := h.oracle.Text(name)
	if err != nil {
		h.t.Fatalf("oracle text %s: %v", name, err)
	}
	var offs []int
	for _, tag := range [][]byte{[]byte("<x>"), []byte("<item/>")} {
		for from := 0; ; {
			i := bytes.Index(text[from:], tag)
			if i < 0 {
				break
			}
			offs = append(offs, from+i)
			from += i + 1
		}
	}
	if len(offs) == 0 {
		return
	}
	off := offs[h.r.Intn(len(offs))]
	if err := h.store.RemoveElementAt(name, off); err != nil {
		h.t.Fatalf("store remove-element %s@%d: %v", name, off, err)
	}
	if err := h.oracle.RemoveElementAt(name, off); err != nil {
		h.t.Fatalf("oracle remove-element %s@%d: %v", name, off, err)
	}
	h.fold()
}

// verify is the equivalence check: text, scoped counts, global counts,
// and internal consistency on both sides.
func (h *oracleHarness) verify(stage string) {
	h.t.Helper()
	for _, name := range h.names {
		st, err := h.store.Text(name)
		if err != nil {
			h.t.Fatalf("%s: store text %s: %v", stage, name, err)
		}
		ot, err := h.oracle.Text(name)
		if err != nil {
			h.t.Fatalf("%s: oracle text %s: %v", stage, name, err)
		}
		if !bytes.Equal(st, ot) {
			h.t.Fatalf("%s: doc %s diverged:\nstore:  %s\noracle: %s", stage, name, st, ot)
		}
		for _, path := range oraclePaths {
			sn, err := h.store.CountDoc(name, path)
			if err != nil {
				h.t.Fatalf("%s: store count %s %s: %v", stage, name, path, err)
			}
			on, err := h.oracle.CountDoc(name, path)
			if err != nil {
				h.t.Fatalf("%s: oracle count %s %s: %v", stage, name, path, err)
			}
			if sn != on {
				h.t.Fatalf("%s: doc %s path %s: store %d matches, oracle %d", stage, name, path, sn, on)
			}
		}
	}
	for _, path := range oraclePaths {
		sn, err := h.store.Count(path)
		if err != nil {
			h.t.Fatalf("%s: store count %s: %v", stage, path, err)
		}
		on, err := h.oracle.Count(path)
		if err != nil {
			h.t.Fatalf("%s: oracle count %s: %v", stage, path, err)
		}
		if sn != on {
			h.t.Fatalf("%s: path %s: store %d matches, oracle %d", stage, path, sn, on)
		}
	}
	if err := h.store.CheckConsistency(); err != nil {
		h.t.Fatalf("%s: store inconsistent: %v", stage, err)
	}
	if err := h.oracle.CheckConsistency(); err != nil {
		h.t.Fatalf("%s: oracle inconsistent: %v", stage, err)
	}
}

func TestOracleEquivalenceProperty(t *testing.T) {
	for _, seed := range []int64{1, 7, 20050614} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runOracleProperty(t, seed)
		})
	}
}

func runOracleProperty(t *testing.T, seed int64) {
	dir := t.TempDir()
	sc, err := lazyxml.OpenShardedCollection(dir, 2, lazyxml.LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			sc.Close()
		}
	}()

	h := &oracleHarness{
		t:      t,
		r:      rand.New(rand.NewSource(seed)),
		store:  sc,
		oracle: lazyxml.NewCollection(lazyxml.LD),
	}

	primary := true
	ctl := New(sc, Config{
		Policy: Policy{
			SegmentsHigh: 6, SegmentsLow: 3, LogBytesHigh: 2048,
			MinActionGap: time.Nanosecond, MaxDocsPerCycle: 4,
		},
		IsPrimary: func() bool { return primary },
	})
	ctx := context.Background()
	tick := func() {
		if err := ctl.RunOnce(ctx); err != nil {
			t.Fatalf("maintenance cycle: %v", err)
		}
	}

	const ops = 300
	for i := 0; i < ops; i++ {
		switch k := h.r.Intn(100); {
		case k < 12:
			h.put()
		case k < 17:
			h.delete()
		case k < 55:
			h.insert()
		case k < 70:
			h.removeElement()
		case k < 92:
			tick()
		default:
			primary = !primary // promote/demote races the policy
		}
		if i%60 == 59 {
			h.verify(fmt.Sprintf("op %d", i))
		}
	}

	// Final state: primary, a couple of settling cycles, full check.
	primary = true
	tick()
	tick()
	h.verify("final")

	// The controller must actually have maintained, or the property
	// was vacuous: with thresholds this low a 300-op stream cannot
	// stay under them.
	snap := ctl.Snapshot()
	if snap.Cycles == 0 || snap.CollapsedDocs == 0 {
		t.Fatalf("controller never collapsed (snapshot %+v)", snap)
	}
	if snap.Compacts == 0 {
		t.Fatalf("controller never compacted (snapshot %+v)", snap)
	}
	if snap.Errors != 0 {
		t.Fatalf("controller recorded %d errors, last %q", snap.Errors, snap.LastError)
	}

	// Durability: the auto-compacted store reopens into the same state.
	if err := sc.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	closed = true
	re, err := lazyxml.OpenShardedCollection(dir, 2, lazyxml.LD, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	h.store = re
	h.verify("reopened")
	if err := re.Put("post-reopen", []byte(oracleDocSeed)); err != nil {
		t.Fatalf("write after reopen: %v", err)
	}
}
