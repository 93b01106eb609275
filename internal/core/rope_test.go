package core

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"testing"
)

func (n *ropeNode) depth() int {
	if n == nil {
		return 0
	}
	return 1 + max(n.left.depth(), n.right.depth())
}

// checkShape verifies the size and heap-order invariants of a subtree.
func (n *ropeNode) checkShape(t testing.TB) {
	if n == nil {
		return
	}
	if len(n.chunk) == 0 {
		t.Fatalf("empty chunk in the rope")
	}
	if n.size != n.left.len()+len(n.chunk)+n.right.len() {
		t.Fatalf("node size %d, parts sum to %d", n.size, n.left.len()+len(n.chunk)+n.right.len())
	}
	for _, c := range []*ropeNode{n.left, n.right} {
		if c != nil && c.prio > n.prio {
			t.Fatalf("child priority %d above parent's %d", c.prio, n.prio)
		}
		c.checkShape(t)
	}
}

// runRopeOps is the model harness shared by the random test and the fuzz
// target: script bytes drive inserts, removes and range reads against a
// flat []byte model, and roots captured early are re-rendered at the end,
// after every later edit, to show that no edit reached them. It returns
// the number of edits applied.
func runRopeOps(t testing.TB, script []byte) int {
	var r rope
	var model []byte
	type capture struct {
		r    rope
		want []byte
		at   int
	}
	var caps []capture
	next := func() int {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return int(b)
	}
	pos := func(n int) int { return (next()<<8 | next()) % n }
	edits := 0
	for len(script) > 0 {
		switch op := next() % 8; {
		case op < 4: // insert; sizes lean small so chunks get cut often
			at := pos(len(model) + 1)
			frag := bytes.Repeat([]byte{byte('a' + edits%26)}, 1+next()%40)
			src := append([]byte(nil), frag...)
			r.insert(at, src)
			clear(src) // the rope must hold its own copy
			model = append(model[:at:at], append(frag, model[at:]...)...)
			edits++
		case op < 6: // remove
			if len(model) == 0 {
				continue
			}
			at := pos(len(model))
			n := 1 + next()%min(60, len(model)-at)
			r.remove(at, n)
			model = append(model[:at:at], model[at+n:]...)
			edits++
		case op == 6: // appendRange onto a non-empty prefix
			lo := pos(len(model) + 1)
			hi := lo + pos(len(model)-lo+1)
			if got := r.appendRange([]byte("p:"), lo, hi); string(got) != "p:"+string(model[lo:hi]) {
				t.Fatalf("appendRange(%d,%d) = %q, want %q", lo, hi, got[2:], model[lo:hi])
			}
		default: // writeTo
			var buf bytes.Buffer
			if err := r.writeTo(&buf); err != nil || !bytes.Equal(buf.Bytes(), model) {
				t.Fatalf("writeTo after %d edits: %q (%v), want %q", edits, buf.Bytes(), err, model)
			}
		}
		if r.len() != len(model) {
			t.Fatalf("len %d after %d edits, model %d", r.len(), edits, len(model))
		}
		if edits%50 == 0 && len(caps) < 40 && (len(caps) == 0 || caps[len(caps)-1].at != edits) {
			caps = append(caps, capture{r, append([]byte(nil), model...), edits})
		}
	}
	r.root.checkShape(t)
	if !bytes.Equal(r.bytes(), model) {
		t.Fatalf("final text differs from the model after %d edits", edits)
	}
	for _, c := range caps {
		if !bytes.Equal(c.r.bytes(), c.want) {
			t.Fatalf("root captured at edit %d no longer renders its own bytes after %d later edits", c.at, edits-c.at)
		}
	}
	return edits
}

// TestRopeModel drives the harness far enough that every captured root
// (the last is taken by edit 2000) is re-read after more than 10 000
// later edits.
func TestRopeModel(t *testing.T) {
	script := make([]byte, 80_000)
	rand.New(rand.NewSource(20)).Read(script)
	if edits := runRopeOps(t, script); edits < 12_000 {
		t.Fatalf("only %d edits: captured roots saw fewer than 10 000 later ones", edits)
	}
}

func FuzzRope(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 5, 4, 0, 1, 2, 6, 0, 0, 0, 3, 7})
	seed := make([]byte, 2_000)
	rand.New(rand.NewSource(21)).Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, script []byte) {
		// writeTo steps re-read the whole text: bound the script so one
		// execution stays quick.
		runRopeOps(t, script[:min(len(script), 1<<12)])
	})
}

// TestRopeDepth: 10⁵ one-byte inserts at one position — the worst case
// for a rope that balanced by position — leave the treap O(log n) deep.
func TestRopeDepth(t *testing.T) {
	var r rope
	r.insert(0, bytes.Repeat([]byte("x"), 1000))
	const n = 100_000
	for i := 0; i < n; i++ {
		r.insert(500, []byte{byte('a' + i%26)})
	}
	if r.len() != 1000+n {
		t.Fatalf("len = %d", r.len())
	}
	if d, limit := r.root.depth(), 4*bits.Len(n); d > limit {
		t.Fatalf("depth %d after %d inserts at one position, want <= %d", d, n, limit)
	}
	// Cutting one big chunk at many places must not degenerate either.
	var c rope
	c.insert(0, make([]byte, 1<<20))
	for i := 0; i < 10_000; i++ {
		c.insert((i*7919)%c.len(), []byte("<i/>"))
	}
	if d, limit := c.root.depth(), 4*bits.Len(20_000); d > limit {
		t.Fatalf("depth %d after 10 000 cuts of one chunk, want <= %d", d, limit)
	}
}

// TestRopeConcurrentStores has two stores apply updates at once, each
// with a reader re-checking views captured earlier. Under -race it
// shows that no balancing state is shared between stores and that a
// view's captured root is never written again.
func TestRopeConcurrentStores(t *testing.T) {
	var wg sync.WaitGroup
	for shard := 0; shard < 2; shard++ {
		s := NewStore(LD)
		if _, err := s.InsertSegment(0, []byte("<doc></doc>")); err != nil {
			t.Fatal(err)
		}
		type held struct {
			v    *View
			want string
		}
		views := make(chan held, 4) // a few captured views in flight between writer and reader
		wg.Add(2)
		go func() {
			defer wg.Done()
			defer close(views)
			for i := 0; i < 300; i++ {
				frag := fmt.Sprintf("<item n=\"%d\"><v>%d</v></item>", i, shard)
				if _, err := s.InsertSegment(len("<doc>"), []byte(frag)); err != nil {
					t.Error(err)
					return
				}
				if i%3 == 2 {
					if err := s.RemoveSegment(len("<doc>"), len(frag)); err != nil {
						t.Error(err)
						return
					}
				}
				if i%10 == 0 {
					text, err := s.Text()
					if err != nil {
						t.Error(err)
						return
					}
					views <- held{s.AcquireView(), string(text)}
				}
			}
		}()
		go func() {
			defer wg.Done()
			for h := range views {
				// The writer has moved on; the view's root must not have.
				if got, err := h.v.Text(); err != nil || string(got) != h.want {
					t.Errorf("held view at generation %d renders %d bytes, captured %d (%v)",
						h.v.Generation(), len(got), len(h.want), err)
				}
				h.v.Release()
			}
		}()
	}
	wg.Wait()
}
