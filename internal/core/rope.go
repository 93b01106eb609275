// The super-document text as a persistent rope: a path-copying treap of
// immutable byte chunks. An edit allocates O(log n) fresh nodes plus one
// copy of the inserted fragment and leaves every older root intact, so a
// published view shares the text by capturing a root pointer and the
// write path never copies the document to keep that view valid.

package core

import "io"

// ropeNode is one chunk with its subtrees. Nodes are never mutated once
// linked under a root, and chunk bytes are never written after creation:
// splitting a chunk re-slices its backing array.
type ropeNode struct {
	left, right *ropeNode
	chunk       []byte
	size        int // bytes in the whole subtree
	prio        uint32
}

// rope is a root plus the state that draws treap priorities. The state
// lives in the value, not in the package: every Store applies edits under
// its own lock, so a shared generator would race across shards. Copying a
// rope (as a view does) captures the root; only the store's copy is ever
// edited.
type rope struct {
	root *ropeNode
	rng  uint64
}

func (n *ropeNode) len() int {
	if n == nil {
		return 0
	}
	return n.size
}

func (r *rope) len() int { return r.root.len() }

// nextPrio is splitmix64, truncated.
func (r *rope) nextPrio() uint32 {
	r.rng += 0x9e3779b97f4a7c15
	z := r.rng
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return uint32((z ^ z>>31) >> 32)
}

func (r *rope) leaf(chunk []byte) *ropeNode {
	return &ropeNode{chunk: chunk, size: len(chunk), prio: r.nextPrio()}
}

// with returns a copy of n over the given subtrees.
func (n *ropeNode) with(left, right *ropeNode) *ropeNode {
	return &ropeNode{left: left, right: right, chunk: n.chunk, prio: n.prio,
		size: left.len() + len(n.chunk) + right.len()}
}

// merge concatenates two treaps, copying only the nodes on the seam.
func merge(a, b *ropeNode) *ropeNode {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	case a.prio >= b.prio:
		return a.with(a.left, merge(a.right, b))
	default:
		return b.with(merge(a, b.left), b.right)
	}
}

// split returns the first pos bytes of n and the rest. A cut inside a
// chunk re-slices it: the head keeps the node and its priority, the tail
// becomes a leaf with a priority of its own, merged in up here where no
// ancestor bounds it. (Tails that kept their parent's priority would pile
// up as an unbalanced run of equals when one large chunk is cut many
// times.)
func (r *rope) split(n *ropeNode, pos int) (*ropeNode, *ropeNode) {
	a, tail, b := n.cut(pos)
	if tail != nil {
		b = merge(r.leaf(tail), b)
	}
	return a, b
}

// cut is the structural half of split: a | tail | b is the subtree's
// text, with tail the unplaced remainder of the one chunk pos fell in.
func (n *ropeNode) cut(pos int) (a *ropeNode, tail []byte, b *ropeNode) {
	if n == nil {
		return nil, nil, nil
	}
	ll := n.left.len()
	if pos <= ll {
		a, tail, b = n.left.cut(pos)
		return a, tail, n.with(b, n.right)
	}
	at := pos - ll
	if at >= len(n.chunk) {
		a, tail, b = n.right.cut(at - len(n.chunk))
		return n.with(n.left, a), tail, b
	}
	head := &ropeNode{left: n.left, chunk: n.chunk[:at], prio: n.prio, size: pos}
	return head, n.chunk[at:], n.right
}

// insert splices a private copy of fragment in at byte offset pos.
func (r *rope) insert(pos int, fragment []byte) {
	if len(fragment) == 0 {
		return
	}
	a, b := r.split(r.root, pos)
	r.root = merge(merge(a, r.leaf(append([]byte(nil), fragment...))), b)
}

// appendOwned adds chunk at the end without copying it; the caller must
// not touch the bytes again.
func (r *rope) appendOwned(chunk []byte) {
	r.root = merge(r.root, r.leaf(chunk))
}

// remove drops the n bytes at [pos, pos+n).
func (r *rope) remove(pos, n int) {
	a, rest := r.split(r.root, pos)
	_, b := r.split(rest, n)
	r.root = merge(a, b)
}

// appendRange appends the bytes [lo, hi) to dst.
func (r *rope) appendRange(dst []byte, lo, hi int) []byte {
	r.root.visit(lo, hi, func(p []byte) bool {
		dst = append(dst, p...)
		return true
	})
	return dst
}

// bytes returns a flat copy of the whole text.
func (r *rope) bytes() []byte {
	return r.appendRange(make([]byte, 0, r.len()), 0, r.len())
}

// writeTo streams the chunks to w in order, without flattening.
func (r *rope) writeTo(w io.Writer) error {
	var err error
	r.root.visit(0, r.len(), func(p []byte) bool {
		_, err = w.Write(p)
		return err == nil
	})
	return err
}

// visit calls fn on the pieces of the subtree that cover [lo, hi), in
// order, until fn returns false.
func (n *ropeNode) visit(lo, hi int, fn func([]byte) bool) bool {
	if n == nil || lo >= hi || hi <= 0 || lo >= n.size {
		return true
	}
	ll := n.left.len()
	if !n.left.visit(lo, hi, fn) {
		return false
	}
	lo, hi = lo-ll, hi-ll
	if a, b := max(lo, 0), min(hi, len(n.chunk)); a < b && !fn(n.chunk[a:b]) {
		return false
	}
	return n.right.visit(lo-len(n.chunk), hi-len(n.chunk), fn)
}
