// Package segment implements the update log's segment layer: the SB-tree
// (Segment B+-tree) whose leaf level forms the ER-tree (sEgment
// Relationship tree) of Catania et al., SIGMOD 2005, together with the
// segment insertion algorithm of Figure 5 and the segment removal
// algorithm of Figure 7.
//
// A segment is a contiguous range of the super document that was inserted
// by one update operation. Each segment s carries:
//
//   - an offset from its parent's first character (mutable: it moves
//     only when text is inserted or removed before s inside the same
//     parent); its global position s.GP() — the offset of its first
//     character in the super document — is the sum of the offsets on its
//     path from the dummy root;
//   - a length s.L (mutable: grows when descendants are inserted, shrinks
//     when parts are removed);
//   - a local position s.LP: its offset inside its parent segment's
//     ORIGINAL text, immutable once assigned (Definition 2 of the paper).
//
// Because positions are parent-relative, Figure 5's step 1 (shift every
// later segment) touches only the later siblings at each level of the
// insertion point's path, and a removal likewise: an update never walks
// into a subtree it does not cut. A read-only clone (Tree.Clone, what a
// view holds) caches each segment's absolute position as it copies, so
// readers there take GP in O(1); on the live tree GP walks the parents.
//
// # Coordinate systems
//
// Element labels and child local positions are expressed in a segment's
// original coordinates: offsets into the text the segment had at the
// moment it was inserted. The paper's laziness guarantee is precisely
// that these labels are never rewritten. Two kinds of later updates
// change the segment's actual text without touching labels:
//
//   - descendant segment insertions add foreign text; original
//     coordinates simply skip it (child segments occupy a single point —
//     their LP — in the parent's original coordinate space);
//   - partial deletions (the intersection cases of Figure 7) remove some
//     of the segment's own text; the removed original ranges are recorded
//     as tombstones so that original coordinates can still be mapped to
//     current global positions.
//
// The paper does not spell out the second case; tombstones are the
// minimal bookkeeping that keeps all stored labels valid without ever
// rewriting them.
package segment

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// SID is a segment identifier, generated by the system at insert time.
// The dummy root of the super document always has SID 0.
type SID int64

// RootSID is the SID of the dummy root segment.
const RootSID SID = 0

// Segment is a node of the ER-tree and a leaf value of the SB-tree.
type Segment struct {
	SID SID
	L   int // current length in characters
	LP  int // local position in the parent's original coordinates (immutable)

	// off is the offset of the segment's first character from its
	// parent's first character (the dummy root's is 0).
	off int
	// gp is the global position cached by a read-only clone; -1 on the
	// live tree, whose GP sums the offsets up the parents.
	gp int

	Parent   *Segment
	Children []*Segment // sorted by position, pairwise disjoint

	// path is the sid chain from the dummy root to this segment,
	// inclusive. Immutable (an ancestor can only be deleted together
	// with all its descendants).
	path []SID

	// tombs are the removed ranges of this segment's own text, in
	// original coordinates, sorted and non-overlapping.
	tombs []Range
}

// Range is a half-open interval [Start, End).
type Range struct{ Start, End int }

// Len returns End-Start.
func (r Range) Len() int { return r.End - r.Start }

// Path returns the sid chain from the dummy root to s, inclusive.
// The returned slice must not be modified.
func (s *Segment) Path() []SID { return s.path }

// GP returns the global position of s: the offset of its first character
// in the super document. It is O(1) on a clone and O(depth) on the live
// tree.
func (s *Segment) GP() int {
	if s.gp >= 0 {
		return s.gp
	}
	return s.walkGP()
}

// walkGP sums the parent-relative offsets from s up to the dummy root.
func (s *Segment) walkGP() int {
	gp := 0
	for ; s != nil; s = s.Parent {
		gp += s.off
	}
	return gp
}

// End returns s.GP() + s.L, one past the last character of the segment.
func (s *Segment) End() int { return s.GP() + s.L }

// Contains reports whether s strictly contains t (Definition 1).
func (s *Segment) Contains(t *Segment) bool {
	return s.GP() < t.GP() && s.End() > t.End()
}

// Tombstones returns the removed original-coordinate ranges of s's own
// text. The returned slice must not be modified.
func (s *Segment) Tombstones() []Range { return s.tombs }

// Tree is the SB-tree: an index from SID to the ER-tree nodes. The
// paper's SB-tree is an on-disk B+-tree; here nothing reads SIDs in
// order (Encode and Validate walk the ER-tree), so the index is a hash
// map. It is not a table indexed by SID: SIDs are never reused, so such
// a table would grow with every insert ever made. The dummy root
// represents the whole super document.
type Tree struct {
	byID    map[SID]*Segment
	root    *Segment
	nextSID SID
}

// Errors returned by update operations.
var (
	ErrOutOfBounds   = errors.New("segment: position outside the super document")
	ErrEmptySegment  = errors.New("segment: segment length must be positive")
	ErrUnknownSID    = errors.New("segment: unknown segment id")
	ErrRangeMismatch = errors.New("segment: removal range exceeds the super document")
)

// NewTree returns an SB-tree holding only the dummy root (an empty super
// document).
func NewTree() *Tree {
	root := &Segment{SID: RootSID, gp: -1, path: []SID{RootSID}}
	return &Tree{
		byID:    map[SID]*Segment{RootSID: root},
		root:    root,
		nextSID: 1,
	}
}

// NextSID returns the id the next Insert will assign. Ids are handed out
// in order and never reused, so a replay from the same state reuses them.
func (t *Tree) NextSID() SID { return t.nextSID }

// Root returns the dummy root segment.
func (t *Tree) Root() *Segment { return t.root }

// Clone returns a read-only deep copy of the SB-tree/ER-tree that shares
// no mutable state with the original: segment nodes and their tombstone
// slices are copied (Insert moves offsets and Remove merges tombstones in
// place), while the immutable sid-path slices are shared. Each copied
// segment caches its global position, so GP costs O(1) on the clone. The
// clone is what a published read view holds, so updates to the live tree
// never reach it; it must not be updated itself, since an update would
// leave the cached positions stale.
func (t *Tree) Clone() *Tree {
	nt := &Tree{byID: make(map[SID]*Segment, len(t.byID)), nextSID: t.nextSID}
	nt.root = cloneSeg(t.root, nil, t.root.off, nt.byID)
	return nt
}

// cloneSeg copies the subtree at s, whose global position is gp.
func cloneSeg(s *Segment, parent *Segment, gp int, byID map[SID]*Segment) *Segment {
	ns := &Segment{
		SID:    s.SID,
		L:      s.L,
		LP:     s.LP,
		off:    s.off,
		gp:     gp,
		Parent: parent,
		path:   s.path,
	}
	if len(s.tombs) > 0 {
		ns.tombs = append([]Range(nil), s.tombs...)
	}
	if len(s.Children) > 0 {
		ns.Children = make([]*Segment, len(s.Children))
		for i, c := range s.Children {
			ns.Children[i] = cloneSeg(c, ns, gp+c.off, byID)
		}
	}
	byID[ns.SID] = ns
	return ns
}

// TotalLen returns the length of the super document in characters.
func (t *Tree) TotalLen() int { return t.root.L }

// NumSegments returns the number of segments including the dummy root.
func (t *Tree) NumSegments() int { return len(t.byID) }

// Lookup returns the segment with the given sid.
func (t *Tree) Lookup(sid SID) (*Segment, bool) {
	s, ok := t.byID[sid]
	return s, ok
}

// Walk visits every segment in ER-tree preorder (root first, children in
// global-position order) until fn returns false.
func (t *Tree) Walk(fn func(*Segment) bool) { walkSeg(t.root, fn) }

func walkSeg(s *Segment, fn func(*Segment) bool) bool {
	if !fn(s) {
		return false
	}
	for _, c := range s.Children {
		if !walkSeg(c, fn) {
			return false
		}
	}
	return true
}

// SubtreeSize returns the number of segments in the ER-subtree rooted at
// sid (the segment itself plus every descendant) — the per-document form
// of the §5.3 segment-count signal.
func (t *Tree) SubtreeSize(sid SID) (int, bool) {
	s, ok := t.byID[sid]
	if !ok {
		return 0, false
	}
	return subtreeSize(s), true
}

func subtreeSize(s *Segment) int {
	n := 1
	for _, c := range s.Children {
		n += subtreeSize(c)
	}
	return n
}

// Insert records the insertion of a new segment of length l at global
// position gp, following Figure 5 of the paper: the ER-tree is descended
// to find the direct parent, positions at or after gp move right by l, the
// new node's local position is computed per Definition 2, and the node is
// added to both the ER-tree and the SB-tree. Positions being
// parent-relative, step 1 (the shift) changes only the lengths of the
// segments on the descent and the offsets of their later children: a
// later child moves with its whole subtree by changing one offset.
//
// It returns the newly created segment (whose Path is the tag-list path
// of the paper).
func (t *Tree) Insert(gp, l int) (*Segment, error) {
	if l <= 0 {
		return nil, ErrEmptySegment
	}
	if gp < 0 || gp > t.root.L {
		return nil, fmt.Errorf("%w: insert at %d, document length %d", ErrOutOfBounds, gp, t.root.L)
	}
	// Steps 1 and 2 (AddNewSegment_Start, AddNewSegment): descend to the
	// direct parent. A child k is an ancestor of the new segment iff the
	// insertion point lies strictly inside k's span before k's length is
	// grown. Every child starting at or after the insertion point moves
	// right past the inserted text. (The paper writes m.gp > new.gp;
	// at-or-after is required so that an existing segment starting
	// exactly at gp moves right.) Children ending at or before the point
	// are skipped by one binary search; of the rest at most the first
	// straddles it.
	cur, rel := t.root, gp
	for {
		cur.L += l
		var next *Segment
		i := sort.Search(len(cur.Children), func(i int) bool {
			c := cur.Children[i]
			return c.off+c.L > rel
		})
		for _, c := range cur.Children[i:] {
			if c.off >= rel {
				c.off += l
			} else {
				next = c
			}
		}
		if next == nil {
			break
		}
		cur, rel = next, rel-next.off
	}
	// cur is the direct parent. Insert into its child list, keeping
	// position order. (With pure text insertion no existing segment can
	// end up inside the new one — the new text is foreign — so nothing is
	// adopted.)
	newSeg := &Segment{SID: t.nextSID, L: l, off: rel, gp: -1, Parent: cur}
	t.nextSID++
	idx := sort.Search(len(cur.Children), func(i int) bool { return cur.Children[i].off >= rel })
	cur.Children = slices.Insert(cur.Children, idx, newSeg)

	// Definition 2: lp = gp - parent.gp - sum of left-sibling lengths,
	// then converted from the parent's current own coordinates to its
	// original coordinates by re-adding tombstoned text before the point.
	lengthSum := 0
	for _, sib := range cur.Children[:idx] {
		lengthSum += sib.L
	}
	newSeg.LP = cur.curToOrig(rel - lengthSum)

	newSeg.path = append(append([]SID(nil), cur.path...), newSeg.SID)
	t.byID[newSeg.SID] = newSeg
	return newSeg, nil
}

// Locate returns the segment whose own text holds global position gp —
// the deepest segment spanning it; a child that starts exactly at gp
// owns it, gp being the first byte of that segment's root element — and
// gp's offset in that segment's original coordinates, the coordinate
// system of the element index. ok is false outside the super document.
func (t *Tree) Locate(gp int) (s *Segment, orig int, ok bool) {
	if gp < 0 || gp >= t.root.L {
		return nil, 0, false
	}
	s, rel := t.root, gp
	for {
		i := sort.Search(len(s.Children), func(i int) bool { return s.Children[i].off > rel })
		if i == 0 || rel >= s.Children[i-1].off+s.Children[i-1].L {
			return s, s.toOrig(rel), true
		}
		s = s.Children[i-1]
		rel -= s.off
	}
}

// RemovedPart identifies a surviving segment that lost part of its own
// text: [Start, End) is the removed range in the segment's original
// coordinates. The element index uses it to delete exactly the element
// records whose labels fall inside the range.
type RemovedPart struct {
	SID        SID
	Start, End int
}

// RemoveReport describes the effect of a Remove call.
type RemoveReport struct {
	// Deleted lists segments that were entirely contained in the removed
	// range and dropped from the SB-tree, in ER-tree preorder.
	Deleted []SID
	// Affected lists surviving segments that lost part of their own text
	// (the "contained in k" and intersection cases of Figure 7).
	Affected []RemovedPart
}

// Remove records the removal of the text range [gp, gp+l) from the super
// document, following Figure 7 of the paper: segments after the range
// shift left, segments inside the range are deleted from the SB-tree,
// and segments containing or intersecting the range shrink (recording a
// tombstone for the removed original-coordinate range). Only the
// segments the range cuts are visited, with their children: a later
// child shifts with its subtree by changing its offset.
func (t *Tree) Remove(gp, l int) (*RemoveReport, error) {
	if l <= 0 {
		return nil, ErrEmptySegment
	}
	if gp < 0 || gp+l > t.root.L {
		return nil, fmt.Errorf("%w: remove [%d,%d), document length %d",
			ErrRangeMismatch, gp, gp+l, t.root.L)
	}
	rep := &RemoveReport{}
	t.removeRec(t.root, 0, 0, gp, gp+l, rep)
	return rep, nil
}

// removeRec applies the Figure 7 case analysis to s, whose global
// position is sGP before the removal and newGP after it, and recurses
// into the children that overlap the removed global range [rs, re),
// re-anchoring the offsets of the children it keeps on s's new position.
// Precondition: s overlaps [rs, re) or is the root, and s is not fully
// contained in it.
func (t *Tree) removeRec(s *Segment, sGP, newGP, rs, re int, rep *RemoveReport) {
	// Overlap of the removed range with s's span, in global coordinates.
	ovStart := max(sGP, rs)
	ovEnd := min(sGP+s.L, re)

	// Determine which part of the overlap is s's *own* text (not covered
	// by child segments): that part becomes a tombstone and is reported
	// for element-index cleanup. We convert the overlap bounds to s's
	// original coordinates; children fully inside the overlap contribute
	// no own text and are deleted wholesale.
	if ovEnd > ovStart {
		la := s.toOrig(ovStart - sGP)
		lb := s.toOrig(ovEnd - sGP)
		if lb > la {
			s.addTombstone(Range{la, lb})
			rep.Affected = append(rep.Affected, RemovedPart{SID: s.SID, Start: la, End: lb})
		}
		s.L -= ovEnd - ovStart
	}

	// Children entirely before the range keep their offsets: s moves
	// only when the range starts at or before it, and then s has no
	// child before the range. Of the rest, delete the contained ones,
	// recurse into intersecting ones and shift the ones past the range.
	first := sort.Search(len(s.Children), func(i int) bool {
		c := s.Children[i]
		return sGP+c.off+c.L > rs
	})
	kept := s.Children[:first]
	for _, k := range s.Children[first:] {
		kGP := sGP + k.off
		switch {
		case kGP >= re:
			// Entirely after: shift left, with its whole subtree.
			k.off = kGP - (re - rs) - newGP
			kept = append(kept, k)
		case kGP >= rs && kGP+k.L <= re:
			// Contained in the removed range: drop k and its subtree
			// from the SB-tree (Figure 7 lines 6-9).
			t.dropSubtree(k, rep)
		default:
			// Intersection or k contains the range: k survives smaller.
			// A right-intersected k's surviving suffix now starts where
			// the removed range started.
			kNew := kGP
			if kGP >= rs {
				kNew = rs
			}
			t.removeRec(k, kGP, kNew, rs, re, rep)
			k.off = kNew - newGP
			kept = append(kept, k)
		}
	}
	// Zero the abandoned tail so dropped segments can be collected.
	clear(s.Children[len(kept):])
	s.Children = kept
}

// dropSubtree removes s and all its descendants from the SB-tree,
// recording them in the report in preorder.
func (t *Tree) dropSubtree(s *Segment, rep *RemoveReport) {
	rep.Deleted = append(rep.Deleted, s.SID)
	delete(t.byID, s.SID)
	for _, c := range s.Children {
		t.dropSubtree(c, rep)
	}
	s.Parent = nil
	s.Children = nil
}

// --- coordinate mappings ---

// toOrig maps an offset rel from s's first character (0 <= rel <= s.L,
// taken before s's own length is updated for the current removal) to s's
// original coordinates: it collapses child-segment text and re-inflates
// tombstoned own text.
func (s *Segment) toOrig(rel int) int {
	cur := rel
	for _, c := range s.Children {
		cur -= min(c.L, max(0, rel-c.off))
	}
	return s.curToOrig(cur)
}

// curToOrig maps an offset in s's current own text (original text minus
// tombstones) back to original coordinates: the original offset of the
// character currently at that position.
func (s *Segment) curToOrig(cur int) int {
	orig := cur
	for _, tb := range s.tombs {
		if tb.Start <= orig {
			orig += tb.Len()
		} else {
			break
		}
	}
	return orig
}

// origToCur maps an original-coordinate offset to s's current own text,
// counting only tombstoned text strictly before it.
func (s *Segment) origToCur(orig int) int {
	cur := orig
	for _, tb := range s.tombs {
		if tb.End <= orig {
			cur -= tb.Len()
		} else if tb.Start < orig {
			cur -= orig - tb.Start
		} else {
			break
		}
	}
	return cur
}

// addTombstone records [r.Start, r.End) of s's original text as removed,
// merging with existing tombstones.
func (s *Segment) addTombstone(r Range) {
	s.tombs = append(s.tombs, r)
	sort.Slice(s.tombs, func(i, j int) bool { return s.tombs[i].Start < s.tombs[j].Start })
	merged := s.tombs[:0]
	for _, tb := range s.tombs {
		if n := len(merged); n > 0 && tb.Start <= merged[n-1].End {
			if tb.End > merged[n-1].End {
				merged[n-1].End = tb.End
			}
			continue
		}
		merged = append(merged, tb)
	}
	s.tombs = merged
}

// GlobalOf maps an original-coordinate offset inside segment s to its
// current global position in the super document: tombstoned text before
// the offset is subtracted, child-segment text inserted at or before the
// offset is added, and the segment's global position anchors the result.
// It costs O(log c + t) on a segment with c children and t tombstones.
func (s *Segment) GlobalOf(orig int) int {
	return s.globalAfter(s.childrenBefore(orig+1), orig)
}

// GlobalOfEnd maps an original-coordinate EXCLUSIVE end offset inside
// segment s to its current global position. It differs from GlobalOf only
// at child insertion points: a child segment inserted exactly at offset
// orig sits after the interval ending there, so its length is not added.
func (s *Segment) GlobalOfEnd(orig int) int {
	return s.globalAfter(s.childrenBefore(orig), orig)
}

// childrenBefore counts the children inserted strictly before original
// offset orig, by binary search over the GP-ordered children. Children
// whose LPs fall in one tombstoned range can sit out of LP order among
// themselves, but never on opposite sides of a live offset, so the count
// is exact whenever offset orig-1 is live text: a start label's first
// character for GlobalOf, an end label's last character for GlobalOfEnd.
func (s *Segment) childrenBefore(orig int) int {
	return sort.Search(len(s.Children), func(i int) bool { return s.Children[i].LP >= orig })
}

// globalAfter is the global position of original offset orig when the
// first k children precede it. The last of them anchors it: its text
// ends where s's own text resumes at that child's LP, so only s's live
// own text between that LP and orig is added.
func (s *Segment) globalAfter(k, orig int) int {
	if k == 0 {
		return s.GP() + s.origToCur(orig)
	}
	c := s.Children[k-1]
	return s.GP() + c.off + c.L + s.origToCur(orig) - s.origToCur(c.LP)
}

// ChildLPToward returns P_T^S of the paper: the local position (in S's
// original coordinates) of the child segment of S that lies on the path
// from S to T. If S directly contains T, that is T's own local position.
// S must be a proper ancestor of T.
func ChildLPToward(s, t *Segment) (int, error) {
	c := t
	for c.Parent != nil && c.Parent != s {
		c = c.Parent
	}
	if c.Parent != s {
		return 0, fmt.Errorf("segment: %d is not an ancestor of %d", s.SID, t.SID)
	}
	return c.LP, nil
}

// SizeBytes estimates the in-memory footprint of the SB-tree in bytes,
// for the Figure 11 space accounting: per segment, the key plus
// (gp, length, lp, parent pointer) plus one child pointer per child, as
// in the paper's Figure 2 layout.
func (t *Tree) SizeBytes() int {
	const word = 8
	total := 0
	t.Walk(func(s *Segment) bool {
		total += 5*word + len(s.Children)*word + len(s.tombs)*2*word
		return true
	})
	return total
}

// Dump renders the ER-tree as an indented listing — one line per
// segment with its global span, length, local position and tombstones —
// for debugging and the CLI's `segments` command.
func (t *Tree) Dump() string {
	var sb strings.Builder
	var rec func(s *Segment, depth int)
	rec = func(s *Segment, depth int) {
		for i := 0; i < depth; i++ {
			sb.WriteString("  ")
		}
		if s.SID == RootSID {
			fmt.Fprintf(&sb, "root [0,%d)\n", s.L)
		} else {
			fmt.Fprintf(&sb, "seg %d [%d,%d) len %d lp %d", s.SID, s.GP(), s.End(), s.L, s.LP)
			if len(s.tombs) > 0 {
				fmt.Fprintf(&sb, " tombs %v", s.tombs)
			}
			sb.WriteString("\n")
		}
		for _, c := range s.Children {
			rec(c, depth+1)
		}
	}
	rec(t.root, 0)
	return sb.String()
}

// Validate checks the structural invariants of the ER-tree and SB-tree
// and returns an error describing the first violation. Intended for
// tests and property checks.
func (t *Tree) Validate() error {
	if gp := t.root.GP(); gp != 0 {
		return fmt.Errorf("root GP = %d, want 0", gp)
	}
	count := 0
	var err error
	t.Walk(func(s *Segment) bool {
		count++
		if got, ok := t.byID[s.SID]; !ok || got != s {
			err = fmt.Errorf("segment %d not in SB-tree", s.SID)
			return false
		}
		childSum := 0
		for i, c := range s.Children {
			if c.Parent != s {
				err = fmt.Errorf("segment %d: child %d has wrong parent", s.SID, c.SID)
				return false
			}
			// Containment is strict at insert time (Definition 1), but a
			// removal that right- or left-intersects both a parent and its
			// child can leave them sharing a boundary, so only weak
			// containment is an invariant.
			if !(0 <= c.off && c.off+c.L <= s.L) {
				err = fmt.Errorf("segment %d [%d,%d) not inside parent %d [%d,%d)",
					c.SID, c.GP(), c.End(), s.SID, s.GP(), s.End())
				return false
			}
			if i > 0 && s.Children[i-1].off+s.Children[i-1].L > c.off {
				err = fmt.Errorf("segment %d: children %d and %d overlap",
					s.SID, s.Children[i-1].SID, c.SID)
				return false
			}
			childSum += c.L
		}
		if childSum > s.L {
			err = fmt.Errorf("segment %d: children longer (%d) than segment (%d)", s.SID, childSum, s.L)
			return false
		}
		if s.gp >= 0 && s.gp != s.walkGP() {
			err = fmt.Errorf("segment %d: cached position %d, offsets sum to %d", s.SID, s.gp, s.walkGP())
			return false
		}
		if n := len(s.path); n == 0 || s.path[n-1] != s.SID {
			err = fmt.Errorf("segment %d: malformed path %v", s.SID, s.path)
			return false
		}
		return true
	})
	if err != nil {
		return err
	}
	if count != len(t.byID) {
		return fmt.Errorf("ER-tree has %d segments, SB-tree has %d", count, len(t.byID))
	}
	return nil
}
