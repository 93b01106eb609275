// Binary encoding of the SB-tree for update-log persistence. The format
// is a flat preorder dump of the ER-tree: each segment carries its own
// scalar fields, its global position among them, plus its parent's sid;
// children lists, paths, parent-relative offsets and the SID index are
// reconstructed on decode.

package segment

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

const codecMagic = "SBT1"

// Encode writes the tree to w in a compact varint format.
func (t *Tree) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(codecMagic); err != nil {
		return err
	}
	buf := make([]byte, 0, 64)
	put := func(v int64) {
		buf = binary.AppendVarint(buf, v)
	}
	put(int64(t.nextSID))
	put(int64(len(t.byID)))
	if _, err := bw.Write(buf); err != nil {
		return err
	}
	var err error
	t.Walk(func(s *Segment) bool {
		buf = buf[:0]
		put(int64(s.SID))
		parent := SID(-1)
		if s.Parent != nil {
			parent = s.Parent.SID
		}
		put(int64(parent))
		put(int64(s.GP()))
		put(int64(s.L))
		put(int64(s.LP))
		put(int64(len(s.tombs)))
		for _, tb := range s.tombs {
			put(int64(tb.Start))
			put(int64(tb.End))
		}
		if _, werr := bw.Write(buf); werr != nil {
			err = werr
			return false
		}
		return true
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// DecodeTree reads a tree previously written by Encode. The reader is
// shared with the other snapshot blocks, so it must be the stream's one
// buffered reader (buffering here would swallow the next block's bytes).
func DecodeTree(br *bufio.Reader) (*Tree, error) {
	magic := make([]byte, len(codecMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("segment: reading snapshot header: %w", err)
	}
	if string(magic) != codecMagic {
		return nil, fmt.Errorf("segment: bad snapshot magic %q", magic)
	}
	get := func() (int64, error) { return binary.ReadVarint(br) }
	nextSID, err := get()
	if err != nil {
		return nil, err
	}
	count, err := get()
	if err != nil {
		return nil, err
	}
	if count < 1 {
		return nil, fmt.Errorf("segment: snapshot has %d segments, need at least the root", count)
	}
	t := &Tree{
		byID:    map[SID]*Segment{},
		nextSID: SID(nextSID),
	}
	for i := int64(0); i < count; i++ {
		sid, err := get()
		if err != nil {
			return nil, err
		}
		parentSID, err := get()
		if err != nil {
			return nil, err
		}
		gp, err := get()
		if err != nil {
			return nil, err
		}
		l, err := get()
		if err != nil {
			return nil, err
		}
		lp, err := get()
		if err != nil {
			return nil, err
		}
		nTombs, err := get()
		if err != nil {
			return nil, err
		}
		// gp holds the global position until every segment is read;
		// the offsets are taken from it.
		s := &Segment{SID: SID(sid), L: int(l), LP: int(lp), off: int(gp), gp: int(gp)}
		for j := int64(0); j < nTombs; j++ {
			a, err := get()
			if err != nil {
				return nil, err
			}
			b, err := get()
			if err != nil {
				return nil, err
			}
			s.tombs = append(s.tombs, Range{int(a), int(b)})
		}
		if parentSID < 0 {
			if s.SID != RootSID {
				return nil, fmt.Errorf("segment: non-root segment %d without parent", s.SID)
			}
			s.path = []SID{RootSID}
			t.root = s
		} else {
			parent, ok := t.byID[SID(parentSID)]
			if !ok {
				return nil, fmt.Errorf("segment: segment %d references unknown parent %d (not preorder?)",
					s.SID, parentSID)
			}
			s.Parent = parent
			s.off -= parent.gp
			// Preorder dump + position order within children means
			// appending keeps the child list sorted.
			parent.Children = append(parent.Children, s)
			s.path = append(append([]SID(nil), parent.path...), s.SID)
		}
		t.byID[s.SID] = s
	}
	if t.root == nil {
		return nil, fmt.Errorf("segment: snapshot missing dummy root")
	}
	t.Walk(func(s *Segment) bool {
		s.gp = -1
		return true
	})
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("segment: snapshot inconsistent: %w", err)
	}
	return t, nil
}
