// Snapshot persistence: the full store state (update log, element index,
// dictionary and optionally the super-document text) in one stream, so a
// database survives restarts without the "maintenance hours" rebuild.
//
// Version 2 stores values as the pseudo-tags they are (values.go): flag 4
// only says the store indexes them. Version 1 kept them in a separate
// value-index block; a version-1 snapshot without one has version 2's
// layout and still restores, one with one is refused.

package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"repro/internal/elemindex"
	"repro/internal/segment"
	"repro/internal/taglist"
)

const (
	snapshotMagic   = "LXML1"
	snapshotVersion = 2
)

// Snapshot writes the complete store state to w: the state of the view
// it acquires, so the store is locked only for that view's build (if the
// published one is stale), never for the serialize.
func (s *Store) Snapshot(w io.Writer) error {
	v := s.AcquireView()
	defer v.Release()
	return v.Snapshot(w)
}

// Snapshot writes the store as it stood at the view's generation to w:
// the SB-tree, tag-list, element index, tag dictionary, counters and
// (when retained) the super-document text. The view is immutable, so
// this takes no lock however long the write takes; a checkpoint writes
// a pinned view this way while the store goes on taking updates.
func (v *View) Snapshot(w io.Writer) error { return v.viewData.snapshot(w) }

func (d *viewData) snapshot(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return err
	}
	hdr := binary.AppendVarint(nil, snapshotVersion)
	hdr = binary.AppendVarint(hdr, int64(d.mode))
	flags := int64(0)
	if d.keepText {
		flags |= 1
	}
	if d.indexAttrs {
		flags |= 2
	}
	if d.values {
		flags |= 4
	}
	hdr = binary.AppendVarint(hdr, flags)
	hdr = binary.AppendVarint(hdr, int64(d.inserts))
	hdr = binary.AppendVarint(hdr, int64(d.removes))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	if err := d.dict.EncodeDict(bw); err != nil {
		return err
	}
	if err := d.sb.Encode(bw); err != nil {
		return err
	}
	if err := d.tags.Encode(bw); err != nil {
		return err
	}
	if err := d.ix.Encode(bw); err != nil {
		return err
	}
	if d.keepText {
		lenBuf := binary.AppendVarint(nil, int64(d.text.len()))
		if _, err := bw.Write(lenBuf); err != nil {
			return err
		}
		if err := d.text.writeTo(bw); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// RestoreStore reads a snapshot written by Snapshot and returns a fully
// functional store.
func RestoreStore(r io.Reader) (*Store, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("core: reading snapshot header: %w", err)
	}
	if string(magic) != snapshotMagic {
		return nil, fmt.Errorf("core: bad snapshot magic %q", magic)
	}
	version, err := binary.ReadVarint(br)
	if err != nil {
		return nil, err
	}
	if version != 1 && version != snapshotVersion {
		return nil, fmt.Errorf("core: unsupported snapshot version %d", version)
	}
	modeV, err := binary.ReadVarint(br)
	if err != nil {
		return nil, err
	}
	flags, err := binary.ReadVarint(br)
	if err != nil {
		return nil, err
	}
	if version == 1 && flags&4 != 0 {
		return nil, fmt.Errorf("core: snapshot version 1 holds a value index, which version %d no longer reads; rebuild the store from its text", snapshotVersion)
	}
	inserts, err := binary.ReadVarint(br)
	if err != nil {
		return nil, err
	}
	removes, err := binary.ReadVarint(br)
	if err != nil {
		return nil, err
	}
	s := &Store{
		viewData: viewData{mode: Mode(modeV), keepText: flags&1 != 0, indexAttrs: flags&2 != 0, values: flags&4 != 0},
		id:       storeSerial.Add(1),
	}
	s.retained = map[uint64]*View{}
	s.inserts, s.removes = int(inserts), int(removes)
	if s.dict, err = taglist.DecodeDict(br); err != nil {
		return nil, err
	}
	if s.sb, err = segment.DecodeTree(br); err != nil {
		return nil, err
	}
	if s.tags, err = taglist.Decode(br, s.sb, s.mode, s.dict); err != nil {
		return nil, err
	}
	if s.ix, err = elemindex.Decode(br); err != nil {
		return nil, err
	}
	if err := s.rebuildDerived(); err != nil {
		return nil, err
	}
	if s.keepText {
		l, err := binary.ReadVarint(br)
		if err != nil {
			return nil, err
		}
		// The length is outside input (a re-seed streams snapshots off the
		// network): check it against the SB-tree before reading, and read
		// in bounded chunks so a forged pair of lengths allocates no more
		// than the bytes that actually arrive plus one chunk.
		if l != int64(s.sb.TotalLen()) {
			return nil, fmt.Errorf("core: snapshot text %d bytes, SB-tree claims %d", l, s.sb.TotalLen())
		}
		for rest := int(l); rest > 0; {
			chunk := make([]byte, min(rest, restoreChunk))
			if _, err := io.ReadFull(br, chunk); err != nil {
				return nil, fmt.Errorf("core: reading snapshot text: %w", err)
			}
			s.text.appendOwned(chunk)
			rest -= len(chunk)
		}
	}
	return s, nil
}

// restoreChunk is the read unit, and so the rope chunk size, of a
// restored text.
const restoreChunk = 64 << 10

// rebuildDerived reconstructs the state the snapshot omits: the tag
// census from the dictionary, and from the element index the census's
// count of value records and the per-segment span indexes. A value
// record repeats its element's span, so it stays out of them, or the
// element would count twice in an insertion's depth.
func (s *Store) rebuildDerived() error {
	for tid := 0; tid < s.dict.Len(); tid++ {
		s.census.note(s.dict.Name(taglist.TID(tid)))
	}
	type pair struct{ starts, ends []int32 }
	acc := map[segment.SID]*pair{}
	var err error
	s.ix.WalkAll(func(k elemindex.Key) bool {
		if k.TID < 0 || int(k.TID) >= len(s.census.kinds) {
			err = fmt.Errorf("core: snapshot element record %+v has a tag outside the dictionary's %d", k, s.dict.Len())
			return false
		}
		if s.census.kinds[k.TID] == kindValue {
			s.census.valueRecs++
			return true
		}
		p := acc[k.SID]
		if p == nil {
			p = &pair{}
			acc[k.SID] = p
		}
		p.starts = append(p.starts, int32(k.Start))
		p.ends = append(p.ends, int32(k.End))
		return true
	})
	s.spans = make(map[segment.SID]*spanIndex, len(acc))
	for sid, p := range acc {
		slices.Sort(p.starts)
		slices.Sort(p.ends)
		s.spans[sid] = &spanIndex{starts: p.starts, ends: p.ends}
	}
	return err
}
