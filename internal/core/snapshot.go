// Snapshot persistence: the full store state (update log, element index,
// dictionary and optionally the super-document text) in one stream, so a
// database survives restarts without the "maintenance hours" rebuild.

package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"repro/internal/elemindex"
	"repro/internal/segment"
	"repro/internal/taglist"
)

const (
	snapshotMagic   = "LXML1"
	snapshotVersion = 1
)

// Snapshot writes the complete store state to w. The stream contains the
// SB-tree, tag-list, element index, tag dictionary, counters and (when
// retained) the super-document text.
func (s *Store) Snapshot(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return err
	}
	hdr := binary.AppendVarint(nil, snapshotVersion)
	hdr = binary.AppendVarint(hdr, int64(s.mode))
	flags := int64(0)
	if s.keepText {
		flags |= 1
	}
	if s.indexAttrs {
		flags |= 2
	}
	if s.vix != nil {
		flags |= 4
	}
	hdr = binary.AppendVarint(hdr, flags)
	hdr = binary.AppendVarint(hdr, int64(s.inserts))
	hdr = binary.AppendVarint(hdr, int64(s.removes))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	if err := s.dict.EncodeDict(bw); err != nil {
		return err
	}
	if err := s.sb.Encode(bw); err != nil {
		return err
	}
	if err := s.tags.Encode(bw); err != nil {
		return err
	}
	if err := s.ix.Encode(bw); err != nil {
		return err
	}
	if s.vix != nil {
		if err := s.vix.encode(bw); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
	}
	if s.keepText {
		lenBuf := binary.AppendVarint(nil, int64(s.text.len()))
		if _, err := bw.Write(lenBuf); err != nil {
			return err
		}
		if err := s.text.writeTo(bw); err != nil {
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
	if version != snapshotVersion {
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
	inserts, err := binary.ReadVarint(br)
	if err != nil {
		return nil, err
	}
	removes, err := binary.ReadVarint(br)
	if err != nil {
		return nil, err
	}
	s := &Store{
		viewData: viewData{mode: Mode(modeV), keepText: flags&1 != 0, indexAttrs: flags&2 != 0},
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
	if s.tags, err = taglist.Decode(br, s.sb, s.mode); err != nil {
		return nil, err
	}
	if s.ix, err = elemindex.Decode(br); err != nil {
		return nil, err
	}
	if flags&4 != 0 {
		if s.vix, err = decodeValueIndex(br); err != nil {
			return nil, err
		}
	}
	s.spans = rebuildSpans(s.ix)
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

// rebuildSpans reconstructs the per-segment span indexes from the element
// index (they are derived data, so the snapshot omits them).
func rebuildSpans(ix *elemindex.Index) map[segment.SID]*spanIndex {
	type pair struct{ starts, ends []int }
	acc := map[segment.SID]*pair{}
	ix.WalkAll(func(k elemindex.Key) bool {
		p := acc[k.SID]
		if p == nil {
			p = &pair{}
			acc[k.SID] = p
		}
		p.starts = append(p.starts, k.Start)
		p.ends = append(p.ends, k.End)
		return true
	})
	out := make(map[segment.SID]*spanIndex, len(acc))
	for sid, p := range acc {
		sort.Ints(p.starts)
		sort.Ints(p.ends)
		out[sid] = &spanIndex{starts: p.starts, ends: p.ends}
	}
	return out
}
