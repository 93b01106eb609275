// Binary encoding of the tag dictionary and the tag-list for update-log
// persistence. Path-list entries are (sid, count), as in memory; the sid
// paths are the decoded SB-tree's.

package taglist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/segment"
)

const (
	dictMagic = "DCT1"
	listMagic = "TGL1"
)

// EncodeDict writes the dictionary to w.
func (d *Dict) EncodeDict(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(dictMagic); err != nil {
		return err
	}
	buf := binary.AppendVarint(nil, int64(len(d.names)))
	if _, err := bw.Write(buf); err != nil {
		return err
	}
	for _, name := range d.names {
		buf = binary.AppendVarint(buf[:0], int64(len(name)))
		if _, err := bw.Write(buf); err != nil {
			return err
		}
		if _, err := bw.WriteString(name); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// DecodeDict reads a dictionary previously written by EncodeDict. br
// must be the snapshot stream's shared buffered reader.
func DecodeDict(br *bufio.Reader) (*Dict, error) {
	magic := make([]byte, len(dictMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("taglist: reading dict header: %w", err)
	}
	if string(magic) != dictMagic {
		return nil, fmt.Errorf("taglist: bad dict magic %q", magic)
	}
	n, err := binary.ReadVarint(br)
	if err != nil {
		return nil, err
	}
	d := NewDict()
	for i := int64(0); i < n; i++ {
		l, err := binary.ReadVarint(br)
		if err != nil {
			return nil, err
		}
		if l < 0 || l > 1<<20 {
			return nil, fmt.Errorf("taglist: tag name length %d out of range", l)
		}
		name := make([]byte, l)
		if _, err := io.ReadFull(br, name); err != nil {
			return nil, err
		}
		d.Intern(string(name))
	}
	return d, nil
}

// Encode writes the tag-list to w.
func (l *List) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(listMagic); err != nil {
		return err
	}
	buf := binary.AppendVarint(nil, int64(l.NumTags()))
	if _, err := bw.Write(buf); err != nil {
		return err
	}
	for tid, pl := range l.tags {
		if pl == nil {
			continue
		}
		buf = buf[:0]
		buf = binary.AppendVarint(buf, int64(tid))
		buf = binary.AppendVarint(buf, int64(pl.n))
		for _, ch := range pl.chunks {
			for _, e := range ch {
				buf = binary.AppendVarint(buf, int64(e.SID))
				buf = binary.AppendVarint(buf, int64(e.Count))
			}
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Decode reads a tag-list written by Encode, re-binding it to sb (for
// segment positions and paths) with the given maintenance mode. Every
// tag id must be one of dict's, each listed once: the ids index a slice,
// so a forged one is refused before it can size it.
// Path lists are re-sorted, so the result is query-ready in either mode.
func Decode(br *bufio.Reader, sb *segment.Tree, mode Mode, dict *Dict) (*List, error) {
	magic := make([]byte, len(listMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("taglist: reading snapshot header: %w", err)
	}
	if string(magic) != listMagic {
		return nil, fmt.Errorf("taglist: bad snapshot magic %q", magic)
	}
	nTags, err := binary.ReadVarint(br)
	if err != nil {
		return nil, err
	}
	l := New(sb, mode)
	for i := int64(0); i < nTags; i++ {
		tid, err := binary.ReadVarint(br)
		if err != nil {
			return nil, err
		}
		if tid < 0 || tid >= int64(dict.Len()) {
			return nil, fmt.Errorf("taglist: snapshot tag id %d outside the dictionary's %d", tid, dict.Len())
		}
		if l.list(TID(tid)) != nil {
			return nil, fmt.Errorf("taglist: snapshot lists tag %d twice", tid)
		}
		nEntries, err := binary.ReadVarint(br)
		if err != nil {
			return nil, err
		}
		var entries []Entry
		for j := int64(0); j < nEntries; j++ {
			sid, err := binary.ReadVarint(br)
			if err != nil {
				return nil, err
			}
			count, err := binary.ReadVarint(br)
			if err != nil {
				return nil, err
			}
			if _, ok := sb.Lookup(segment.SID(sid)); !ok {
				return nil, fmt.Errorf("taglist: snapshot references unknown segment %d", sid)
			}
			entries = append(entries, Entry{SID: segment.SID(sid), Count: int(count)})
		}
		l.setList(TID(tid), &pathList{chunks: chunked(entries), n: len(entries)})
	}
	l.SortAll()
	if err := l.Validate(); err != nil {
		return nil, fmt.Errorf("taglist: snapshot inconsistent: %w", err)
	}
	return l, nil
}
