// Binary encoding of the element index for update-log persistence:
// a varint stream of records with per-field delta encoding. Encode dumps
// the runs in ascending sid order, so sid repeats and, within a tag,
// starts ascend. Decode takes the records in any order, so snapshots
// written in tid-major order — as they were before the index was stored
// as per-segment runs — decode to the same index.

package elemindex

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/segment"
	"repro/internal/taglist"
)

const codecMagic = "EIX1"

// Encode writes the index to w.
func (ix *Index) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(codecMagic); err != nil {
		return err
	}
	buf := binary.AppendVarint(nil, int64(ix.n))
	if _, err := bw.Write(buf); err != nil {
		return err
	}
	var err error
	prev := Key{}
	ix.WalkAll(func(k Key) bool {
		buf = buf[:0]
		buf = binary.AppendVarint(buf, int64(k.TID-prev.TID))
		buf = binary.AppendVarint(buf, int64(k.SID-prev.SID))
		buf = binary.AppendVarint(buf, int64(k.Start-prev.Start))
		buf = binary.AppendVarint(buf, int64(k.End))
		buf = binary.AppendVarint(buf, int64(k.Level))
		prev = k
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

// Decode reads an index previously written by Encode. br must be the
// snapshot stream's shared buffered reader. It rejects duplicate records
// and labels outside 32 bits.
func Decode(br *bufio.Reader) (*Index, error) {
	magic := make([]byte, len(codecMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("elemindex: reading snapshot header: %w", err)
	}
	if string(magic) != codecMagic {
		return nil, fmt.Errorf("elemindex: bad snapshot magic %q", magic)
	}
	count, err := binary.ReadVarint(br)
	if err != nil {
		return nil, err
	}
	if count < 0 {
		return nil, fmt.Errorf("elemindex: snapshot claims %d records", count)
	}
	type sidRec struct {
		sid segment.SID
		rec Rec
	}
	var all []sidRec
	var prevTID, prevStart int64
	var prevSID segment.SID
	for i := int64(0); i < count; i++ {
		var vals [5]int64
		for j := range vals {
			v, err := binary.ReadVarint(br)
			if err != nil {
				return nil, fmt.Errorf("elemindex: record %d: %w", i, err)
			}
			vals[j] = v
		}
		tid, sid, start := prevTID+vals[0], prevSID+segment.SID(vals[1]), prevStart+vals[2]
		for _, v := range [...]int64{tid, start, vals[3], vals[4]} {
			if v < math.MinInt32 || v > math.MaxInt32 {
				return nil, fmt.Errorf("elemindex: record %d: value %d does not fit in 32 bits", i, v)
			}
		}
		all = append(all, sidRec{sid, Rec{
			TID: taglist.TID(tid), Start: int32(start), End: int32(vals[3]), Level: int32(vals[4]),
		}})
		prevTID, prevSID, prevStart = tid, sid, start
	}
	order := func(a, b sidRec) int {
		if c := cmpOrd(int64(a.sid), int64(b.sid)); c != 0 {
			return c
		}
		return cmpRec(a.rec, b.rec)
	}
	if !slices.IsSortedFunc(all, order) {
		slices.SortFunc(all, order)
	}
	ix := New()
	for len(all) > 0 {
		sid := all[0].sid
		n := 1
		for n < len(all) && all[n].sid == sid {
			n++
		}
		run := make([]Rec, n)
		for i := range run {
			run[i] = all[i].rec
			if i > 0 && run[i-1] == run[i] {
				return nil, fmt.Errorf("elemindex: snapshot holds record %+v twice", run[i].key(sid))
			}
		}
		ix.runs[sid] = run
		ix.n += n
		all = all[n:]
	}
	return ix, nil
}
