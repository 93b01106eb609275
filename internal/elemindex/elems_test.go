package elemindex

import (
	"slices"

	"repro/internal/segment"
	"repro/internal/taglist"
)

// The package's tests drive the index one record at a time and read it
// back with plain int labels; the store only ever adds whole segments
// and reads shared runs.

// Elem is a record of one segment with plain int labels.
type Elem struct {
	Start int
	End   int
	Level int
}

// ElementsOf returns Run(tid, sid) as Elem values (nil when there are
// none).
func (ix *Index) ElementsOf(tid taglist.TID, sid segment.SID) []Elem {
	var out []Elem
	for _, r := range ix.Run(tid, sid) {
		out = append(out, Elem{Start: int(r.Start), End: int(r.End), Level: int(r.Level)})
	}
	return out
}

// Add inserts one element record.
func (ix *Index) Add(k Key) error {
	_, err := ix.AddSegment([]Key{k})
	return err
}

// Has reports whether the exact record exists.
func (ix *Index) Has(k Key) bool {
	r, err := pack(k)
	if err != nil {
		return false
	}
	_, ok := slices.BinarySearchFunc(ix.runs[k.SID], r, cmpRec)
	return ok
}

// CountOf returns the number of elements with the given tag inside the
// given segment.
func (ix *Index) CountOf(tid taglist.TID, sid segment.SID) int { return len(ix.Run(tid, sid)) }
