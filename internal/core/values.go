// Values are tags. WithValues indexes each element's trimmed direct text,
// and each attribute's trimmed value, under the pseudo-tag "tag=value"
// ("@name=value" for an attribute) of the store's one dictionary: one
// more element-index record with the element's own span and level, and
// so one more tag-list entry for its segment. No XML name contains '='
// and ParsePath refuses it, so a pseudo-tag never collides with a tag
// and no path reaches one. Removals, views, snapshots, LS sorting,
// Collapse and Rebuild carry pseudo-tags exactly as they carry tags.

package core

import (
	"strings"

	"repro/internal/join"
	"repro/internal/taglist"
)

// MaxValueLen is the longest direct-text value indexed by WithValues;
// longer values simply stay unindexed (equality predicates on them match
// nothing, which CheckAgainstText accounts for).
const MaxValueLen = 64

// normalizeValue trims surrounding whitespace; equality predicates use
// the trimmed form (documented in the public API).
func normalizeValue(s string) (string, bool) {
	s = strings.TrimSpace(s)
	if s == "" || len(s) > MaxValueLen {
		return "", false
	}
	return s, true
}

// valueTag is the pseudo-tag of the tag elements whose trimmed value is
// value.
func valueTag(tag, value string) string { return tag + "=" + value }

// tagKind classifies a dictionary name.
type tagKind uint8

const (
	kindElem  tagKind = iota // an element tag
	kindAttr                 // an attribute, "@name"
	kindValue                // a value pseudo-tag, "tag=value"
)

func kindOf(name string) tagKind {
	switch {
	case strings.Contains(name, "="):
		return kindValue
	case strings.HasPrefix(name, "@"):
		return kindAttr
	default:
		return kindElem
	}
}

// tagCensus classifies the dictionary for the write path: the element
// tags are ElementExtentAt's candidates, and the value pseudo-tags and
// their records are what Stats leaves out. It is derived from the
// dictionary and the element index, so a restore rebuilds it and views
// never copy it.
type tagCensus struct {
	kinds     []tagKind     // by TID
	elems     []taglist.TID // the kindElem TIDs, ascending
	values    int           // kindValue names
	valueRecs int           // kindValue records in the element index
}

// note classifies the name just interned as the next TID.
func (c *tagCensus) note(name string) {
	k := kindOf(name)
	switch k {
	case kindElem:
		c.elems = append(c.elems, taglist.TID(len(c.kinds)))
	case kindValue:
		c.values++
	}
	c.kinds = append(c.kinds, k)
}

// count adds sign times the value records among per-tag record counts.
func (c *tagCensus) count(counts map[taglist.TID]int, sign int) {
	for tid, n := range counts {
		if c.kinds[tid] == kindValue {
			c.valueRecs += sign * n
		}
	}
}

// intern returns name's TID, classifying a new name.
func (s *Store) intern(name string) taglist.TID {
	tid := s.dict.Intern(name)
	if int(tid) == len(s.census.kinds) {
		s.census.note(name)
	}
	return tid
}

// ValueElements returns the global-position nodes of elements (or
// attributes, for "@name" tags) with the given tag whose direct text
// value equals value (whitespace-trimmed): the elements of the
// pseudo-tag "tag=value". Requires WithValues.
func (v *View) ValueElements(tag, value string) ([]join.Node, error) {
	if !v.values {
		return nil, ErrNoValues
	}
	val, ok := normalizeValue(value)
	if !ok {
		return nil, nil
	}
	return v.GlobalElements(valueTag(tag, val)), nil
}
