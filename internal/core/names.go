package core

// Document names. The paper's database is one super document whose
// top-level segments are the documents, so a document's name is store
// state like its segment: a name op is an op of a commit unit, applied
// with the unit's segment ops under one generation (apply.go), and every view
// captures the name map with the segments it was built from. A reader
// that resolves a name through its view therefore sees name and segment
// from one generation by construction.

import (
	"maps"
	"sort"

	"repro/internal/segment"
)

// SetNames installs the name map saved beside a snapshot; every later
// name change is an op of a commit unit (Apply).
func (s *Store) SetNames(names map[string]segment.SID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.names = maps.Clone(names)
}

// NameSID resolves name at the head, under the store lock — the writers'
// lookup. Readers resolve through a view instead.
func (s *Store) NameSID(name string) (segment.SID, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sid, ok := s.names[name]
	return sid, ok
}

// NameMap returns a copy of the view's name map.
func (v *View) NameMap() map[string]segment.SID { return maps.Clone(v.names) }

// NameSID resolves name in the snapshot. A name whose segment is not in
// the same snapshot does not resolve: the view names only documents it
// holds.
func (v *View) NameSID(name string) (segment.SID, bool) {
	sid, ok := v.names[name]
	if !ok {
		return 0, false
	}
	if _, ok := v.sb.Lookup(sid); !ok {
		return 0, false
	}
	return sid, true
}

// Names lists the snapshot's resolvable document names in sorted order.
func (v *View) Names() []string {
	out := make([]string, 0, len(v.names))
	for name, sid := range v.names {
		if _, ok := v.sb.Lookup(sid); ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// NumNames returns len(v.Names()) with no allocation and no sort.
func (v *View) NumNames() int {
	n := 0
	for _, sid := range v.names {
		if _, ok := v.sb.Lookup(sid); ok {
			n++
		}
	}
	return n
}
