package core

// Document names. The paper's database is one super document whose
// top-level segments are the documents, so a document's name is store
// state like its segment: a name op is an update (it bumps the
// generation, or stages the bump inside a publish batch) and every view
// captures the name map with the segments it was built from. A reader
// that resolves a name through its view therefore sees name and segment
// from one generation by construction.

import (
	"maps"
	"sort"

	"repro/internal/segment"
)

// PutName binds name to segment sid at the head.
func (s *Store) PutName(name string, sid segment.SID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.names == nil {
		s.names = map[string]segment.SID{}
	}
	s.names[name] = sid
	s.bumpGenLocked()
}

// DeleteName unbinds name at the head.
func (s *Store) DeleteName(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.names, name)
	s.bumpGenLocked()
}

// NameSID resolves name at the head, under the store lock — the writers'
// lookup. The segment may be gone (the moment between a document's
// removal and its name's); readers resolve through a view instead.
func (s *Store) NameSID(name string) (segment.SID, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sid, ok := s.names[name]
	return sid, ok
}

// NameMap returns a copy of the head name map.
func (s *Store) NameMap() map[string]segment.SID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return maps.Clone(s.names)
}

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
