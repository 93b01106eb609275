package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/segment"
	"repro/internal/xmltree"
)

// OpKind says what one op of a commit unit does; the values are the
// log's on-disk op codes.
type OpKind byte

const (
	OpInsert  OpKind = 1 // insert Frag at GP as a new segment
	OpRemove  OpKind = 2 // remove [GP, GP+L)
	OpNamePut OpKind = 3 // bind Name to SID, a segment this unit inserts
	OpNameDel OpKind = 4 // unbind Name, which is bound to SID
)

// Op is one op of a commit unit. An insert uses GP, Frag and Doc (Frag
// parsed, or nil for Apply to parse); a removal GP and L; a name op Name
// and SID.
type Op struct {
	Kind OpKind
	GP   int
	L    int
	Frag []byte
	Doc  *xmltree.Document
	SID  segment.SID
	Name string
}

// Apply lands a commit unit — one user operation's ops, such as a named
// document's segment and its name — all or none; local writes, log
// replay and replicated units all come through it. The unit is checked
// against the head, then commit runs (the write-ahead append; nil without
// a log), then the ops apply under one store lock and one generation. So
// a refused unit never reaches the log, and the log holds every applied
// unit in apply order. Check and commit run outside the store lock, so
// readers never wait on a log write; the caller keeps every other writer
// out until Apply returns (a shard's write lock).
func (s *Store) Apply(ops []Op, commit func() error) error {
	err := s.check(ops)
	if err == nil && commit != nil {
		err = commit()
	}
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, op := range ops {
		switch op.Kind {
		case OpInsert:
			_, err = s.insertLocked(op.GP, op.Frag, op.Doc)
		case OpRemove:
			err = s.removeLocked(op.GP, op.L)
		case OpNamePut:
			if s.names == nil {
				s.names = map[string]segment.SID{}
			}
			s.names[op.Name] = op.SID
		case OpNameDel:
			delete(s.names, op.Name)
		}
		if err != nil { // unreachable: check refuses all the ops can fail on
			return fmt.Errorf("core: applying a checked unit: %w", err)
		}
	}
	s.bumpGenLocked()
	return nil
}

// check refuses a unit the store could not apply whole: fragments must
// parse, positions lie inside the super document as the ops before leave
// it, a name be bound only to a segment the unit itself inserts and
// unbound only from the segment the head binds it to.
func (s *Store) check(ops []Op) error {
	if len(ops) == 0 {
		return fmt.Errorf("core: empty unit")
	}
	for i := range ops {
		if ops[i].Kind == OpInsert && ops[i].Doc == nil {
			doc, err := xmltree.ParseFragment(ops[i].Frag)
			if err != nil {
				return err
			}
			ops[i].Doc = doc
		}
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	n, next := s.sb.TotalLen(), s.sb.NextSID()
	var inserted []segment.SID
	for _, op := range ops {
		switch op.Kind {
		case OpInsert:
			if len(op.Frag) > math.MaxInt32 {
				// The element index packs local labels into 32 bits.
				return fmt.Errorf("core: a %d-byte segment is longer than the %d bytes a local label can address", len(op.Frag), math.MaxInt32)
			}
			if op.GP < 0 || op.GP > n {
				return fmt.Errorf("%w: insert at %d, document length %d", segment.ErrOutOfBounds, op.GP, n)
			}
			n += len(op.Frag)
			inserted = append(inserted, next)
			next++
		case OpRemove:
			if op.L <= 0 || op.GP < 0 || op.GP+op.L > n {
				return fmt.Errorf("%w: remove [%d,%d), document length %d", segment.ErrRangeMismatch, op.GP, op.GP+op.L, n)
			}
			n -= op.L
		case OpNamePut:
			if !slices.Contains(inserted, op.SID) {
				return fmt.Errorf("core: name %q bound to segment %d, which its unit does not insert", op.Name, op.SID)
			}
		case OpNameDel:
			if sid, ok := s.names[op.Name]; !ok || sid != op.SID {
				return fmt.Errorf("core: name %q is not bound to segment %d", op.Name, op.SID)
			}
		default:
			return fmt.Errorf("core: unknown op %d", op.Kind)
		}
	}
	return nil
}
