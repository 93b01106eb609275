package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
)

// firstInsertedID is the lowest id the generator gives a fragment it
// inserts. Seed documents number their persons and items from 0, so an
// id at or above this one marks an element the benchmark inserted and
// may therefore remove again.
const firstInsertedID = 1_000_000

// shadowDoc is the client-side model of one document: the text the
// store must hold after every operation acknowledged so far, and the
// ids of the inserted fragments still inside it. Offsets sent to the
// store are computed from this text, so an operation the store applies
// differently shows up as a failed later operation or as a text
// mismatch at the end of the run.
type shadowDoc struct {
	name string
	text []byte
	live []int // ids of inserted fragments still present
}

// slot returns an offset at which inserting an element keeps the
// document well-formed: a boundary between two tags inside the root,
// the first one at or after a uniformly random byte position (wrapping
// to the first slot of the document). Slots inside previously inserted
// fragments are as likely as any other, which is what nests segments.
func (d *shadowDoc) slot(r *rand.Rand) int {
	start := 1 + r.Intn(len(d.text)-1)
	for _, from := range [2]int{start, 1} {
		for i := from; i < len(d.text); i++ {
			if d.text[i-1] == '>' && d.text[i] == '<' {
				return i
			}
		}
	}
	panic(fmt.Sprintf("document %s has no content slot", d.name))
}

// insert applies an insertion to the model.
func (d *shadowDoc) insert(off int, frag []byte, id int) {
	d.text = append(d.text, frag...)
	copy(d.text[off+len(frag):], d.text[off:])
	copy(d.text[off:], frag)
	d.live = append(d.live, id)
}

// removeLive removes one previously inserted fragment, chosen at
// random, from the model and returns where it started and how long it
// was. Fragments nested inside the removed one leave the live set too.
func (d *shadowDoc) removeLive(r *rand.Rand) (off, length int) {
	id := d.live[r.Intn(len(d.live))]
	off = bytes.Index(d.text, fragmentOpenTag(id))
	if off < 0 {
		panic(fmt.Sprintf("document %s lost inserted fragment %d", d.name, id))
	}
	end := elementEnd(d.text, off)
	gone := insertedIDs(d.text[off:end])
	kept := d.live[:0]
	for _, l := range d.live {
		if !gone[l] {
			kept = append(kept, l)
		}
	}
	d.live = kept
	d.text = append(d.text[:off], d.text[end:]...)
	return off, end - off
}

// fragmentOpenTag is the start tag of the inserted fragment with the
// given id, as newFragment writes it.
func fragmentOpenTag(id int) []byte {
	if isItemID(id) {
		return []byte(`<item id="i` + strconv.Itoa(id) + `">`)
	}
	return []byte(`<person id="p` + strconv.Itoa(id) + `">`)
}

// isItemID reports whether an inserted id names an <item> fragment;
// every fourth inserted fragment is one, the rest are <person> records.
func isItemID(id int) bool { return id%4 == 0 }

// elementEnd returns the offset just past the element whose start tag
// begins at off. The generated vocabulary has no comments, CDATA,
// processing instructions or '>' inside attribute values.
func elementEnd(text []byte, off int) int {
	depth := 0
	for i := off; i < len(text); i++ {
		if text[i] != '<' {
			continue
		}
		closeTag := text[i+1] == '/'
		j := i + bytes.IndexByte(text[i:], '>')
		switch {
		case closeTag:
			depth--
		case text[j-1] != '/':
			depth++
		}
		if depth == 0 {
			return j + 1
		}
		i = j
	}
	panic("unterminated element")
}

// insertedIDs returns the ids of all inserted fragments whose start tag
// lies in text.
func insertedIDs(text []byte) map[int]bool {
	ids := map[int]bool{}
	marker := []byte(` id="`)
	for {
		i := bytes.Index(text, marker)
		if i < 0 {
			return ids
		}
		text = text[i+len(marker)+1:] // skip the p or i prefix
		n := 0
		for n < len(text) && text[n] >= '0' && text[n] <= '9' {
			n++
		}
		if id, err := strconv.Atoi(string(text[:n])); err == nil && id >= firstInsertedID {
			ids[id] = true
		}
	}
}

// countPairs counts the (ancestor, descendant) element pairs of a
// two-step path in text: every desc element pairs with each enclosing
// anc element (descendant axis) or with its parent when that is an anc
// (child axis). It is the model's own answer to a document-scoped
// query, written without any of the engine's code.
func countPairs(text []byte, anc, desc string, childAxis bool) int {
	var open []bool // per open element: is it an anc
	ancOpen, pairs := 0, 0
	for i := 0; i < len(text); i++ {
		if text[i] != '<' {
			continue
		}
		j := i + bytes.IndexByte(text[i:], '>')
		if text[i+1] == '/' {
			if open[len(open)-1] {
				ancOpen--
			}
			open = open[:len(open)-1]
			i = j
			continue
		}
		nameEnd := i + 1
		for text[nameEnd] != ' ' && text[nameEnd] != '>' && text[nameEnd] != '/' {
			nameEnd++
		}
		name := string(text[i+1 : nameEnd])
		if name == desc {
			if childAxis {
				if len(open) > 0 && open[len(open)-1] {
					pairs++
				}
			} else {
				pairs += ancOpen
			}
		}
		if text[j-1] != '/' {
			open = append(open, name == anc)
			if name == anc {
				ancOpen++
			}
		}
		i = j
	}
	return pairs
}
