package lazyxml

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/xmltree"
)

// TestSoakLongWorkload runs one long randomized session exercising every
// feature together — inserts, removals, collapses, rebuilds, snapshots,
// all query engines — with the full-text consistency oracle checked
// throughout. Skipped with -short.
func TestSoakLongWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	r := rand.New(rand.NewSource(20050614)) // the paper's conference date
	db := Open(LD, WithAttributes(), WithValues())
	tags := []string{"a", "b", "c", "d"}
	vals := []string{"u", "v", "w"}

	frag := func() []byte {
		var sb bytes.Buffer
		var emit func(depth int)
		emit = func(depth int) {
			tag := tags[r.Intn(len(tags))]
			if depth > 3 || r.Intn(3) == 0 {
				sb.WriteString("<" + tag + ">" + vals[r.Intn(len(vals))] + "</" + tag + ">")
				return
			}
			sb.WriteString("<" + tag + ` k="` + vals[r.Intn(len(vals))] + `">`)
			for i, n := 0, r.Intn(3); i < n; i++ {
				emit(depth + 1)
			}
			sb.WriteString("</" + tag + ">")
		}
		emit(0)
		return sb.Bytes()
	}
	insertPoint := func() int {
		text, err := db.Text()
		if err != nil || len(text) == 0 {
			return 0
		}
		wrapped := append(append([]byte("<r>"), text...), "</r>"...)
		doc, err := xmltree.Parse(wrapped)
		if err != nil {
			t.Fatalf("super document broken: %v", err)
		}
		var pts []int
		doc.Walk(func(e *xmltree.Element) bool {
			if e != doc.Root {
				pts = append(pts, e.Start-3, e.End-3)
				if e.ContentStart < e.ContentEnd {
					pts = append(pts, e.ContentStart-3)
				}
			}
			return true
		})
		if len(pts) == 0 {
			return 0
		}
		return pts[r.Intn(len(pts))]
	}

	for step := 0; step < 1500; step++ {
		switch {
		case db.Len() == 0 || r.Intn(10) < 5: // insert
			if _, err := db.Insert(insertPoint(), frag()); err != nil {
				t.Fatalf("step %d insert: %v", step, err)
			}
		case r.Intn(10) < 4: // remove a random element
			tag := tags[r.Intn(len(tags))]
			ms, err := db.Query(tag)
			if err != nil {
				t.Fatal(err)
			}
			if len(ms) == 0 {
				continue
			}
			m := ms[r.Intn(len(ms))]
			if err := db.Remove(m.DescStart, m.DescEnd-m.DescStart); err != nil {
				t.Fatalf("step %d remove: %v", step, err)
			}
		case r.Intn(4) == 0 && db.Segments() > 3: // collapse a random segment
			sid := SID(r.Intn(db.Stats().Inserts) + 1)
			if _, err := db.Collapse(sid); err != nil {
				continue // unknown/stale sid is fine
			}
		case r.Intn(8) == 0: // snapshot round trip
			var buf bytes.Buffer
			if err := db.Snapshot(&buf); err != nil {
				t.Fatalf("step %d snapshot: %v", step, err)
			}
			restored, err := Restore(&buf)
			if err != nil {
				t.Fatalf("step %d restore: %v", step, err)
			}
			db = restored
		case r.Intn(12) == 0: // full rebuild
			if err := db.Rebuild(); err != nil {
				t.Fatalf("step %d rebuild: %v", step, err)
			}
		}

		if step%25 == 0 {
			if err := db.CheckConsistency(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			// All engines agree on a random tag pair.
			a, d := tags[r.Intn(len(tags))], tags[r.Intn(len(tags))]
			nLazy, _ := db.QueryPair(a, d, Descendant, LazyJoin)
			nSTD, _ := db.QueryPair(a, d, Descendant, STD)
			nSkip, _ := db.QueryPair(a, d, Descendant, SkipSTD)
			if len(nLazy) != len(nSTD) || len(nLazy) != len(nSkip) {
				t.Fatalf("step %d: engines disagree on %s//%s: %d %d %d",
					step, a, d, len(nLazy), len(nSTD), len(nSkip))
			}
			twigs, err := db.QueryTwig(a + "//" + d)
			if err != nil || len(twigs) != len(nLazy) {
				t.Fatalf("step %d: twig disagrees: %d vs %d (%v)", step, len(twigs), len(nLazy), err)
			}
		}
	}
	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	t.Logf("final state: %d bytes, %d segments, %d elements",
		db.Len(), db.Segments(), db.Stats().Elements)
}
