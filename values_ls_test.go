package lazyxml

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/xmltree"
)

// TestQuickValuePredicateLS is TestQuickValuePredicateAgainstBruteForce
// on an LS store under random inserts and element removals: value
// pseudo-tags take LS's unsorted tag lists, sorted when a view is built,
// and after every update each anchor[child='v'] count agrees with
// direct evaluation of the text.
func TestQuickValuePredicateLS(t *testing.T) {
	tags := []string{"a", "b"}
	vals := []string{"u", "v", "w"}
	var emit func(r *rand.Rand, sb *strings.Builder, depth int)
	emit = func(r *rand.Rand, sb *strings.Builder, depth int) {
		tag := tags[r.Intn(len(tags))]
		if depth > 3 || r.Intn(3) == 0 {
			sb.WriteString("<" + tag + ">" + vals[r.Intn(len(vals))] + "</" + tag + ">")
			return
		}
		sb.WriteString("<" + tag + ">")
		for i, n := 0, r.Intn(3); i < n; i++ {
			emit(r, sb, depth+1)
		}
		sb.WriteString("</" + tag + ">")
	}
	fragment := func(r *rand.Rand, depth int) []byte {
		var sb strings.Builder
		emit(r, &sb, depth)
		return []byte(sb.String())
	}
	agrees := func(db *DB) bool {
		text, err := db.Text()
		if err != nil {
			t.Fatal(err)
		}
		doc, err := xmltree.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		for _, anchorTag := range tags {
			for _, childTag := range tags {
				for _, v := range vals {
					want := 0
					doc.Walk(func(e *xmltree.Element) bool {
						if e.Tag != anchorTag {
							return true
						}
						for _, c := range e.Children {
							if c.Tag == childTag && strings.TrimSpace(c.DirectText(doc.Text)) == v {
								want++
								break
							}
						}
						return true
					})
					expr := anchorTag + "[" + childTag + "='" + v + "']"
					if got, err := db.CountPattern(expr); err != nil || got != want {
						t.Logf("%s: got %d (%v), want %d, text %s", expr, got, err, want, text)
						return false
					}
				}
			}
		}
		return true
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := Open(LS, WithValues())
		if _, err := db.Append(append(append([]byte("<r>"), fragment(r, 1)...), "</r>"...)); err != nil {
			t.Fatal(err)
		}
		for op := 0; op < 12; op++ {
			text, _ := db.Text()
			doc, err := xmltree.Parse(text)
			if err != nil {
				t.Fatal(err)
			}
			var elems []*xmltree.Element
			doc.Walk(func(e *xmltree.Element) bool {
				if e != doc.Root {
					elems = append(elems, e)
				}
				return true
			})
			if len(elems) > 0 && r.Intn(3) == 0 {
				if err := db.RemoveElementAt(elems[r.Intn(len(elems))].Start); err != nil {
					t.Fatal(err)
				}
			} else {
				// Right after a start tag (none has attributes), or
				// right after an element below the root.
				at := doc.Root.Start + len("<r>")
				if len(elems) > 0 {
					e := elems[r.Intn(len(elems))]
					at = e.End
					if r.Intn(2) == 0 {
						at = e.Start + len("<"+e.Tag+">")
					}
				}
				if _, err := db.Insert(at, fragment(r, 2)); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.CheckConsistency(); err != nil {
				t.Logf("seed %d op %d: %v", seed, op, err)
				return false
			}
			if !agrees(db) {
				t.Logf("seed %d op %d", seed, op)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
