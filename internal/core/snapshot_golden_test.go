package core

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.lxml from goldenHistory")

// goldenPath holds the snapshot of goldenHistory's store, written before
// segment positions became parent-relative in memory (the format keeps
// absolute ones). Regenerate it only on a deliberate format change:
// go test ./internal/core -run TestSnapshotGolden -update-golden.
var goldenPath = filepath.Join("testdata", "golden.lxml")

// goldenHistory builds a store whose snapshot exercises every part of
// the SB-tree and tag-list encodings: 300 fragments inserted at random
// tag boundaries (inside earlier fragments too), so one tag's path list
// runs past several chunks, and element removals that take whole
// segments, cut through a parent's own text and leave tombstones.
func goldenHistory(t *testing.T) *Store {
	t.Helper()
	r := rand.New(rand.NewSource(51))
	s := NewStore(LD, WithAttributes())
	var base bytes.Buffer
	base.WriteString("<r>")
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&base, "<a n=\"%d\"><b>x</b></a>", i)
	}
	base.WriteString("</r>")
	if _, err := s.InsertSegment(0, base.Bytes()); err != nil {
		t.Fatal(err)
	}
	// boundary returns a random offset between two tags, past the root's
	// start tag; opening picks one where an element starts.
	boundary := func(opening bool) int {
		text, err := s.Text()
		if err != nil {
			t.Fatal(err)
		}
		for {
			i := 4 + r.Intn(len(text)-8)
			for ; i < len(text)-4; i++ {
				if text[i-1] == '>' && text[i] == '<' && (!opening || text[i+1] != '/') {
					return i
				}
			}
		}
	}
	for i := 0; i < 360; i++ {
		if i%6 == 5 {
			gp := boundary(true)
			n, err := s.ElementExtentAt(gp)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.RemoveSegment(gp, n); err != nil {
				t.Fatal(err)
			}
			continue
		}
		frag := fmt.Sprintf("<a n=\"f%d\"><c>y</c></a>", i)
		if _, err := s.InsertSegment(boundary(false), []byte(frag)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.CheckAgainstText(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSnapshotGolden holds the snapshot format to the bytes on file: the
// golden snapshot restores and re-encodes byte for byte, and the same
// history built now snapshots to those bytes too.
func TestSnapshotGolden(t *testing.T) {
	var built bytes.Buffer
	if err := goldenHistory(t).Snapshot(&built); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(goldenPath, built.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreStore(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.CheckAgainstText(); err != nil {
		t.Fatal(err)
	}
	v := restored.AcquireView()
	_, segs, _ := v.TagPlanStat("a")
	v.Release()
	if segs <= 256 {
		t.Errorf("tag a is in %d segments; the golden store should run its path list past one 256-entry chunk", segs)
	}
	var again bytes.Buffer
	if err := restored.Snapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), golden) {
		t.Errorf("restored golden snapshot re-encodes to %d bytes that differ from its %d", again.Len(), len(golden))
	}
	if !bytes.Equal(built.Bytes(), golden) {
		t.Errorf("the golden history snapshots to %d bytes that differ from the golden %d", built.Len(), len(golden))
	}
}
