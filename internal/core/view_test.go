package core

import (
	"sync"
	"testing"
)

// TestStaleViewNotRetained: once the head generation has moved past the
// published view the slot is emptied — nothing but a reader's own
// reference keeps the clone alive — while an open (or poisoned, never
// closed) publish batch keeps serving its pre-batch view.
func TestStaleViewNotRetained(t *testing.T) {
	s := NewStore(LD)
	mustInsert(t, s, 0, "<a><b/></a>")
	held := s.AcquireView()
	if st := s.ViewStats(); st.Live != 1 || st.PublishedGen != held.Generation() {
		t.Fatalf("after first acquire: %+v", st)
	}

	// Un-batched bump: the slot lets go, the reader's reference stands.
	mustInsert(t, s, 3, "<c/>")
	if st := s.ViewStats(); st.PublishedGen != 0 || st.Live != 1 {
		t.Fatalf("after an update, with a reader holding the old view: %+v", st)
	}
	if text, _ := held.Text(); string(text) != "<a><b/></a>" {
		t.Fatalf("held view reads %q", text)
	}
	held.Release()
	if st := s.ViewStats(); st.Live != 0 || st.Reclaimed != 1 {
		t.Fatalf("after the reader released: %+v", st)
	}

	// Batched: the pre-batch view is served throughout the batch and
	// dropped by EndGenBatch.
	s.BeginGenBatch()
	pre := s.ViewStats().PublishedGen
	mustInsert(t, s, 3, "<d/>")
	v := s.AcquireView()
	if v.Generation() != pre || s.ViewStats().PublishedGen != pre {
		t.Fatalf("mid-batch acquire got generation %d, pre-batch view is %d", v.Generation(), pre)
	}
	if text, _ := v.Text(); string(text) != "<a><c/><b/></a>" {
		t.Fatalf("mid-batch view reads %q", text)
	}
	v.Release()
	s.EndGenBatch()
	if st := s.ViewStats(); st.PublishedGen != 0 || st.Live != 0 || st.HeadGen != pre+1 {
		t.Fatalf("after EndGenBatch: %+v", st)
	}
	v = s.AcquireView()
	if text, _ := v.Text(); string(text) != "<a><d/><c/><b/></a>" || v.Generation() != pre+1 {
		t.Fatalf("post-batch view reads %q at generation %d", text, v.Generation())
	}
	v.Release()
}

// TestViewTagPlanStatPinned: a view's planner statistics are those of
// its own generation, whatever the head does afterwards, and a tag the
// view does not hold is answered without growing the memo.
func TestViewTagPlanStatPinned(t *testing.T) {
	s := NewStore(LD)
	mustInsert(t, s, 0, "<a><b/></a>")
	v := s.AcquireView()
	defer v.Release()
	if card, segs, _ := v.TagPlanStat("b"); card != 1 || segs != 1 {
		t.Fatalf("b before the insert: card %d segs %d, want 1 1", card, segs)
	}
	mustInsert(t, s, 3, "<b><b/></b>")
	if card, segs, _ := v.TagPlanStat("b"); card != 1 || segs != 1 || v.TagCardinality("b") != 1 {
		t.Fatalf("held view after the insert: card %d segs %d, want 1 1", card, segs)
	}
	if card, segs, pathLen := v.TagPlanStat("nosuch"); card != 0 || segs != 0 || pathLen != 0 {
		t.Fatalf("unknown tag: %d %d %d", card, segs, pathLen)
	}
	n := 0
	v.planStats.Range(func(_, _ any) bool { n++; return true })
	if n != 1 {
		t.Fatalf("memo holds %d tags, want 1", n)
	}
	// Readers share the fresh view's memo from the first call on.
	w := s.AcquireView()
	defer w.Release()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if card, segs, _ := w.TagPlanStat("b"); card != 3 || segs != 2 {
				t.Errorf("fresh view: card %d segs %d, want 3 2", card, segs)
			}
		}()
	}
	wg.Wait()
}
