package core

import "testing"

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

	// BumpGeneration (the compaction hook) retires it as well.
	s.BumpGeneration()
	if st := s.ViewStats(); st.PublishedGen != 0 || st.Live != 0 {
		t.Fatalf("after BumpGeneration: %+v", st)
	}
}
