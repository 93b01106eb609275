package lazyxml

import (
	"bytes"
	"testing"
)

func TestCollectionPutQueryDelete(t *testing.T) {
	c := NewCollection(LD)
	if err := c.Put("catalog", []byte("<catalog><book/><book/></catalog>")); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("orders", []byte("<orders><order><book/></order></orders>")); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "catalog" || names[1] != "orders" {
		t.Fatalf("Names = %v", names)
	}
	// Whole-collection query sees both documents.
	all, err := c.Query("book")
	if err != nil || len(all) != 3 {
		t.Fatalf("book = %d, %v", len(all), err)
	}
	// Scoped queries see only their document.
	n, err := c.CountDoc("catalog", "catalog//book")
	if err != nil || n != 2 {
		t.Fatalf("catalog//book in catalog = %d, %v", n, err)
	}
	n, err = c.CountDoc("orders", "book")
	if err != nil || n != 1 {
		t.Fatalf("book in orders = %d, %v", n, err)
	}
	n, err = c.CountDoc("catalog", "order")
	if err != nil || n != 0 {
		t.Fatalf("order in catalog = %d, %v", n, err)
	}
	// Delete one document.
	if err := c.Delete("catalog"); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
	all, err = c.Query("book")
	if err != nil || len(all) != 1 {
		t.Fatalf("book after delete = %d, %v", len(all), err)
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestCollectionErrors(t *testing.T) {
	c := NewCollection(LD)
	if err := c.Put("a", []byte("<a/>")); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("a", []byte("<a/>")); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if err := c.Put("bad", []byte("<unclosed>")); err == nil {
		t.Fatal("malformed document accepted")
	}
	if err := c.Delete("missing"); err == nil {
		t.Fatal("deleting unknown document succeeded")
	}
	if _, err := c.Text("missing"); err == nil {
		t.Fatal("Text of unknown document succeeded")
	}
	if _, err := c.QueryDoc("missing", "a"); err == nil {
		t.Fatal("QueryDoc of unknown document succeeded")
	}
	if _, err := c.Insert("a", 99, []byte("<x/>")); err == nil {
		t.Fatal("out-of-range insert accepted")
	}
}

func TestCollectionInsertRelativeOffsets(t *testing.T) {
	c := NewCollection(LD)
	if err := c.Put("one", []byte("<one></one>")); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("two", []byte("<two></two>")); err != nil {
		t.Fatal(err)
	}
	// Insert into the SECOND document at its local content offset.
	if _, err := c.Insert("two", 5, []byte("<x/>")); err != nil {
		t.Fatal(err)
	}
	text, err := c.Text("two")
	if err != nil {
		t.Fatal(err)
	}
	if string(text) != "<two><x/></two>" {
		t.Fatalf("two = %s", text)
	}
	// The first document is untouched.
	text, _ = c.Text("one")
	if string(text) != "<one></one>" {
		t.Fatalf("one = %s", text)
	}
	// Spans track later edits: grow doc one and re-check doc two.
	if _, err := c.Insert("one", 5, []byte("<y/>")); err != nil {
		t.Fatal(err)
	}
	text, _ = c.Text("two")
	if !bytes.Equal(text, []byte("<two><x/></two>")) {
		t.Fatalf("two after editing one = %s", text)
	}
	if n, _ := c.CountDoc("two", "two//x"); n != 1 {
		t.Fatal("scoped query lost the match after unrelated edit")
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestCollectionTagCollisionAcrossDocs(t *testing.T) {
	// Same tag names in different documents must not leak across scopes.
	c := NewCollection(LD)
	for _, name := range []string{"d1", "d2", "d3"} {
		if err := c.Put(name, []byte("<doc><item/><item/></doc>")); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"d1", "d2", "d3"} {
		n, err := c.CountDoc(name, "doc//item")
		if err != nil || n != 2 {
			t.Fatalf("%s: %d, %v", name, n, err)
		}
	}
	all, _ := c.Query("doc//item")
	if len(all) != 6 {
		t.Fatalf("collection-wide = %d", len(all))
	}
}

func TestCollectionRemove(t *testing.T) {
	c := NewCollection(LD)
	if err := c.Put("cat", []byte("<cat><a/><b/></cat>")); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("dog", []byte("<dog><a/></dog>")); err != nil {
		t.Fatal(err)
	}
	// "<cat>" is 5 bytes; <a/> spans [5,9) within the document.
	if err := c.Remove("cat", 5, 4); err != nil {
		t.Fatal(err)
	}
	text, err := c.Text("cat")
	if err != nil || string(text) != "<cat><b/></cat>" {
		t.Fatalf("cat = %s, %v", text, err)
	}
	// The other document is untouched even though its global span shifted.
	if text, _ := c.Text("dog"); string(text) != "<dog><a/></dog>" {
		t.Fatalf("dog = %s", text)
	}
	if n, _ := c.CountDoc("dog", "dog//a"); n != 1 {
		t.Fatal("dog lost its match")
	}
	// Out-of-range and degenerate removals are rejected.
	if err := c.Remove("cat", 5, 0); err == nil {
		t.Fatal("zero-length removal accepted")
	}
	if err := c.Remove("cat", -1, 4); err == nil {
		t.Fatal("negative offset accepted")
	}
	if err := c.Remove("cat", 5, 1000); err == nil {
		t.Fatal("range past document end accepted")
	}
	if err := c.Remove("nosuch", 0, 1); err == nil {
		t.Fatal("unknown document accepted")
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestCollectionRemoveElementAt(t *testing.T) {
	c := NewCollection(LD)
	if err := c.Put("cat", []byte("<cat><a><x/></a><b/></cat>")); err != nil {
		t.Fatal(err)
	}
	// <a> starts at document offset 5; removing it takes <x/> along.
	if err := c.RemoveElementAt("cat", 5); err != nil {
		t.Fatal(err)
	}
	text, err := c.Text("cat")
	if err != nil || string(text) != "<cat><b/></cat>" {
		t.Fatalf("cat = %s, %v", text, err)
	}
	// No element starts mid-tag.
	if err := c.RemoveElementAt("cat", 1); err == nil {
		t.Fatal("mid-tag offset accepted")
	}
	if err := c.RemoveElementAt("cat", -1); err == nil {
		t.Fatal("negative offset accepted")
	}
	if err := c.RemoveElementAt("cat", 1000); err == nil {
		t.Fatal("offset past document end accepted")
	}
	if err := c.RemoveElementAt("nosuch", 0); err == nil {
		t.Fatal("unknown document accepted")
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestCollectionSIDAndStats(t *testing.T) {
	c := NewCollection(LD)
	if err := c.Put("a", []byte("<a><b/></a>")); err != nil {
		t.Fatal(err)
	}
	sid, ok := c.SID("a")
	if !ok || sid == 0 {
		t.Fatalf("SID = %d, %v", sid, ok)
	}
	if _, ok := c.SID("nosuch"); ok {
		t.Fatal("SID of unknown document")
	}
	if st := c.Stats(); st.Segments != 1 || st.Elements != 2 {
		t.Fatalf("Stats = %+v", st)
	}
	if n, err := c.Count("a//b"); err != nil || n != 1 {
		t.Fatalf("Count = %d, %v", n, err)
	}
}
