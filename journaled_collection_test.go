package lazyxml

import (
	"os"
	"path/filepath"
	"testing"
)

func TestJournaledCollectionReopen(t *testing.T) {
	dir := t.TempDir()
	jc, err := OpenShardedCollection(dir, 1, LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := jc.Put("catalog", []byte("<catalog><book/></catalog>")); err != nil {
		t.Fatal(err)
	}
	if err := jc.Put("orders", []byte("<orders></orders>")); err != nil {
		t.Fatal(err)
	}
	if _, err := jc.Insert("orders", 8, []byte("<order/>")); err != nil {
		t.Fatal(err)
	}
	if err := jc.Delete("catalog"); err != nil {
		t.Fatal(err)
	}
	if err := jc.Close(); err != nil {
		t.Fatal(err)
	}

	jc2, err := OpenShardedCollection(dir, 1, LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer jc2.Close()
	names := jc2.Names()
	if len(names) != 1 || names[0] != "orders" {
		t.Fatalf("Names = %v", names)
	}
	text, err := jc2.Text("orders")
	if err != nil || string(text) != "<orders><order/></orders>" {
		t.Fatalf("orders = %s, %v", text, err)
	}
	if n, _ := jc2.CountDoc("orders", "orders//order"); n != 1 {
		t.Fatal("scoped query lost the match after reopen")
	}
	if err := jc2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestJournaledCollectionCompact(t *testing.T) {
	dir := t.TempDir()
	jc, err := OpenShardedCollection(dir, 1, LS, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c"} {
		if err := jc.Put(name, []byte("<"+name+"><x/></"+name+">")); err != nil {
			t.Fatal(err)
		}
	}
	if err := jc.Delete("b"); err != nil {
		t.Fatal(err)
	}
	if err := jc.Compact(); err != nil {
		t.Fatal(err)
	}
	// The log is now empty but for its header; everything lives in the
	// snapshot.
	fi, err := os.Stat(filepath.Join(dir, journalName))
	if err != nil || fi.Size() != int64(logHeaderLen) {
		t.Fatalf("%s not emptied: %v, %v", journalName, fi, err)
	}
	// Post-compact updates land in the fresh log and replay on reopen.
	if err := jc.Put("d", []byte("<d/>")); err != nil {
		t.Fatal(err)
	}
	jc.Close()

	jc2, err := OpenShardedCollection(dir, 1, LS, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer jc2.Close()
	names := jc2.Names()
	want := []string{"a", "c", "d"}
	if len(names) != len(want) {
		t.Fatalf("Names = %v", names)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("Names = %v, want %v", names, want)
		}
	}
	if n, _ := jc2.CountDoc("a", "a//x"); n != 1 {
		t.Fatal("doc a lost its content")
	}
	if err := jc2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestJournaledCollectionCrashKeepsConsistency(t *testing.T) {
	dir := t.TempDir()
	jc, err := OpenShardedCollection(dir, 1, LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := jc.Put("log", []byte("<log></log>")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := jc.Insert("log", 5, []byte("<entry/>")); err != nil {
			t.Fatal(err)
		}
	}
	// Hard kill: no Close, no Compact. Then a torn tail in the log.
	w, err := os.OpenFile(filepath.Join(dir, journalName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	w.Write([]byte{opInsert, 0x05})
	w.Close()

	jc2, err := OpenShardedCollection(dir, 1, LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer jc2.Close()
	if n, err := jc2.CountDoc("log", "log//entry"); err != nil || n != 10 {
		t.Fatalf("entries after crash = %d, %v", n, err)
	}
	if err := jc2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestJournaledCollectionOrphanNameDropped(t *testing.T) {
	dir := t.TempDir()
	jc, err := OpenShardedCollection(dir, 1, LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := jc.Put("real", []byte("<real/>")); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash window where a name outlives its segment: a
	// valid name record for a bogus SID.
	if err := jc.ShardJournal(0).append(walRecord{op: opNamePut, sid: 999, name: "ghost"}); err != nil {
		t.Fatal(err)
	}
	jc.Close()

	jc2, err := OpenShardedCollection(dir, 1, LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer jc2.Close()
	names := jc2.Names()
	if len(names) != 1 || names[0] != "real" {
		t.Fatalf("Names = %v", names)
	}
	if err := jc2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestJournaledCollectionRemoveRoutesThroughWAL(t *testing.T) {
	dir := t.TempDir()
	jc, err := OpenShardedCollection(dir, 1, LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := jc.Put("d", []byte("<d><a/><b><c/></b></d>")); err != nil {
		t.Fatal(err)
	}
	if err := jc.Remove("d", 3, 4); err != nil { // <a/>
		t.Fatal(err)
	}
	if err := jc.RemoveElementAt("d", 3); err != nil { // <b><c/></b>
		t.Fatal(err)
	}
	jc.Close()

	jc2, err := OpenShardedCollection(dir, 1, LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer jc2.Close()
	text, err := jc2.Text("d")
	if err != nil || string(text) != "<d></d>" {
		t.Fatalf("d = %s, %v", text, err)
	}
	if err := jc2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
