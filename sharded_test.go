package lazyxml

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// nameOnShard probes for a document name the collection would route to
// the wanted shard.
func nameOnShard(sc *ShardedCollection, base string, want int) string {
	for k := 0; ; k++ {
		name := fmt.Sprintf("%s-%d", base, k)
		if sc.hashShard(name) == want {
			return name
		}
	}
}

func TestShardedRoutingAndFanout(t *testing.T) {
	sc := NewShardedCollection(4, LD)
	if sc.ShardCount() != 4 {
		t.Fatalf("ShardCount = %d", sc.ShardCount())
	}
	if sc.IsDurable() {
		t.Fatal("in-memory collection claims durability")
	}

	// One document per shard plus extras, so every shard serves.
	var names []string
	for s := 0; s < 4; s++ {
		for i := 0; i < 2; i++ {
			name := nameOnShard(sc, fmt.Sprintf("doc%d", i), s)
			names = append(names, name)
			doc := fmt.Sprintf("<d><a><b n=\"%d\"/></a></d>", s)
			if err := sc.Put(name, []byte(doc)); err != nil {
				t.Fatalf("Put %s: %v", name, err)
			}
		}
	}
	if sc.Len() != 8 {
		t.Fatalf("Len = %d", sc.Len())
	}
	if got := sc.Names(); len(got) != 8 {
		t.Fatalf("Names = %v", got)
	}

	// Routing is stable: the shard a document reports is the shard that
	// actually holds it.
	for _, name := range names {
		si := sc.ShardOf(name)
		found := false
		for _, held := range sc.shards[si].Names() {
			if held == name {
				found = true
			}
		}
		if !found {
			t.Fatalf("document %s reported on shard %d but not held there", name, si)
		}
	}

	// Duplicate and unknown names fail with the canonical errors.
	if err := sc.Put(names[0], []byte("<d/>")); err == nil {
		t.Fatal("duplicate Put succeeded")
	}
	if _, err := sc.Text("nope"); err == nil {
		t.Fatal("Text of unknown document succeeded")
	}

	// Whole-collection fan-out equals the per-shard sum; doc scoping
	// stays exact.
	n, err := sc.Count("d//b")
	if err != nil || n != 8 {
		t.Fatalf("Count = %d, %v", n, err)
	}
	ms, err := sc.Query("a//b")
	if err != nil || len(ms) != 8 {
		t.Fatalf("Query = %d, %v", len(ms), err)
	}
	if c, err := sc.CountDoc(names[0], "d//b"); err != nil || c != 1 {
		t.Fatalf("CountDoc = %d, %v", c, err)
	}

	// Doc-relative updates route through; stats aggregate across shards.
	if _, err := sc.Insert(names[0], 3, []byte("<b n=\"x\"/>")); err != nil {
		t.Fatal(err)
	}
	if n, _ := sc.Count("d//b"); n != 9 {
		t.Fatalf("Count after insert = %d", n)
	}
	st := sc.Stats()
	if st.Inserts != 9 { // 8 Puts appended + 1 Insert
		t.Fatalf("aggregate Inserts = %d", st.Inserts)
	}
	per := sc.ShardStats()
	if len(per) != 4 {
		t.Fatalf("ShardStats = %d entries", len(per))
	}
	var docs, inserts int
	for i, ss := range per {
		if ss.Shard != i {
			t.Fatalf("ShardStats[%d].Shard = %d", i, ss.Shard)
		}
		if ss.Docs != 2 {
			t.Fatalf("shard %d holds %d docs, want 2", i, ss.Docs)
		}
		docs += ss.Docs
		inserts += ss.Stats.Inserts
	}
	if docs != sc.Len() || inserts != st.Inserts {
		t.Fatalf("per-shard sums (%d docs, %d inserts) disagree with aggregate (%d, %d)",
			docs, inserts, sc.Len(), st.Inserts)
	}

	// Shard-parallel maintenance keeps everything consistent.
	if err := sc.CollapseAll(); err != nil {
		t.Fatal(err)
	}
	if err := sc.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if n, _ := sc.Count("d//b"); n != 9 {
		t.Fatalf("Count after collapse = %d", n)
	}

	if err := sc.Delete(names[0]); err != nil {
		t.Fatal(err)
	}
	if sc.Len() != 7 {
		t.Fatalf("Len after delete = %d", sc.Len())
	}
}

func TestShardedDurableReopenPersistedCountWins(t *testing.T) {
	dir := t.TempDir()
	sc, err := OpenShardedCollection(dir, 3, LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for s := 0; s < 3; s++ {
		name := nameOnShard(sc, "doc", s)
		names = append(names, name)
		if err := sc.Put(name, []byte("<d></d>")); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := sc.Insert(name, 3, []byte(fmt.Sprintf("<x n=\"%d\"/>", i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := map[string][]byte{}
	for _, name := range names {
		text, err := sc.Text(name)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = text
	}
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen asking for ONE shard: the persisted count must win, and
	// every document must come back on the shard that holds it.
	sc2, err := OpenShardedCollection(dir, 1, LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sc2.Close()
	if sc2.ShardCount() != 3 {
		t.Fatalf("ShardCount after reopen = %d, want persisted 3", sc2.ShardCount())
	}
	for name, text := range want {
		got, err := sc2.Text(name)
		if err != nil {
			t.Fatalf("Text(%s) after reopen: %v", name, err)
		}
		if !bytes.Equal(got, text) {
			t.Fatalf("document %s changed across reopen:\n%s\nvs\n%s", name, got, text)
		}
	}
	if err := sc2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedLegacyMigration covers the compatibility contract: a
// journal directory written by the pre-sharding JournaledCollection
// opens as a one-shard collection with identical recovered contents, and
// is refused (not silently emptied) when asked for more shards.
func TestShardedLegacyMigration(t *testing.T) {
	dir := t.TempDir()
	jc, err := OpenShardedCollection(dir, 1, LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := jc.Put("alpha", []byte("<a></a>")); err != nil {
		t.Fatal(err)
	}
	if err := jc.Put("beta", []byte("<b><c/></b>")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := jc.Insert("alpha", 3, []byte("<x/>")); err != nil {
			t.Fatal(err)
		}
	}
	alpha, _ := jc.Text("alpha")
	beta, _ := jc.Text("beta")
	if err := jc.Close(); err != nil {
		t.Fatal(err)
	}

	// Asking for 4 shards on a legacy layout must refuse.
	if _, err := OpenShardedCollection(dir, 4, LD, nil); err == nil {
		t.Fatal("opening a legacy single-store dir with 4 shards succeeded")
	}

	sc, err := OpenShardedCollection(dir, 1, LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if sc.ShardCount() != 1 || sc.Len() != 2 {
		t.Fatalf("legacy reopen: %d shards, %d docs", sc.ShardCount(), sc.Len())
	}
	if got, _ := sc.Text("alpha"); !bytes.Equal(got, alpha) {
		t.Fatalf("alpha after migration:\n%s\nwant\n%s", got, alpha)
	}
	if got, _ := sc.Text("beta"); !bytes.Equal(got, beta) {
		t.Fatalf("beta after migration:\n%s\nwant\n%s", got, beta)
	}
	if n, err := sc.CountDoc("alpha", "a//x"); err != nil || n != 4 {
		t.Fatalf("alpha count = %d, %v", n, err)
	}
	if err := sc.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// One-shard mode must not have introduced shard subdirectories or a
	// meta file: the layout stays byte-compatible with the legacy dir.
	if _, err := os.Stat(filepath.Join(dir, shardsMetaName)); err == nil {
		t.Fatal("one-shard open wrote a shards.meta into a legacy dir")
	}
	if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf(shardDirFormat, 0))); err == nil {
		t.Fatal("one-shard open created a shard subdirectory")
	}
}

// TestShardedTornTailOneShard crashes one shard mid-append (a torn
// record at its WAL tail) and verifies recovery is per-shard: the torn
// shard drops only the unacknowledged tail while every other shard
// replays cleanly.
func TestShardedTornTailOneShard(t *testing.T) {
	dir := t.TempDir()
	sc, err := OpenShardedCollection(dir, 3, LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 3)
	for s := 0; s < 3; s++ {
		names[s] = nameOnShard(sc, "doc", s)
		if err := sc.Put(names[s], []byte("<d></d>")); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if _, err := sc.Insert(names[s], 3, []byte(fmt.Sprintf("<x n=\"%d\"/>", i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	victim := sc.ShardOf(names[1])
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash mid-write on the victim shard: a record with a valid prefix
	// but a missing checksum, exactly what a power cut during append
	// leaves behind.
	torn := encodeUnit([]core.Op{{Kind: core.OpInsert, GP: 3, Frag: []byte("<z/>")}})
	walPath := filepath.Join(dir, fmt.Sprintf(shardDirFormat, victim), journalName)
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)-2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	sc2, err := OpenShardedCollection(dir, 3, LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sc2.Close()
	// Every acknowledged update survives on every shard; the torn insert
	// (never acknowledged) is gone.
	for s := 0; s < 3; s++ {
		n, err := sc2.CountDoc(names[s], "d//x")
		if err != nil || n != 5 {
			t.Fatalf("shard %d count after torn-tail recovery = %d, %v", s, n, err)
		}
	}
	if n, _ := sc2.Count("d//z"); n != 0 {
		t.Fatal("torn record was replayed")
	}
	if err := sc2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// The revived collection keeps serving durable updates on the torn
	// shard.
	if _, err := sc2.Insert(names[victim], 3, []byte("<post/>")); err != nil {
		t.Fatal(err)
	}
}

// TestOpenShardedCorruptShardError: shards open in parallel, yet a
// directory whose shard-2 and shard-3 logs are both corrupt fails with
// shard 2's error, the lowest-numbered one, every time. The shards that
// did open are closed again, so once the logs are mended the directory
// reopens with every document in place.
func TestOpenShardedCorruptShardError(t *testing.T) {
	dir := t.TempDir()
	sc, err := OpenShardedCollection(dir, 4, LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for s := 0; s < 4; s++ {
		name := nameOnShard(sc, "doc", s)
		names = append(names, name)
		if err := sc.Put(name, []byte("<d><e/></d>")); err != nil {
			t.Fatal(err)
		}
	}
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
	logOf := func(i int) string {
		return filepath.Join(dir, fmt.Sprintf(shardDirFormat, i), journalName)
	}
	good := map[int][]byte{}
	for _, i := range []int{2, 3} {
		b, err := os.ReadFile(logOf(i))
		if err != nil {
			t.Fatal(err)
		}
		good[i] = b
		if err := os.WriteFile(logOf(i), append([]byte("XXXXX"), b[5:]...), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for run := 0; run < 10; run++ {
		_, err := OpenShardedCollection(dir, 4, LD, nil)
		if err == nil || !strings.Contains(err.Error(), "opening shard 2:") {
			t.Fatalf("run %d: open = %v, want shard 2's error", run, err)
		}
	}
	for i, b := range good {
		if err := os.WriteFile(logOf(i), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	re, err := OpenShardedCollection(dir, 4, LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, name := range names {
		if _, err := re.Text(name); err != nil {
			t.Fatalf("%s after reopen: %v", name, err)
		}
	}
}
