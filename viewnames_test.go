package lazyxml

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

// cutState is one shard's named documents (name → text) as of a store
// generation, recorded by the shard's only writer right after an op.
type cutState struct {
	gen  uint64
	docs map[string]string
}

// cutHistory is the lockstep model of one shard: its states in
// generation order.
type cutHistory struct {
	mu     sync.Mutex
	states []cutState
}

func (h *cutHistory) record(gen uint64, docs map[string]string) {
	cp := make(map[string]string, len(docs))
	for n, s := range docs {
		cp[n] = s
	}
	h.mu.Lock()
	h.states = append(h.states, cutState{gen: gen, docs: cp})
	h.mu.Unlock()
}

// candidates returns the states a read that observed the shard somewhere
// in generations [lo, hi] may legally report: every state recorded in
// that range, plus the neighbours around it. A generation between two
// recorded ones is an op's inner step — after Put's segment, before its
// name (the old names); after Delete's removal, before its name deletion
// (the new names: the name no longer resolves) — so one of the two
// neighbours names exactly what a view at that generation resolves.
func (h *cutHistory) candidates(lo, hi uint64) []map[string]string {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []map[string]string
	for i, st := range h.states {
		last := i == len(h.states)-1
		if (st.gen <= lo && (last || h.states[i+1].gen > lo)) || (st.gen >= lo && st.gen <= hi) ||
			(st.gen >= hi && (i == 0 || h.states[i-1].gen < hi)) {
			out = append(out, st.docs)
		}
	}
	return out
}

// cutDoc renders version v of a document: v <i/> children, so a
// document-scoped count of "i" names the version it read.
func cutDoc(name string, v int) string {
	return fmt.Sprintf("<d n=%q>%s</d>", name, strings.Repeat("<i/>", v))
}

// TestViewNameCut: names travel with views. Per shard one writer Puts,
// Deletes and Collapses documents and records the lockstep model's state
// at every generation it leaves behind, while readers pin View, ViewAll,
// Names and QueryDocStream. Every name a pinned handle lists resolves in
// that handle, and what it reads is the model's state at the handle's
// generation — names and texts from one generation, by construction.
// Afterwards every document lives on the shard its name hashes to: after
// reopen, on a follower fed the primary's records, and after a re-seed.
func TestViewNameCut(t *testing.T) {
	for _, shards := range []int{1, 2} {
		for _, gc := range []bool{false, true} {
			shards, gc := shards, gc
			t.Run(fmt.Sprintf("shards=%d/groupcommit=%v", shards, gc), func(t *testing.T) {
				var jOpts []JournalOption
				if gc {
					jOpts = append(jOpts, WithGroupCommit(0))
				}
				dir := t.TempDir()
				sc, err := OpenShardedCollection(dir, shards, LD, nil, jOpts...)
				if err != nil {
					t.Fatal(err)
				}
				seed := int64(shards)
				if gc {
					seed += 10
				}
				final := viewNameCutRun(t, sc, seed)
				if err := sc.Close(); err != nil {
					t.Fatal(err)
				}

				re, err := OpenShardedCollection(dir, shards, LD, nil, jOpts...)
				if err != nil {
					t.Fatal(err)
				}
				defer re.Close()
				checkHashPlacement(t, "reopened", re, final)

				fol, err := OpenShardedCollection(t.TempDir(), shards, LD, nil, jOpts...)
				if err != nil {
					t.Fatal(err)
				}
				defer fol.Close()
				for i := 0; i < shards; i++ {
					var cur JournalCursor
					recs, err := re.ShardJournal(i).ReadRecords(&cur, 100000)
					if err != nil {
						t.Fatal(err)
					}
					datas := make([][]byte, len(recs))
					for k, r := range recs {
						datas[k] = r.Data
					}
					if _, err := fol.ApplyRecords(i, datas); err != nil {
						t.Fatalf("follower shard %d: %v", i, err)
					}
				}
				checkHashPlacement(t, "follower", fol, final)

				rs, err := OpenShardedCollection(t.TempDir(), shards, LD, nil, jOpts...)
				if err != nil {
					t.Fatal(err)
				}
				defer rs.Close()
				for i := 0; i < shards; i++ {
					snap, err := re.CaptureShardSnapshot(i)
					if err != nil {
						t.Fatal(err)
					}
					if err := rs.InstallReseed(i, snap); err != nil {
						t.Fatal(err)
					}
				}
				checkHashPlacement(t, "re-seeded", rs, final)
			})
		}
	}
}

// viewNameCutRun churns sc with one writer per shard against concurrent
// readers, checks every reader observation against the model, and
// returns the final name → text map.
func viewNameCutRun(t *testing.T, sc *ShardedCollection, seed int64) map[string]string {
	const (
		namesPerShard = 4
		opsPerShard   = 120
		readers       = 3
	)
	n := sc.ShardCount()
	gen := func(i int) uint64 { return sc.ShardJournal(i).Store().Generation() }
	gens := func() []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = gen(i)
		}
		return out
	}
	hist := make([]*cutHistory, n)
	pool := make([][]string, n)
	var all []string
	for i := range hist {
		hist[i] = &cutHistory{}
		hist[i].record(gen(i), nil)
		for k := 0; k < namesPerShard; k++ {
			pool[i] = append(pool[i], nameOnShard(sc, fmt.Sprintf("s%d-doc%d", i, k), i))
		}
		all = append(all, pool[i]...)
	}

	finals := make([]map[string]string, n)
	var writers sync.WaitGroup
	for i := 0; i < n; i++ {
		writers.Add(1)
		go func(i int) {
			defer writers.Done()
			r := rand.New(rand.NewSource(seed*31 + int64(i)))
			docs := map[string]string{}
			for op := 0; op < opsPerShard; op++ {
				name := pool[i][r.Intn(len(pool[i]))]
				var err error
				switch _, ok := docs[name]; {
				case !ok:
					text := cutDoc(name, 1+op)
					if err = sc.Put(name, []byte(text)); err == nil {
						docs[name] = text
					}
				case r.Intn(2) == 0:
					if err = sc.Delete(name); err == nil {
						delete(docs, name)
					}
				default:
					_, err = sc.Collapse(name)
				}
				if err != nil {
					t.Errorf("shard %d op %d on %s: %v", i, op, name, err)
					return
				}
				hist[i].record(gen(i), docs)
			}
			finals[i] = docs
		}(i)
	}

	// Reader observations, checked against the model once it is complete.
	type observation struct {
		what   string
		shard  int
		lo, hi uint64
		check  func(docs map[string]string) bool
	}
	var (
		omu sync.Mutex
		obs []observation
	)
	observe := func(o observation) {
		omu.Lock()
		obs = append(obs, o)
		omu.Unlock()
	}
	done := make(chan struct{})
	var readersWG sync.WaitGroup
	for rd := 0; rd < readers; rd++ {
		readersWG.Add(1)
		go func(rd int) {
			defer readersWG.Done()
			r := rand.New(rand.NewSource(seed*97 + int64(rd)))
			for {
				select {
				case <-done:
					return
				default:
				}
				name := all[r.Intn(len(all))]
				si := sc.hashShard(name)
				switch r.Intn(4) {
				case 0: // View
					lo := gen(si)
					dv, err := sc.View(name)
					if err != nil {
						observe(observation{"View(" + name + ") unknown", si, lo, gen(si), func(d map[string]string) bool {
							_, ok := d[name]
							return !ok
						}})
						continue
					}
					g := dv.Generation().Gen
					text, err := dv.Text()
					dv.Release()
					if err != nil {
						t.Errorf("View(%s) at gen %d lists the name but Text fails: %v", name, g, err)
						continue
					}
					observe(observation{"View(" + name + ")", si, g, g, func(d map[string]string) bool { return d[name] == string(text) }})
				case 1: // ViewAll
					cv, err := sc.ViewAll()
					if err != nil {
						t.Error(err)
						continue
					}
					vg := cv.Generations()
					got := make([]map[string]string, n)
					for i := range got {
						got[i] = map[string]string{}
					}
					for _, nm := range cv.Names() {
						text, err := cv.Text(nm)
						if err != nil {
							t.Errorf("ViewAll lists %s but cannot read it: %v", nm, err)
							continue
						}
						got[sc.hashShard(nm)][nm] = string(text)
					}
					cv.Release()
					for i := range got {
						want := got[i]
						observe(observation{fmt.Sprintf("ViewAll shard %d %v", i, want), i, vg[i].Gen, vg[i].Gen, func(d map[string]string) bool {
							return fmt.Sprint(d) == fmt.Sprint(want)
						}})
					}
				case 2: // Names
					lo := gens()
					names := sc.Names()
					hi := gens()
					per := make([][]string, n)
					for _, nm := range names {
						per[sc.hashShard(nm)] = append(per[sc.hashShard(nm)], nm)
					}
					for i := range per {
						want := fmt.Sprint(per[i])
						observe(observation{"Names " + want, i, lo[i], hi[i], func(d map[string]string) bool {
							var keys []string
							for k := range d {
								keys = append(keys, k)
							}
							sort.Strings(keys)
							return fmt.Sprint(keys) == want
						}})
					}
				case 3: // QueryDocStream
					lo := gen(si)
					rs, err := sc.QueryDocStream(name, "i", StreamOpt{})
					if err != nil {
						observe(observation{"QueryDocStream(" + name + ") unknown", si, lo, gen(si), func(d map[string]string) bool {
							_, ok := d[name]
							return !ok
						}})
						continue
					}
					count := 0
					for {
						_, err := rs.Next()
						if err == io.EOF {
							break
						}
						if err != nil {
							t.Errorf("QueryDocStream(%s): %v", name, err)
							break
						}
						count++
					}
					rs.Close()
					observe(observation{fmt.Sprintf("QueryDocStream(%s) = %d", name, count), si, lo, gen(si), func(d map[string]string) bool {
						text, ok := d[name]
						return ok && strings.Count(text, "<i/>") == count
					}})
				}
			}
		}(rd)
	}
	writers.Wait()
	close(done)
	readersWG.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for _, o := range obs {
		ok := false
		for _, d := range hist[o.shard].candidates(o.lo, o.hi) {
			if o.check(d) {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("%s: no model state of shard %d in generations [%d,%d] agrees", o.what, o.shard, o.lo, o.hi)
		}
	}
	if len(obs) == 0 {
		t.Fatal("readers made no observation")
	}
	final := map[string]string{}
	for _, docs := range finals {
		for name, text := range docs {
			final[name] = text
		}
	}
	return final
}

// checkHashPlacement asserts that every document of sc lives on the shard
// its name hashes to, that ShardOf agrees, and that sc holds exactly want.
func checkHashPlacement(t *testing.T, what string, sc *ShardedCollection, want map[string]string) {
	t.Helper()
	got := map[string]string{}
	for i := 0; i < sc.ShardCount(); i++ {
		for _, name := range sc.shardAt(i).Names() {
			if h := sc.hashShard(name); h != i || sc.ShardOf(name) != h {
				t.Fatalf("%s: %s lives on shard %d, hashes to %d, ShardOf says %d", what, name, i, h, sc.ShardOf(name))
			}
			text, err := sc.Text(name)
			if err != nil {
				t.Fatalf("%s: %s: %v", what, name, err)
			}
			got[name] = string(text)
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s holds %v, want %v", what, got, want)
	}
	if err := sc.CheckConsistency(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if _, err := sc.Text("never-put"); err == nil || !strings.Contains(err.Error(), "unknown document") {
		t.Fatalf("%s: unknown name reads as %v", what, err)
	}
}

// TestShardLenMatchesNames checks that a shard's Len (and a collection
// view's) counts exactly the names Names lists, across put, delete, and
// a name whose segment is not in the view.
func TestShardLenMatchesNames(t *testing.T) {
	c := NewShardedCollection(1, LD)
	sh := c.shards[0]
	check := func(step string, want int) {
		t.Helper()
		if n, names := sh.Len(), sh.Names(); n != len(names) || n != want {
			t.Fatalf("%s: Len() = %d, len(Names()) = %d, want %d", step, n, len(names), want)
		}
	}
	check("empty", 0)
	for _, name := range []string{"a", "b", "c"} {
		if err := c.Put(name, []byte("<d><i/></d>")); err != nil {
			t.Fatal(err)
		}
	}
	check("put", 3)
	if err := c.Delete("b"); err != nil {
		t.Fatal(err)
	}
	check("delete", 2)
	v := sh.db.store.AcquireView()
	names := v.NameMap()
	v.Release()
	names["ghost"] = 1 << 40 // no such segment
	sh.db.store.SetNames(names)
	sh.db.store.InvalidateViews()
	if _, ok := sh.db.store.NameSID("ghost"); !ok {
		t.Fatal("ghost name not installed")
	}
	check("name without segment", 2)
	cv, err := c.ViewAll()
	if err != nil {
		t.Fatal(err)
	}
	defer cv.Release()
	if cv.Len() != len(cv.Names()) || cv.Len() != 2 {
		t.Fatalf("CollectionView: Len() = %d, Names() = %v", cv.Len(), cv.Names())
	}
}
