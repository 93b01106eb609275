package lazyxml

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/faultline"
	"repro/internal/stream"
)

// ShardedCollection is the store: named documents routed across N ≥ 1
// independent shards, in memory or durable. Each shard is its own super
// document, its own update log and, when durable, its own journal
// directory — so the paper's per-store laziness argument scales out, and
// a write to one shard never queues behind a write to another.
//
// Routing: a document's shard is a function of its name — FNV-1a hash
// modulo the shard count. The count is persisted and wins over the
// requested one on reopen, so every path that places a document (Put,
// replication, re-seed) places it by the same hash and the same N, and
// there is no name→shard map to keep or rebuild: each shard's own store
// holds its documents' names.
//
// Whole-collection Query/Count fan out across shards with bounded
// concurrency and merge in shard order (matches within a shard stay in
// document order). Positions and segment ids in matches are shard-local:
// each shard is its own coordinate space. Document-scoped operations are
// routed to exactly one shard and behave exactly as on a single store.
type ShardedCollection struct {
	mu     sync.RWMutex
	shards []*shard
	dir    string // journal root ("" when in-memory)
	fanout int    // max concurrent shards in whole-collection ops

	// Open parameters, kept so a shard can be reopened in place after a
	// snapshot re-seed swap, and the filesystem every shard runs on.
	mode   Mode
	dbOpts []Option
	jOpts  []JournalOption
	fs     faultline.FS

	epoch   int64         // replication epoch (see epoch.go); guarded by mu
	planner *QueryPlanner // shared planned-query state; nil until EnablePlanner
}

const (
	shardsMetaName  = "shards.meta"
	shardsMetaMagic = "LXSM1"
	shardDirFormat  = "shard-%04d"
)

// NewShardedCollection returns an in-memory sharded collection over n
// independent stores (n < 1 is treated as 1).
func NewShardedCollection(n int, mode Mode, opts ...Option) *ShardedCollection {
	if n < 1 {
		n = 1
	}
	sc := &ShardedCollection{shards: make([]*shard, n), fanout: defaultFanout(n)}
	for i := range sc.shards {
		sc.shards[i] = &shard{db: Open(mode, opts...)}
	}
	return sc
}

// NewCollection returns an in-memory collection with a single shard.
func NewCollection(mode Mode, opts ...Option) *ShardedCollection {
	return NewShardedCollection(1, mode, opts...)
}

// OpenShardedCollection opens (or creates) a durable sharded collection
// in dir. Each shard keeps its own journal directory (shard-0000,
// shard-0001, …) with the exact single-store layout inside; with one
// shard the root directory itself is the shard, byte-compatible with a
// pre-sharding journal directory, so old data opens unchanged.
//
// The shard count is persisted in shards.meta once more than one shard
// exists; on reopen the persisted count always wins over the requested
// one, so data never silently lands on the wrong shard. Opening a legacy
// single-store directory with n > 1 is refused rather than guessed at.
func OpenShardedCollection(dir string, n int, mode Mode, dbOpts []Option, jOpts ...JournalOption) (*ShardedCollection, error) {
	if n < 1 {
		n = 1
	}
	fs := journalFS(jOpts)
	n, err := resolveShardCount(fs, dir, n)
	if err != nil {
		return nil, err
	}
	sc := &ShardedCollection{
		shards: make([]*shard, n),
		dir:    dir,
		fanout: defaultFanout(n),
		mode:   mode,
		dbOpts: dbOpts,
		jOpts:  jOpts,
		fs:     fs,
	}
	if sc.epoch, err = readEpoch(fs, dir); err != nil {
		return nil, err
	}
	// Shards share nothing on disk or in memory, so their journals replay
	// in parallel. The lowest-numbered shard's error wins, and every shard
	// that did open is closed again.
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sdir := sc.shardDir(i)
			if err := recoverReseed(fs, sdir); err != nil {
				errs[i] = fmt.Errorf("lazyxml: shard %d re-seed recovery: %w", i, err)
				return
			}
			j, err := OpenJournal(sdir, mode, dbOpts, jOpts...)
			if err != nil {
				errs[i] = fmt.Errorf("lazyxml: opening shard %d: %w", i, err)
				return
			}
			sc.shards[i] = j.sh
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			sc.Close()
			return nil, err
		}
	}
	return sc, nil
}

// journalFS discovers which filesystem a set of journal options selects
// by applying them to a probe, so directory-level operations (shard
// meta, epoch, re-seed staging) run on the same FS as the journals.
func journalFS(jOpts []JournalOption) faultline.FS {
	probe := &JournaledDB{}
	for _, o := range jOpts {
		o(probe)
	}
	if probe.fs == nil {
		return faultline.OS
	}
	return probe.fs
}

// shardDir returns shard i's journal directory (the root itself for a
// single-shard collection).
func (sc *ShardedCollection) shardDir(i int) string {
	if len(sc.shards) == 1 {
		return sc.dir
	}
	return filepath.Join(sc.dir, fmt.Sprintf(shardDirFormat, i))
}

// resolveShardCount reconciles the requested shard count with the
// directory's persisted one. The persisted count wins; a fresh multi-
// shard directory records its count; a legacy single-store directory is
// only openable as one shard.
func resolveShardCount(fs faultline.FS, dir string, requested int) (int, error) {
	raw, err := fs.ReadFile(filepath.Join(dir, shardsMetaName))
	if err == nil {
		var n int
		if _, serr := fmt.Sscanf(string(raw), shardsMetaMagic+" %d", &n); serr != nil || n < 1 {
			return 0, fmt.Errorf("lazyxml: corrupt %s: %q", shardsMetaName, strings.TrimSpace(string(raw)))
		}
		return n, nil
	}
	if !errors.Is(err, os.ErrNotExist) {
		return 0, err
	}
	if requested == 1 {
		// Single shard uses the root directory directly and writes no
		// meta file: the layout stays identical to a pre-sharding dir.
		return 1, nil
	}
	for _, f := range []string{journalName, snapshotName} {
		if _, err := fs.Stat(filepath.Join(dir, f)); err == nil {
			return 0, fmt.Errorf("lazyxml: %s holds a legacy single-store journal; open it with 1 shard (or move its files into %s)",
				dir, fmt.Sprintf(shardDirFormat, 0))
		}
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	meta := fmt.Sprintf("%s %d\n", shardsMetaMagic, requested)
	if err := fs.WriteFile(filepath.Join(dir, shardsMetaName), []byte(meta), 0o644); err != nil {
		return 0, err
	}
	return requested, nil
}

func defaultFanout(n int) int {
	if p := runtime.GOMAXPROCS(0); n > p {
		return p
	}
	return n
}

// ShardCount returns the number of independent stores.
func (sc *ShardedCollection) ShardCount() int { return len(sc.shards) }

// IsDurable reports whether the shards journal their updates.
func (sc *ShardedCollection) IsDurable() bool { return sc.dir != "" }

// hashShard is the routing rule: FNV-1a of the name mod N.
func (sc *ShardedCollection) hashShard(name string) int {
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32() % uint32(len(sc.shards)))
}

// ShardOf returns the shard a document lives on — or, for a name not in
// the collection, the shard a Put would place it on: the same one.
func (sc *ShardedCollection) ShardOf(name string) int { return sc.hashShard(name) }

// shardFor returns a name's shard for document-scoped operations; the
// shard itself answers whether the document exists. A re-seed can swap
// a shard in place, so sc.shards elements are only read locked.
func (sc *ShardedCollection) shardFor(name string) *shard {
	return sc.shardAt(sc.hashShard(name))
}

// shardAt returns shard i's current store under the lock.
func (sc *ShardedCollection) shardAt(i int) *shard {
	sc.mu.RLock()
	defer sc.mu.RUnlock()
	return sc.shards[i]
}

// current returns a copy of the shard list, taken under the lock.
func (sc *ShardedCollection) current() []*shard {
	sc.mu.RLock()
	defer sc.mu.RUnlock()
	return append([]*shard(nil), sc.shards...)
}

// journaledShard returns shard i when it exists and is durable.
func (sc *ShardedCollection) journaledShard(i int) (*shard, error) {
	if !sc.IsDurable() || i < 0 || i >= len(sc.shards) {
		return nil, fmt.Errorf("lazyxml: no journaled shard %d", i)
	}
	return sc.shardAt(i), nil
}

// Put adds a new document on its shard. The name can only ever live on
// that shard, so the shard's own duplicate check makes it unique across
// the collection, and puts to different shards proceed concurrently.
func (sc *ShardedCollection) Put(name string, text []byte) error {
	return sc.shardFor(name).Put(name, text)
}

// Delete removes a named document from its shard.
func (sc *ShardedCollection) Delete(name string) error { return sc.shardFor(name).Delete(name) }

// Text returns the current text of a named document, read from an MVCC
// snapshot view: name, span and text come from one immutable generation,
// so a concurrent writer shifting the document can never tear the slice —
// and is never blocked by the read.
func (sc *ShardedCollection) Text(name string) ([]byte, error) {
	dv, err := sc.View(name)
	if err != nil {
		return nil, err
	}
	defer dv.Release()
	return dv.Text()
}

// Names lists every document across all shards in sorted order. Each
// shard's list is one view; the merge is not a cross-shard barrier.
func (sc *ShardedCollection) Names() []string {
	per := make([][]string, len(sc.shards))
	sc.fanOut(func(i int, sh *shard) error {
		per[i] = sh.Names()
		return nil
	})
	var out []string
	for _, names := range per {
		out = append(out, names...)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of documents across all shards.
func (sc *ShardedCollection) Len() int {
	n := 0
	for i := range sc.shards {
		n += sc.shardAt(i).Len()
	}
	return n
}

// SID returns the (shard-local) segment id of a named document.
func (sc *ShardedCollection) SID(name string) (SID, bool) {
	return sc.shardFor(name).db.store.NameSID(name)
}

// Insert inserts a fragment at an offset relative to the named document.
func (sc *ShardedCollection) Insert(name string, off int, fragment []byte) (SID, error) {
	return sc.shardFor(name).Insert(name, off, fragment)
}

// Remove removes the byte range [off, off+l) relative to the named
// document.
func (sc *ShardedCollection) Remove(name string, off, l int) error {
	return sc.shardFor(name).Remove(name, off, l)
}

// RemoveElementAt removes the single element whose start tag begins at
// the given document-relative offset.
func (sc *ShardedCollection) RemoveElementAt(name string, off int) error {
	return sc.shardFor(name).RemoveElementAt(name, off)
}

// Collapse packs a named document's segment subtree into one fresh
// segment on its shard.
func (sc *ShardedCollection) Collapse(name string) (SID, error) {
	return sc.shardFor(name).Collapse(name)
}

// fanOut runs fn once per shard with bounded concurrency and returns the
// first error (by shard index) once every shard has finished.
func (sc *ShardedCollection) fanOut(fn func(i int, sh *shard) error) error {
	shards := sc.current()
	if len(shards) == 1 {
		return fn(0, shards[0])
	}
	errs := make([]error, len(shards))
	sem := make(chan struct{}, sc.fanout)
	var wg sync.WaitGroup
	for i, sh := range shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = fn(i, sh)
		}(i, sh)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Query evaluates a path expression over every shard and merges the
// matches in shard order; within a shard they stay in document order.
// Positions are shard-local. It drains QueryStream, so the shards run
// with the same bounded fan-out over the same consistent cut.
func (sc *ShardedCollection) Query(path string) ([]Match, error) {
	rs, err := sc.QueryStream(path, StreamOpt{})
	if err != nil {
		return nil, err
	}
	defer rs.Close()
	return stream.Drain(rs.it)
}

// Count sums the path's match count across all shards, draining
// QueryStream without retaining a match.
func (sc *ShardedCollection) Count(path string) (int, error) {
	rs, err := sc.QueryStream(path, StreamOpt{})
	if err != nil {
		return 0, err
	}
	defer rs.Close()
	return stream.Count(rs.it)
}

// QueryDoc evaluates a path expression scoped to one named document:
// only matches whose elements lie inside the document's span qualify.
// Positions in the returned matches are global in the document's shard.
// Span resolution and query run against one MVCC snapshot view, so the
// result is a consistent cut even under concurrent writers and
// maintenance.
func (sc *ShardedCollection) QueryDoc(name, path string) ([]Match, error) {
	dv, err := sc.View(name)
	if err != nil {
		return nil, err
	}
	defer dv.Release()
	return dv.Query(path)
}

// CountDoc returns the number of matches of path inside one document.
func (sc *ShardedCollection) CountDoc(name, path string) (int, error) {
	dv, err := sc.View(name)
	if err != nil {
		return 0, err
	}
	defer dv.Release()
	return dv.Count(path)
}

// Stats aggregates every shard's sizes and counters. Mode comes from
// shard 0 (all shards share it); Tags sums per-shard dictionaries, so a
// tag name used on every shard counts once per shard — it is a resource
// number, not a distinct-name count.
func (sc *ShardedCollection) Stats() Stats {
	var agg Stats
	for i, ss := range sc.ShardStats() {
		st := ss.Stats
		if i == 0 {
			agg.Mode = st.Mode
		}
		agg.TextLen += st.TextLen
		agg.Segments += st.Segments
		agg.Elements += st.Elements
		agg.Tags += st.Tags
		agg.SBTreeBytes += st.SBTreeBytes
		agg.TagListBytes += st.TagListBytes
		agg.ElemIdxBytes += st.ElemIdxBytes
		agg.Inserts += st.Inserts
		agg.Removes += st.Removes
	}
	return agg
}

// ShardStats returns each shard's document count, store statistics and
// journal footprint, gathered in parallel.
func (sc *ShardedCollection) ShardStats() []ShardStat {
	out := make([]ShardStat, len(sc.shards))
	sc.fanOut(func(i int, sh *shard) error {
		out[i] = sh.stat()
		out[i].Shard = i
		return nil
	})
	return out
}

// DocSegments gathers the per-document segment census from every shard
// in parallel, tagging each entry with its shard index. Within a shard
// entries stay name-sorted; across shards they are concatenated in shard
// order.
func (sc *ShardedCollection) DocSegments() []DocSegStat {
	per := make([][]DocSegStat, len(sc.shards))
	sc.fanOut(func(i int, sh *shard) error {
		ds := sh.DocSegments()
		for k := range ds {
			ds[k].Shard = i
		}
		per[i] = ds
		return nil
	})
	var total int
	for _, ds := range per {
		total += len(ds)
	}
	out := make([]DocSegStat, 0, total)
	for _, ds := range per {
		out = append(out, ds...)
	}
	return out
}

// ShardJournal returns shard i's journal, or nil when the collection is
// in-memory — the per-shard log the replication subsystem streams from.
func (sc *ShardedCollection) ShardJournal(i int) *JournaledDB {
	if i < 0 || i >= len(sc.shards) {
		return nil
	}
	return sc.shardAt(i).j
}

// CollapseAll collapses every document on every shard, shard-parallel; a
// durable shard then compacts.
func (sc *ShardedCollection) CollapseAll() error {
	return sc.fanOut(func(i int, sh *shard) error { return sh.CollapseAll() })
}

// CommitLaneStats returns each shard's group-commit counters, indexed by
// shard; all-disabled entries for an in-memory or unbatched collection.
func (sc *ShardedCollection) CommitLaneStats() []GroupCommitStats {
	out := make([]GroupCommitStats, len(sc.shards))
	for i, sh := range sc.current() {
		if sh.lane != nil {
			out[i] = sh.lane.stats()
		}
	}
	return out
}

// SetCommitObserver installs fn on every shard's commit lane, called
// after each committed batch with the shard index, op count and flush
// duration; nil removes it. No-op on shards without group commit.
func (sc *ShardedCollection) SetCommitObserver(fn func(shard, ops int, flush time.Duration)) {
	for i, sh := range sc.current() {
		if sh.lane == nil {
			continue
		}
		var obs func(ops int, flush time.Duration)
		if fn != nil {
			shard := i
			obs = func(ops int, flush time.Duration) { fn(shard, ops, flush) }
		}
		sh.lane.setObserver(obs)
	}
}

// CheckConsistency audits every shard in parallel.
func (sc *ShardedCollection) CheckConsistency() error {
	return sc.fanOut(func(i int, sh *shard) error {
		if err := sh.db.CheckConsistency(); err != nil {
			return fmt.Errorf("lazyxml: shard %d: %w", i, err)
		}
		return nil
	})
}

// Compact folds every shard's journal into a snapshot, shard-parallel.
func (sc *ShardedCollection) Compact() error {
	if !sc.IsDurable() {
		return fmt.Errorf("lazyxml: collection is not durable")
	}
	return sc.fanOut(func(i int, sh *shard) error { return sh.Compact() })
}

// CompactShard folds a single shard's journal into a snapshot — the
// per-shard granule the maintenance controller compacts with, so one
// shard's WAL growth never forces a whole-store pause.
func (sc *ShardedCollection) CompactShard(i int) error {
	sh, err := sc.journaledShard(i)
	if err != nil {
		return err
	}
	return sh.Compact()
}

// Close closes every shard's journal. In-memory collections close to a
// no-op.
func (sc *ShardedCollection) Close() error {
	var first error
	for _, sh := range sc.shards {
		if sh == nil {
			continue
		}
		if err := sh.Close(); first == nil {
			first = err
		}
	}
	return first
}
