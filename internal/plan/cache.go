package plan

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Key identifies one cached result set. The generation pair is the whole
// invalidation story: a write bumps the store's counter, so every lookup
// after it carries a new Key, and no lookup ever carries an older one
// (a query runs on a view at or above the head it found). So admitting
// a store's generation g moves that store's entries below g to the LRU
// tail, where capacity evicts them before any reachable entry, and a
// late Put below the newest generation admitted is refused — no
// invalidation hooks, which is what keeps the cache correct under
// auto-compaction, re-seed swaps (fresh store id) and failover (a
// follower keys on its own applied generation). Shard scopes cross-shard
// fan-out to per-shard partial results; Algo separates forced ?algo=
// runs from planned ones.
type Key struct {
	Gen   Gen
	Shard int
	Doc   string
	Path  string
	Algo  Algo
}

// storeGen is one store's newest admitted generation and its entries.
type storeGen struct {
	gen  uint64
	keys map[Key]struct{}
}

type entry struct {
	key   Key
	val   any
	bytes int64
	plan  Plan
}

// Cache is a byte-bounded LRU over opaque result values. Hits never
// touch any store lock — the caller reads the generation atomically and
// the cache's own mutex guards only map/list bookkeeping.
type Cache struct {
	mu  sync.Mutex
	max int64
	cur int64
	lru *list.List // front = most recently used
	m   map[Key]*list.Element
	// gens holds, per store id, the newest generation admitted and the
	// entries cached at it; the store's other entries sit behind every
	// reachable one at the LRU tail. A store keeps its slot after its
	// last entry leaves, so a late Put is still refused: one small slot
	// per store the cache has seen, and a fresh store appears only on
	// open, restore or re-seed.
	gens map[uint64]*storeGen

	hits, misses, puts, evictions atomic.Int64
}

// NewCache returns a cache bounded to maxBytes of cached values
// (maxBytes <= 0 disables caching: every Get misses, every Put is
// dropped).
func NewCache(maxBytes int64) *Cache {
	return &Cache{max: maxBytes, lru: list.New(), m: map[Key]*list.Element{}, gens: map[uint64]*storeGen{}}
}

// Get returns the cached value and the plan that produced it. The plan
// comes back with Cached set, so explain output distinguishes a cache
// hit from a fresh execution.
func (c *Cache) Get(k Key) (any, Plan, bool) {
	if c == nil || c.max <= 0 {
		return nil, Plan{}, false
	}
	c.mu.Lock()
	el, ok := c.m[k]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, Plan{}, false
	}
	c.lru.MoveToFront(el)
	e := el.Value.(*entry)
	val, p := e.val, e.plan
	c.mu.Unlock()
	c.hits.Add(1)
	p.Cached = true
	return val, p, true
}

// admissionDivisor bounds one entry to 1/8 of the cache: a single giant
// result can never flush the whole working set, and a streaming cache
// tee knows up-front how much it is worth buffering aside.
const admissionDivisor = 8

// AdmissionCap returns the per-entry admission bound in bytes (0 when
// the cache is disabled): Put drops any value larger than this.
func (c *Cache) AdmissionCap() int64 {
	if c == nil || c.max <= 0 {
		return 0
	}
	return c.max / admissionDivisor
}

// Put stores a result set of the given byte size. Values larger than the
// per-entry admission cap (an eighth of the budget) are dropped rather
// than evicting most of the working set for one oversized result. A
// result computed at a generation older than the newest one admitted
// for its store is dropped too, and admitting a newer generation moves
// the store's older entries to the LRU tail: no lookup can reach them
// again, so they are the first to go when the cache needs room.
// Dropping them at once instead would make the cache's footprint depend
// on the time since each store's last write.
func (c *Cache) Put(k Key, v any, bytes int64, p Plan) {
	if c == nil || c.max <= 0 || bytes > c.AdmissionCap() {
		return
	}
	if bytes < 1 {
		bytes = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	sg := c.gens[k.Gen.Store]
	switch {
	case sg == nil:
		sg = &storeGen{gen: k.Gen.Gen, keys: map[Key]struct{}{}}
		c.gens[k.Gen.Store] = sg
	case k.Gen.Gen < sg.gen:
		return
	case k.Gen.Gen > sg.gen:
		for old := range sg.keys {
			c.lru.MoveToBack(c.m[old])
		}
		clear(sg.keys)
		sg.gen = k.Gen.Gen
	}
	if el, ok := c.m[k]; ok {
		e := el.Value.(*entry)
		c.cur += bytes - e.bytes
		e.val, e.bytes, e.plan = v, bytes, p
		c.lru.MoveToFront(el)
	} else {
		c.m[k] = c.lru.PushFront(&entry{key: k, val: v, bytes: bytes, plan: p})
		sg.keys[k] = struct{}{}
		c.cur += bytes
	}
	c.puts.Add(1)
	for c.cur > c.max {
		back := c.lru.Back()
		if back == nil {
			break
		}
		c.remove(back)
		c.evictions.Add(1)
	}
}

// remove drops one entry; the caller holds mu.
func (c *Cache) remove(el *list.Element) {
	e := el.Value.(*entry)
	c.lru.Remove(el)
	delete(c.m, e.key)
	delete(c.gens[e.key.Gen.Store].keys, e.key)
	c.cur -= e.bytes
}

// CacheStats is a point-in-time readout of the cache counters.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Puts      int64 `json:"puts"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	MaxBytes  int64 `json:"maxBytes"`
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	entries, bytes := len(c.m), c.cur
	c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Puts:      c.puts.Load(),
		Evictions: c.evictions.Load(),
		Entries:   entries,
		Bytes:     bytes,
		MaxBytes:  c.max,
	}
}

// Picks counts how often the planner chose each algorithm — the
// per-algorithm pick counters exported by /stats and /metrics.
type Picks struct {
	mu sync.Mutex
	m  map[string]int64
}

// NewPicks returns an empty counter set.
func NewPicks() *Picks { return &Picks{m: map[string]int64{}} }

// Count records one pick under the algorithm's name.
func (p *Picks) Count(a Algo) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.m[string(a)]++
	p.mu.Unlock()
}

// Snapshot copies the counters.
func (p *Picks) Snapshot() map[string]int64 {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]int64, len(p.m))
	for k, v := range p.m {
		out[k] = v
	}
	return out
}
