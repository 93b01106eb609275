package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"sort"

	"repro/internal/xmlgen"
)

// scale fixes every size of a run. There are two: full is what
// BENCHMARK.json and the README's baseline use, smoke is what the tests
// use. Nothing else sizes a run.
type scale struct {
	name         string
	docs         int // documents in the collection, split evenly between the clients
	persons      int // per seed document of the base database
	items        int
	scanPersons  int // the same for scan-stream, whose result must exceed the cache's admission cap
	scanItems    int
	fragPersons  int // per skeleton document of the fragmented database
	fragItems    int
	fragInserts  int // segment inserts that fragment the skeleton documents
	repeats      int // fewest set-ups, and fewest abandon-and-reopen cycles, timed per run
	traceOps     int // operations the traced pass replays at each depth
	ledgerTextMB []int
	ledgerSegs   []int
	ledgerJoins  int
	ledgerIters  int
}

var scales = map[string]scale{
	"full": {
		name: "full", docs: 32, persons: 250, items: 100, scanPersons: 500, scanItems: 200,
		fragPersons: 20, fragItems: 10, fragInserts: 4000,
		repeats: 3, traceOps: 400,
		ledgerTextMB: []int{1, 4, 16}, ledgerSegs: []int{100, 2000}, ledgerJoins: 20000, ledgerIters: 20,
	},
	"smoke": {
		name: "smoke", docs: 8, persons: 12, items: 6, scanPersons: 16, scanItems: 6,
		fragPersons: 3, fragItems: 2, fragInserts: 120,
		repeats: 1, traceOps: 40,
		ledgerTextMB: []int{1}, ledgerSegs: []int{20}, ledgerJoins: 400, ledgerIters: 2,
	},
}

const clients = 2

// The four workloads. Their names are what BENCHMARK.json lists and
// what later issues refer to.
const (
	wlIngest = "ingest-batch"
	wlMixed  = "mixed-readwrite"
	wlZipf   = "query-zipf"
	wlScan   = "scan-stream"
)

var workloadNames = []string{wlIngest, wlMixed, wlZipf, wlScan}

// Request classes. Every workload has a primary and a secondary class;
// the end-to-end latency metrics are taken from those two.
const (
	clsBatch     = "batch"      // one 8-op POST /batch, sent → all ops acked
	clsInsert    = "insert"     // one single-op durable insert, sent → acked after fsync
	clsRemove    = "remove"     // one single-op durable element remove
	clsQuery     = "query"      // one buffered document-scoped query or count, sent → body read
	clsQueryAll  = "query-all"  // the same over the whole collection: fan-out and shard merge
	clsScan      = "scan"       // one unlimited streamed query, sent → trailer read
	clsScanLimit = "scan-limit" // the same streamed query with limit=100
)

// classes gives each workload's primary and secondary request class.
// Each class is one kind of request, so that its median is not the
// boundary between two populations with different costs.
var classes = map[string][2]string{
	wlIngest: {clsBatch, clsInsert},
	wlMixed:  {clsInsert, clsQuery},
	wlZipf:   {clsQuery, clsQueryAll},
	wlScan:   {clsScan, clsScanLimit},
}

const (
	batchOps     = 8 // ops per batch: six inserts, two element removes
	batchRemoves = 2
	scanPath     = "//person//phone"
	scanLimit    = 100
	zipfPaths    = 64
	zipfS        = 1.2
	zipfRankSeed = 2005 // fixes the popularity order of the paths
)

// mixedPaths are the document-scoped paths of mixed-readwrite: the
// paper's five XMark queries and three that reach the item subtree, the
// child axis and a three-step pipeline.
var mixedPaths = []string{
	"person//phone", "profile//interest", "watches//watch", "person//watch",
	"person//interest", "item//incategory", "person/name", "people//person//phone",
}

type opKind uint8

const (
	opInsert opKind = iota
	opRemove
	opBatch
	opQuery // buffered GET …/query
	opCount // GET …/count
	opScan  // streamed GET /query?stream=1, limit 0 = unlimited
)

// op is one request of the stream. doc indexes the database's documents;
// -1 addresses the whole collection.
type op struct {
	kind   opKind
	class  string
	doc    int
	off    int
	length int    // opRemove: bytes the removed element spans (the core depth needs it)
	frag   []byte // opInsert
	path   string
	limit  int
	batch  []op
	want   int // expected result count of a sampled query, -1 when not checked
}

// logical is the number of operations a request carries: each op inside
// a batch counts as one.
func (o *op) logical() int {
	if o.kind == opBatch {
		return len(o.batch)
	}
	return 1
}

// database is a seeded database before any measured operation: the
// documents to Put and, for the fragmented one, the segment inserts
// that follow, in the order they must reach each document. shadows is
// the model after all of it.
type database struct {
	names   []string
	seeds   [][]byte
	inserts []op
	shadows []*shadowDoc
}

func docName(i int) string { return fmt.Sprintf("doc-%02d", i) }

// newDatabase builds the database a workload starts from. ingest-batch
// and mixed-readwrite share the base database (one segment per
// document); scan-stream gets the same shape with more persons, so that
// each shard's part of its scan is too large for the result cache to
// admit; query-zipf gets small skeleton documents fragmented by
// thousands of segment inserts.
func newDatabase(sc scale, workload string, seed int64) *database {
	r := rand.New(rand.NewSource(seed))
	persons, items, inserts := sc.persons, sc.items, 0
	switch workload {
	case wlZipf:
		persons, items, inserts = sc.fragPersons, sc.fragItems, sc.fragInserts
	case wlScan:
		persons, items = sc.scanPersons, sc.scanItems
	}
	db := &database{}
	for i := 0; i < sc.docs; i++ {
		text := xmlgen.XMark(xmlgen.XMarkConfig{Seed: r.Int63(), Persons: persons, Items: items})
		db.names = append(db.names, docName(i))
		db.seeds = append(db.seeds, text)
		db.shadows = append(db.shadows, &shadowDoc{name: docName(i), text: append([]byte(nil), text...)})
	}
	for i := 0; i < inserts; i++ {
		db.inserts = append(db.inserts, db.newInsert(r, r.Intn(sc.docs), firstInsertedID+i))
	}
	return db
}

// newInsert draws the fragment with the given id and a slot in document
// doc, applies the insertion to the model and returns the operation.
func (db *database) newInsert(r *rand.Rand, doc, id int) op {
	var frag []byte
	if isItemID(id) {
		frag = []byte(xmlgen.Item(r, id))
	} else {
		frag = []byte(xmlgen.Person(r, id, xmlgen.XMarkConfig{}))
	}
	d := db.shadows[doc]
	off := d.slot(r)
	d.insert(off, frag, id)
	return op{kind: opInsert, class: clsInsert, doc: doc, off: off, frag: frag, want: -1}
}

// newRemove removes a previously inserted element from document doc in
// the model and returns the operation.
func (db *database) newRemove(r *rand.Rand, doc int) op {
	off, length := db.shadows[doc].removeLive(r)
	return op{kind: opRemove, class: clsRemove, doc: doc, off: off, length: length, want: -1}
}

// xmarkChildren is the element hierarchy of the generated documents,
// from which the query paths of query-zipf are enumerated.
var xmarkChildren = map[string][]string{
	"site":        {"regions", "people"},
	"regions":     {"namerica"},
	"namerica":    {"item"},
	"item":        {"name", "payment", "description", "incategory"},
	"description": {"text"},
	"people":      {"person"},
	"person":      {"name", "emailaddress", "phone", "address", "profile", "watches"},
	"address":     {"street", "city", "country"},
	"profile":     {"interest", "education", "gender"},
	"watches":     {"watch"},
}

// allPaths enumerates every two- and three-step path the hierarchy
// makes non-empty: a//d for each ancestor and descendant, a/d for each
// parent and child, a//b//d for each chain. The order is fixed.
func allPaths() []string {
	var descendants func(tag string) []string
	descendants = func(tag string) []string {
		var out []string
		for _, c := range xmarkChildren[tag] {
			out = append(out, c)
			out = append(out, descendants(c)...)
		}
		return out
	}
	tags := make([]string, 0, len(xmarkChildren))
	for t := range xmarkChildren {
		tags = append(tags, t)
	}
	sort.Strings(tags)
	var paths []string
	for _, a := range tags {
		for _, c := range xmarkChildren[a] {
			paths = append(paths, a+"/"+c)
		}
		for _, b := range descendants(a) {
			paths = append(paths, a+"//"+b)
			for _, d := range descendants(b) {
				paths = append(paths, a+"//"+b+"//"+d)
			}
		}
	}
	return paths
}

// generator produces one client's operation stream. The stream is a
// function of (workload, seed, client) alone: the same three give the
// same operations, byte for byte, however fast the store answers.
type generator struct {
	workload string
	r        *rand.Rand
	db       *database
	docs     []int // the documents this client owns
	nextID   int   // id of the next fragment this client inserts
	paths    []string
	pathZipf *rand.Zipf
	docZipf  *rand.Zipf
	n        int // operations produced so far
	digest   hash.Hash
}

// sampleEvery is how often a document-scoped two-step query carries an
// expected count computed from the model.
const sampleEvery = 32

func newGenerator(workload string, seed int64, client int, db *database) *generator {
	g := &generator{
		workload: workload,
		r:        rand.New(rand.NewSource(seed*1000003 + int64(client) + 1)),
		db:       db,
		nextID:   (client + 1) * 100 * firstInsertedID,
		digest:   sha256.New(),
	}
	for i := client; i < len(db.names); i += clients {
		g.docs = append(g.docs, i)
	}
	switch workload {
	case wlMixed:
		g.paths = mixedPaths
	case wlZipf:
		// Which paths are popular is a property of the workload, not of
		// the seed or the client: a run that happened to rank an
		// expensive path first would not be comparable with one that
		// did not.
		all := allPaths()
		rand.New(rand.NewSource(zipfRankSeed)).Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		g.paths = all[:zipfPaths]
		g.pathZipf = rand.NewZipf(g.r, zipfS, 1, uint64(len(g.paths)-1))
		g.docZipf = rand.NewZipf(g.r, zipfS, 1, uint64(len(g.docs)-1))
	case wlScan:
		g.paths = []string{scanPath}
	}
	return g
}

// queryPaths returns every path the workload queries; the oracle checks
// each of them against a fresh parse at the end of the run.
func (g *generator) queryPaths() []string {
	if len(g.paths) == 0 {
		return mixedPaths // the write-only workload is checked on the same paths
	}
	return g.paths
}

func (g *generator) ownDoc() int { return g.docs[g.r.Intn(len(g.docs))] }

func (g *generator) insert(doc int) op {
	g.nextID++
	return g.db.newInsert(g.r, doc, g.nextID)
}

// update draws a single-op update: two inserts for every remove, and an
// insert whenever the chosen document holds nothing to remove.
func (g *generator) update(doc int) op {
	if g.r.Intn(3) == 0 && len(g.db.shadows[doc].live) > 0 {
		return g.db.newRemove(g.r, doc)
	}
	return g.insert(doc)
}

// query draws a buffered read of path, document-scoped unless doc is -1.
// One in four is a count request. Every sampleEvery-th two-step
// document-scoped read carries the model's own count.
func (g *generator) query(doc int, path string) op {
	o := op{kind: opQuery, class: clsQuery, doc: doc, path: path, want: -1}
	if doc < 0 {
		o.class = clsQueryAll
	}
	if g.r.Intn(4) == 0 {
		o.kind = opCount
	}
	if doc >= 0 && g.n%sampleEvery == 0 {
		if anc, desc, child, ok := twoStep(path); ok {
			o.want = countPairs(g.db.shadows[doc].text, anc, desc, child)
		}
	}
	return o
}

// next returns the client's next operation, already applied to the model.
func (g *generator) next() op {
	var o op
	switch g.workload {
	case wlIngest:
		// Every other request is a single insert, acknowledged while
		// the other client's batch is in the same commit lanes: eight
		// ops in nine still arrive in batches.
		if g.n%2 == 1 {
			o = g.insert(g.ownDoc())
			break
		}
		o = op{kind: opBatch, class: clsBatch, doc: -1, want: -1}
		for i := 0; i < batchOps; i++ {
			doc := g.ownDoc()
			if i >= batchOps-batchRemoves && len(g.db.shadows[doc].live) > 0 {
				o.batch = append(o.batch, g.db.newRemove(g.r, doc))
			} else {
				o.batch = append(o.batch, g.insert(doc))
			}
		}
	case wlMixed:
		if g.r.Intn(10) < 3 {
			o = g.update(g.ownDoc())
		} else {
			o = g.query(g.ownDoc(), g.paths[g.r.Intn(len(g.paths))])
		}
	case wlZipf:
		switch {
		case g.r.Intn(50) == 0:
			o = g.update(g.ownDoc())
		case g.r.Intn(3) == 0:
			o = g.query(-1, g.paths[g.pathZipf.Uint64()])
		default:
			o = g.query(g.docs[g.docZipf.Uint64()], g.paths[g.pathZipf.Uint64()])
		}
	case wlScan:
		o = op{kind: opScan, class: clsScan, doc: -1, path: scanPath, want: -1}
		if g.n%2 == 1 {
			o.class, o.limit = clsScanLimit, scanLimit
		}
	}
	g.n++
	g.hashOp(&o)
	return o
}

// hashOp folds an operation into the stream digest.
func (g *generator) hashOp(o *op) {
	var hdr [40]byte
	hdr[0] = byte(o.kind)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(int64(o.doc)))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(o.off))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(o.length))
	binary.LittleEndian.PutUint64(hdr[32:], uint64(o.limit))
	g.digest.Write(hdr[:])
	g.digest.Write(o.frag)
	g.digest.Write([]byte(o.path))
	for i := range o.batch {
		g.hashOp(&o.batch[i])
	}
}

// hash returns the digest of every operation produced so far.
func (g *generator) hash() string { return hex.EncodeToString(g.digest.Sum(nil))[:16] }

// twoStep splits a path of exactly two steps.
func twoStep(path string) (anc, desc string, child, ok bool) {
	for i := 0; i < len(path); i++ {
		if path[i] != '/' {
			continue
		}
		anc, rest := path[:i], path[i+1:]
		child = true
		if len(rest) > 0 && rest[0] == '/' {
			child, rest = false, rest[1:]
		}
		for j := 0; j < len(rest); j++ {
			if rest[j] == '/' {
				return "", "", false, false
			}
		}
		return anc, rest, child, anc != "" && rest != ""
	}
	return "", "", false, false
}
