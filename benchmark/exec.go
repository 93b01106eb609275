package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"sync"
	"time"

	lazyxml "repro"
	"repro/internal/core"
	"repro/internal/server"
)

const (
	shards      = 2
	cacheBytes  = 8 << 20 // the planner's result cache
	flushPolicy = "sync-on-ack"
	// maxMatches is the server's default cap on a buffered query; the
	// backend depths of the traced pass apply the same cap.
	maxMatches = 10000
)

// system is the daemon under test, as an operator runs it: a 2-shard
// durable backend that fsyncs before it acknowledges, with the
// group-commit lane and the planner on, behind the HTTP server on a
// loopback listener.
type system struct {
	sc *lazyxml.ShardedCollection
	qp *lazyxml.QueryPlanner
	ts *httptest.Server
}

// openDurable opens (or reopens) the durable backend in dir.
func openDurable(dir string, extra ...lazyxml.JournalOption) (*lazyxml.ShardedCollection, *lazyxml.QueryPlanner, error) {
	jOpts := append([]lazyxml.JournalOption{lazyxml.WithSync(), lazyxml.WithGroupCommit(0)}, extra...)
	sc, err := lazyxml.OpenShardedCollection(dir, shards, lazyxml.LD, nil, jOpts...)
	if err != nil {
		return nil, nil, fmt.Errorf("opening backend in %s: %w", dir, err)
	}
	qp := lazyxml.NewQueryPlanner(cacheBytes)
	sc.EnablePlanner(qp)
	return sc, qp, nil
}

// newHandler puts the HTTP server in front of a backend.
func newHandler(b lazyxml.Backend) http.Handler {
	return server.New(b, server.Config{Planned: true, GroupCommit: true}).Handler()
}

func openSystem(dir string) (*system, error) {
	sc, qp, err := openDurable(dir)
	if err != nil {
		return nil, err
	}
	return &system{sc: sc, qp: qp, ts: httptest.NewServer(newHandler(sc))}, nil
}

// abandon stops the listener and drops the backend without closing it,
// the way a killed daemon leaves its directory.
func (s *system) abandon() { s.ts.Close() }

func (s *system) close() error {
	s.ts.Close()
	return s.sc.Close()
}

// seed loads a database into a backend: the documents in order, then
// the fragmenting inserts. A durable backend gets one loader goroutine
// per document, so that each document's inserts arrive in sequence
// while concurrent writers share commit-lane flushes. An in-memory
// collection has no lane to order writers on a shard (the server's
// write gate does that for it), so it is loaded by one goroutine.
func seed(b lazyxml.Backend, db *database, concurrent bool) error {
	for i, name := range db.names {
		if err := b.Put(name, db.seeds[i]); err != nil {
			return fmt.Errorf("seeding %s: %w", name, err)
		}
	}
	load := func(doc int) error {
		for i := range db.inserts {
			o := &db.inserts[i]
			if doc >= 0 && o.doc != doc {
				continue
			}
			if _, err := b.Insert(db.names[o.doc], o.off, o.frag); err != nil {
				return fmt.Errorf("seeding insert %d into %s: %w", i, db.names[o.doc], err)
			}
		}
		return nil
	}
	if !concurrent {
		return load(-1)
	}
	errs := make([]error, len(db.names))
	var wg sync.WaitGroup
	for doc := range db.names {
		wg.Add(1)
		go func(doc int) {
			defer wg.Done()
			errs[doc] = load(doc)
		}(doc)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// result is what one request produced.
type result struct {
	rows     int       // matches delivered, or ops applied
	firstRow time.Time // streamed scans: when the first row line arrived
}

// opError is a request that did not do what was asked. failed is how
// many logical operations it accounts for.
type opError struct {
	failed int
	msg    string
}

func (e *opError) Error() string { return e.msg }

func failOp(o *op, format string, args ...any) error {
	return &opError{failed: o.logical(), msg: fmt.Sprintf(format, args...)}
}

// errNotAtDepth marks an operation a depth of the traced pass cannot
// express (the core depth runs only updates and two-tag paths).
var errNotAtDepth = errors.New("operation not expressible at this depth")

// executor runs operations against the system at one depth.
type executor interface {
	do(o *op) (result, error)
}

// ---- the HTTP depths: loopback wire and ServeHTTP recorder ----

// request renders an operation as the HTTP request a client sends.
func (o *op) request(names []string) (method, target string, body []byte) {
	scope := ""
	if o.doc >= 0 {
		scope = "/docs/" + names[o.doc]
	}
	switch o.kind {
	case opInsert:
		return http.MethodPost, scope + "/insert?off=" + strconv.Itoa(o.off), o.frag
	case opRemove:
		return http.MethodDelete, scope + "/element?off=" + strconv.Itoa(o.off), nil
	case opBatch:
		type wireOp struct {
			Op   string `json:"op"`
			Doc  string `json:"doc"`
			Off  int    `json:"off"`
			Text string `json:"text,omitempty"`
		}
		ops := make([]wireOp, len(o.batch))
		for i, b := range o.batch {
			ops[i] = wireOp{Op: "insert", Doc: names[b.doc], Off: b.off, Text: string(b.frag)}
			if b.kind == opRemove {
				ops[i].Op = "removeElement"
			}
		}
		body, _ = json.Marshal(map[string]any{"ops": ops}) // plain strings and ints cannot fail to encode
		return http.MethodPost, "/batch", body
	case opCount:
		return http.MethodGet, scope + "/count?path=" + url.QueryEscape(o.path), nil
	case opScan:
		target = "/query?stream=1&path=" + url.QueryEscape(o.path)
		if o.limit > 0 {
			target += "&limit=" + strconv.Itoa(o.limit)
		}
		return http.MethodGet, target, nil
	default:
		return http.MethodGet, scope + "/query?path=" + url.QueryEscape(o.path), nil
	}
}

// checkResponse reads a response to its end and checks it against the
// operation: the status, every op of a batch acknowledged, the trailer
// of a stream agreeing with the rows delivered, a sampled query's count
// agreeing with the model.
func checkResponse(o *op, status int, body io.Reader) (result, error) {
	wantStatus := http.StatusOK
	if o.kind == opInsert {
		wantStatus = http.StatusCreated
	}
	if status != wantStatus {
		msg, _ := io.ReadAll(io.LimitReader(body, 200)) // best effort: the status is the failure
		return result{}, failOp(o, "status %d: %s", status, bytes.TrimSpace(msg))
	}
	switch o.kind {
	case opBatch:
		var ack struct {
			Ops    int `json:"ops"`
			Failed int `json:"failed"`
		}
		if err := json.NewDecoder(body).Decode(&ack); err != nil {
			return result{}, failOp(o, "batch reply: %v", err)
		}
		if ack.Ops != len(o.batch) || ack.Failed != 0 {
			failed := ack.Failed + len(o.batch) - ack.Ops
			return result{}, &opError{failed: failed, msg: fmt.Sprintf("batch: %d of %d ops failed", failed, len(o.batch))}
		}
		return result{rows: ack.Ops}, nil
	case opQuery, opCount:
		// Both replies open with {"count":N — the only part read; the
		// matches behind it are drained, as a client that only wants the
		// bytes delivered would.
		br := bufio.NewReader(body)
		head, _ := br.Peek(32) // a short body is judged by what it holds
		n, ok := leadingCount(head)
		if !ok {
			return result{}, failOp(o, "reply does not open with a count: %q", head)
		}
		if _, err := io.Copy(io.Discard, br); err != nil {
			return result{}, failOp(o, "reading reply: %v", err)
		}
		if o.want >= 0 && n != o.want {
			return result{}, failOp(o, "%s on doc %d: %d matches, the model has %d", o.path, o.doc, n, o.want)
		}
		return result{rows: n}, nil
	case opScan:
		return checkStream(o, body)
	default:
		_, err := io.Copy(io.Discard, body)
		return result{rows: 1}, err
	}
}

// leadingCount parses the N of a body that opens with {"count":N.
func leadingCount(head []byte) (int, bool) {
	const prefix = `{"count":`
	if !bytes.HasPrefix(head, []byte(prefix)) {
		return 0, false
	}
	head = head[len(prefix):]
	end := 0
	for end < len(head) && head[end] >= '0' && head[end] <= '9' {
		end++
	}
	n, err := strconv.Atoi(string(head[:end]))
	return n, err == nil
}

// checkStream reads an NDJSON stream: a header line, one line per row,
// and a trailer that must say done and count the rows delivered.
func checkStream(o *op, body io.Reader) (result, error) {
	var res result
	br := bufio.NewReaderSize(body, 64<<10)
	var last []byte
	for lines := 0; ; lines++ {
		line, err := br.ReadSlice('\n')
		if err == io.EOF {
			break
		}
		if err != nil {
			return res, failOp(o, "reading stream: %v", err)
		}
		if lines == 1 {
			res.firstRow = time.Now()
		}
		if lines > 0 {
			res.rows++
		}
		last = append(last[:0], line...)
	}
	res.rows-- // the trailer is not a row
	var trailer struct {
		Done      bool `json:"done"`
		Count     int  `json:"count"`
		Truncated bool `json:"truncated"`
	}
	if err := json.Unmarshal(last, &trailer); err != nil || !trailer.Done {
		return res, failOp(o, "stream ended without a done trailer: %q", last)
	}
	if trailer.Count != res.rows || (o.limit > 0 && res.rows != o.limit) {
		return res, failOp(o, "stream delivered %d rows, trailer says %d, limit %d", res.rows, trailer.Count, o.limit)
	}
	return res, nil
}

// wireExec sends operations over loopback HTTP.
type wireExec struct {
	client *http.Client
	base   string
	names  []string
}

func (w *wireExec) do(o *op) (result, error) {
	method, target, body := o.request(w.names)
	req, err := http.NewRequest(method, w.base+target, bytes.NewReader(body))
	if err != nil {
		return result{}, failOp(o, "building request: %v", err)
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return result{}, failOp(o, "%v", err)
	}
	defer resp.Body.Close()
	return checkResponse(o, resp.StatusCode, resp.Body)
}

// recorderExec calls the handler directly, with no socket in between.
type recorderExec struct {
	h     http.Handler
	names []string
}

func (x *recorderExec) do(o *op) (result, error) {
	method, target, body := o.request(x.names)
	rec := httptest.NewRecorder()
	x.h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
	return checkResponse(o, rec.Code, rec.Body)
}

// ---- the backend depths: durable and in-memory ShardedCollection ----

// backendExec calls the Backend methods the server's handlers call.
// serial applies a batch one op at a time, which is what the server's
// write gate makes of a batch on a backend without a commit lane.
type backendExec struct {
	b      lazyxml.Backend
	names  []string
	serial bool
}

func (x *backendExec) do(o *op) (result, error) {
	switch o.kind {
	case opInsert:
		_, err := x.b.Insert(x.names[o.doc], o.off, o.frag)
		return result{rows: 1}, err
	case opRemove:
		return result{rows: 1}, x.b.RemoveElementAt(x.names[o.doc], o.off)
	case opBatch:
		if x.serial {
			for i := range o.batch {
				if _, err := x.do(&o.batch[i]); err != nil {
					return result{}, err
				}
			}
			return result{rows: len(o.batch)}, nil
		}
		// As the batch handler does: ops on one document in order,
		// documents concurrently, so that they meet in the commit lane.
		byDoc := map[int][]*op{}
		for i := range o.batch {
			byDoc[o.batch[i].doc] = append(byDoc[o.batch[i].doc], &o.batch[i])
		}
		var wg sync.WaitGroup
		var mu sync.Mutex
		var errs []error
		for _, ops := range byDoc {
			wg.Add(1)
			go func(ops []*op) {
				defer wg.Done()
				for _, b := range ops {
					if _, err := x.do(b); err != nil {
						mu.Lock()
						errs = append(errs, err)
						mu.Unlock()
					}
				}
			}(ops)
		}
		wg.Wait()
		if len(errs) > 0 {
			return result{}, &opError{failed: len(errs), msg: errors.Join(errs...).Error()}
		}
		return result{rows: len(o.batch)}, nil
	case opCount:
		if o.doc < 0 {
			n, err := x.b.Count(o.path)
			return result{rows: n}, err
		}
		n, err := x.b.CountDoc(x.names[o.doc], o.path)
		return result{rows: n}, err
	default:
		opt := lazyxml.StreamOpt{Planned: true, Limit: maxMatches + 1}
		if o.kind == opScan {
			opt.Limit = 0
			if o.limit > 0 {
				opt.Limit = o.limit + 1
			}
		}
		var rs *lazyxml.ResultStream
		var err error
		if o.doc < 0 {
			rs, err = x.b.QueryStream(o.path, opt)
		} else {
			rs, err = x.b.QueryDocStream(x.names[o.doc], o.path, opt)
		}
		if err != nil {
			return result{}, err
		}
		defer rs.Close()
		n := 0
		for ; opt.Limit == 0 || n < opt.Limit-1; n++ {
			if _, err := rs.Next(); err == io.EOF {
				break
			} else if err != nil {
				return result{}, err
			}
		}
		return result{rows: n}, nil
	}
}

// ---- the core depth ----

// coreExec replays updates and two-tag paths straight onto core.Store,
// one store per shard, holding each document at the global position the
// collection layer would. It is the paper's algorithm with nothing
// stacked on it.
type coreExec struct {
	stores []*core.Store
	shard  []int   // document → store
	order  [][]int // store → its documents in super-document order
	start  []int   // document → global position of its first byte
	size   []int   // document → bytes
}

func newCoreExec(db *database) (*coreExec, error) {
	router := lazyxml.NewShardedCollection(shards, lazyxml.LD)
	x := &coreExec{
		order: make([][]int, shards),
		shard: make([]int, len(db.names)),
		start: make([]int, len(db.names)),
		size:  make([]int, len(db.names)),
	}
	for i := 0; i < shards; i++ {
		x.stores = append(x.stores, core.NewStore(lazyxml.LD))
	}
	for doc, name := range db.names {
		s := router.ShardOf(name)
		x.shard[doc] = s
		x.start[doc] = x.stores[s].Len()
		x.order[s] = append(x.order[s], doc)
		if _, err := x.stores[s].InsertSegment(x.start[doc], db.seeds[doc]); err != nil {
			return nil, fmt.Errorf("core seeding %s: %w", name, err)
		}
		x.size[doc] = len(db.seeds[doc])
	}
	for i := range db.inserts {
		if _, err := x.do(&db.inserts[i]); err != nil {
			return nil, fmt.Errorf("core seeding insert %d: %w", i, err)
		}
	}
	return x, nil
}

// grow records that a document changed size and shifts the documents
// behind it in the same store.
func (x *coreExec) grow(doc, delta int) {
	x.size[doc] += delta
	after := false
	for _, d := range x.order[x.shard[doc]] {
		if after {
			x.start[d] += delta
		}
		after = after || d == doc
	}
}

func (x *coreExec) do(o *op) (result, error) {
	switch o.kind {
	case opInsert:
		if _, err := x.stores[x.shard[o.doc]].InsertSegment(x.start[o.doc]+o.off, o.frag); err != nil {
			return result{}, err
		}
		x.grow(o.doc, len(o.frag))
		return result{rows: 1}, nil
	case opRemove:
		if err := x.stores[x.shard[o.doc]].RemoveSegment(x.start[o.doc]+o.off, o.length); err != nil {
			return result{}, err
		}
		x.grow(o.doc, -o.length)
		return result{rows: 1}, nil
	case opBatch:
		for i := range o.batch {
			if _, err := x.do(&o.batch[i]); err != nil {
				return result{}, err
			}
		}
		return result{rows: len(o.batch)}, nil
	}
	path, err := lazyxml.ParsePath(o.path)
	if err != nil {
		return result{}, err
	}
	if len(path.Steps) != 1 {
		return result{}, errNotAtDepth
	}
	stores := x.stores
	lo, hi := 0, int(^uint(0)>>1)
	if o.doc >= 0 {
		stores = stores[x.shard[o.doc] : x.shard[o.doc]+1]
		lo, hi = x.start[o.doc], x.start[o.doc]+x.size[o.doc]
	}
	limit := 0 // a count is not capped
	switch o.kind {
	case opQuery:
		limit = maxMatches
	case opScan:
		limit = o.limit
	}
	n := 0
	for _, s := range stores {
		v := s.AcquireView()
		err := v.QueryEmit(path.First, path.Steps[0].Tag, path.Steps[0].Axis, core.LazyJoin, func(m core.Match) bool {
			if m.DescStart >= lo && m.DescEnd <= hi {
				n++
			}
			return limit == 0 || n < limit
		})
		v.Release()
		if err != nil {
			return result{}, err
		}
	}
	return result{rows: n}, nil
}
