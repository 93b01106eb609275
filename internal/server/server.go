// Package server exposes a lazy XML collection over HTTP/JSON: the
// network front-end of the engine. Updates arrive exactly as the paper
// models them — "insert (or remove) this well-formed fragment at this
// byte offset" — and queries run the structural-join machinery, so the
// whole engine surface (documents, updates, queries, maintenance,
// statistics) is reachable by any HTTP client.
//
// Concurrency model: reads never queue. Every query endpoint executes
// against an MVCC snapshot view (DESIGN.md §12) — an immutable,
// generation-stamped cut of the store — so readers take no store lock
// and pass through no gate; they cannot block behind writers, compaction
// or each other. The gate governs only the write and admin lanes: per
// shard, a single writer by default (updates to a shard queue instead of
// contending on its store lock), so a sharded backend applies writes to
// different shards concurrently. Every request runs under a deadline;
// queued requests give up when it expires. Errors are structured JSON
// ({"error": ...}) with meaningful status codes, and /metrics exports
// request counters plus log2 latency histograms, broken down by shard on
// the write path, plus per-shard MVCC view gauges (live views, oldest
// retained generation, reclamation lag).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	lazyxml "repro"
)

// Backend is the named-document surface the server serves — the
// engine's own contract. *lazyxml.Collection (ephemeral),
// *lazyxml.JournaledCollection (durable) and *lazyxml.ShardedCollection
// (N independent stores) all satisfy it.
type Backend = lazyxml.Backend

// durable is the extra surface of a journal-backed backend.
type durable interface {
	Compact() error
	Close() error
}

var (
	_ durable = (*lazyxml.JournaledCollection)(nil)
	_ durable = (*lazyxml.ShardedCollection)(nil)
)

// asDurable reports the backend's durable surface. A backend may carry
// the methods without being durable (an in-memory ShardedCollection);
// IsDurable disambiguates.
func asDurable(b Backend) (durable, bool) {
	d, ok := b.(durable)
	if !ok {
		return nil, false
	}
	if td, ok := b.(interface{ IsDurable() bool }); ok && !td.IsDurable() {
		return nil, false
	}
	return d, true
}

// Config tunes the server. The zero value is usable.
type Config struct {
	// RequestTimeout bounds each request, gate wait included
	// (default 30s).
	RequestTimeout time.Duration
	// MaxBodyBytes caps uploaded documents and fragments (default 32 MiB).
	MaxBodyBytes int64
	// Writers is the number of concurrently applied updates per shard
	// (default 1: single-writer, many-reader on each shard; total write
	// concurrency is Writers × the backend's shard count).
	Writers int
	// MaxMatches caps the matches returned by query endpoints when the
	// request does not pass an explicit ?limit= (default 10000).
	MaxMatches int
	// WriteQueue bounds how many writes may wait on one shard's lane;
	// the next one is shed with 503 + Retry-After instead of queuing
	// (default 64; negative = unbounded).
	WriteQueue int
	// ShedAfter bounds how long a write may wait for its shard's slot
	// before being shed with 503 + Retry-After — distinct from
	// RequestTimeout, which also covers execution (default 1s;
	// negative = wait the full request deadline).
	ShedAfter time.Duration
	// PrimaryAddr, when non-empty, marks this server a read-only
	// replication follower: every write (and rebuild) is refused with
	// 403 and the primary's address, so a misdirected client learns
	// where writes go. A successful POST /promote clears it and the
	// server becomes writable.
	PrimaryAddr string
	// ReplStatus, when non-nil, is called per request and its result
	// embedded under "replication" in /stats and /metrics — the
	// follower's lag readout.
	ReplStatus func() any
	// Ready, when non-nil, is consulted by GET /readyz: returning
	// false (with a reason) makes readyz answer 503, pulling the
	// instance out of a load balancer while it re-seeds or lags.
	Ready func() (bool, string)
	// Promote, when non-nil, enables POST /promote: it must turn the
	// co-located follower into a writable primary (stop following,
	// bump the store epoch) and return the new epoch. On success the
	// server drops its read-only stance.
	Promote func() (int64, error)
	// MaintStatus, when non-nil, is called per request and its result
	// embedded under "maintenance" in /stats and /metrics — the
	// auto-compaction controller's counters and per-shard machine state.
	MaintStatus func() any
	// Planned routes every query endpoint request through the cost-based
	// planner and the generation-keyed result cache by default. Even when
	// false, a request can opt in per call with ?algo= or ?explain=1.
	Planned bool
	// QueryBudget caps each query's buffered execution state in bytes
	// (dedup frontiers, buffering operators) — the -query-budget flag. A
	// query that would exceed it fails with 507 rather than growing the
	// heap with the result size. 0 means unlimited.
	QueryBudget int64
	// PlanStatus, when non-nil, is called per request and its result
	// embedded under "planner" in /stats and /metrics — the result-cache
	// counters and per-algorithm pick counts.
	PlanStatus func() any
	// Epoch, when non-nil, reports the store's replication epoch for
	// /readyz, /stats and the /promote fencing token. A server without
	// it (an in-memory store) reports epoch 0 and cannot validate
	// fencing tokens.
	Epoch func() int64
	// Role, when non-nil, reports the node's replication role (primary,
	// follower or promoting) for /readyz and /stats. Without it the
	// role is derived from the write gate: primary when writable.
	Role func() string
	// ReplAddr is this node's own replication listener address,
	// announced in /readyz and /stats so a sentinel can re-point other
	// members at a freshly promoted primary without out-of-band
	// configuration.
	ReplAddr string
	// RelayDepth, when non-nil, reports the node's distance from the
	// root primary (0 for a primary, 1 for its direct followers, …) —
	// the relay-depth gauge in /stats and /metrics.
	RelayDepth func() int
	// Retarget, when non-nil, enables POST /retarget?addr=…: re-point
	// the node's replication upstream at runtime. On success the server
	// adopts the new address as its read-only upstream — the sentinel's
	// re-point (and demote) path.
	Retarget func(addr string) error
	// GroupCommit declares the backend's journal runs a group-commit
	// lane (opened with WithGroupCommit — the -group-commit flag). The
	// server then defaults Writers to 32 so concurrent single-op writes
	// actually meet in the lane and share an fsync, and wires the
	// backend's commit observer into the batch-size and flush-latency
	// histograms in /metrics and /stats.
	GroupCommit bool
	// SentinelStatus, when non-nil, embeds the co-located sentinel's
	// snapshot under "sentinel" in /stats and /metrics.
	SentinelStatus func() any
}

func (c Config) withDefaults() Config {
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.Writers <= 0 {
		// Single-writer per shard by default: without a commit lane,
		// concurrent appliers would only contend on the store lock. With
		// group commit the point is the opposite — writers that overlap
		// in time share one fsync — so the lane gets real concurrency.
		if c.GroupCommit {
			c.Writers = 32
		} else {
			c.Writers = 1
		}
	}
	if c.MaxMatches <= 0 {
		c.MaxMatches = 10000
	}
	if c.WriteQueue == 0 {
		c.WriteQueue = 64
	}
	if c.ShedAfter == 0 {
		c.ShedAfter = time.Second
	}
	return c
}

// Server is the HTTP front-end over one Backend.
type Server struct {
	backend Backend
	cfg     Config
	gate    *gate
	met     *metrics
	mux     *http.ServeMux

	// primary is the follower's upstream address; "" means writable.
	// It starts as cfg.PrimaryAddr and is cleared by a promotion, so
	// the read-only stance is re-evaluated per request.
	primary atomic.Pointer[string]
}

// New builds a server over the backend. The write gate and the metrics
// grow one lane per backend shard.
func New(backend Backend, cfg Config) *Server {
	s := &Server{
		backend: backend,
		cfg:     cfg.withDefaults(),
		met:     newMetrics(backend.ShardCount()),
	}
	s.primary.Store(&s.cfg.PrimaryAddr)
	queue := s.cfg.WriteQueue
	if queue < 0 {
		queue = 0 // unbounded
	}
	s.gate = newGate(backend.ShardCount(), s.cfg.Writers, queue)
	if s.cfg.GroupCommit {
		// The observer is wired by type assertion — the Backend interface
		// stays free of journal concerns, and an in-memory backend simply
		// reports the lane disabled.
		switch b := backend.(type) {
		case interface {
			SetCommitObserver(func(shard, ops int, flush time.Duration))
		}:
			b.SetCommitObserver(func(_, ops int, flush time.Duration) { s.met.observeBatch(ops, flush) })
			s.met.gcEnabled.Store(true)
		case interface {
			SetCommitObserver(func(ops int, flush time.Duration))
		}:
			b.SetCommitObserver(func(ops int, flush time.Duration) { s.met.observeBatch(ops, flush) })
			s.met.gcEnabled.Store(true)
		}
	}
	s.mux = http.NewServeMux()
	s.routes()
	return s
}

// PrimaryAddr reports the current upstream; "" means this server takes
// writes itself.
func (s *Server) PrimaryAddr() string { return *s.primary.Load() }

// SetPrimaryAddr replaces the upstream address; pass "" to make the
// server writable (what a promotion does).
func (s *Server) SetPrimaryAddr(addr string) { s.primary.Store(&addr) }

// Handler returns the root handler; mount it on an http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns a snapshot of the request counters.
func (s *Server) Metrics() MetricsSnapshot { return s.met.snapshot() }

// Close closes the backend's journal when it has one.
func (s *Server) Close() error {
	if d, ok := asDurable(s.backend); ok {
		return d.Close()
	}
	return nil
}

// request classes for the concurrency gate and metrics.
const (
	classRead = iota
	classWrite
	classAdmin // maintenance: exclusive like a write, counted separately
	classBatch // multi-op write: gates per op inside the handler, not here
)

func (s *Server) routes() {
	// Health and introspection. healthz is liveness (the process serves
	// HTTP); readyz is traffic-worthiness (not re-seeding, not lagging)
	// — a load balancer keys on readyz, an orchestrator restart on
	// healthz. Neither passes through the gate: health probes must
	// answer even when every lane is saturated.
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	s.mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		// Both answers carry the node's identity (role, epoch, own repl
		// address, relay depth, upstream): the sentinel fences and
		// elects off this one probe, and an unready body that said only
		// "no" would force a second round-trip mid-failover.
		body := map[string]any{"ready": true}
		for k, v := range s.nodeInfo() {
			body[k] = v
		}
		if s.cfg.Ready != nil {
			if ok, reason := s.cfg.Ready(); !ok {
				body["ready"] = false
				body["reason"] = reason
				writeJSON(w, http.StatusServiceUnavailable, body)
				return
			}
		}
		writeJSON(w, http.StatusOK, body)
	})
	s.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		body := struct {
			MetricsSnapshot
			Role        string          `json:"role"`
			Epoch       int64           `json:"epoch"`
			RelayDepth  int             `json:"relayDepth"`
			Views       []ViewStatsJSON `json:"views"`
			Replication any             `json:"replication,omitempty"`
			Maintenance any             `json:"maintenance,omitempty"`
			Planner     any             `json:"planner,omitempty"`
			Sentinel    any             `json:"sentinel,omitempty"`
		}{
			MetricsSnapshot: s.met.snapshot(),
			Role:            s.role(),
			Epoch:           s.epoch(),
			RelayDepth:      s.relayDepth(),
			Views:           s.viewStats(),
		}
		if s.cfg.ReplStatus != nil {
			body.Replication = s.cfg.ReplStatus()
		}
		if s.cfg.MaintStatus != nil {
			body.Maintenance = s.cfg.MaintStatus()
		}
		if s.cfg.PlanStatus != nil {
			body.Planner = s.cfg.PlanStatus()
		}
		if s.cfg.SentinelStatus != nil {
			body.Sentinel = s.cfg.SentinelStatus()
		}
		writeJSON(w, http.StatusOK, body)
	})
	s.mux.Handle("GET /stats", s.handle(classRead, s.handleStats))

	// Documents.
	s.mux.Handle("GET /docs", s.handle(classRead, s.handleListDocs))
	s.mux.Handle("PUT /docs/{name}", s.handle(classWrite, s.handlePutDoc))
	s.mux.Handle("GET /docs/{name}", s.handle(classRead, s.handleGetDoc))
	s.mux.Handle("DELETE /docs/{name}", s.handle(classWrite, s.handleDeleteDoc))

	// Doc-scoped updates.
	s.mux.Handle("POST /docs/{name}/insert", s.handle(classWrite, s.handleInsert))
	s.mux.Handle("DELETE /docs/{name}/range", s.handle(classWrite, s.handleRemoveRange))
	s.mux.Handle("DELETE /docs/{name}/element", s.handle(classWrite, s.handleRemoveElement))

	// Multi-op batch: one request carrying many write ops, fanned out
	// concurrently through the shard gates so a group-commit lane lands
	// them in shared fsyncs; per-op results come back in request order.
	s.mux.Handle("POST /batch", s.handle(classBatch, s.handleBatch))

	// Queries.
	s.mux.Handle("GET /query", s.handle(classRead, s.handleQuery))
	s.mux.Handle("GET /count", s.handle(classRead, s.handleCount))
	s.mux.Handle("GET /docs/{name}/query", s.handle(classRead, s.handleQueryDoc))
	s.mux.Handle("GET /docs/{name}/count", s.handle(classRead, s.handleCountDoc))

	// Maintenance.
	s.mux.Handle("POST /compact", s.handle(classAdmin, s.handleCompact))
	s.mux.Handle("POST /rebuild", s.handle(classAdmin, s.handleRebuild))
	s.mux.Handle("POST /check", s.handle(classAdmin, s.handleCheck))
	s.mux.Handle("POST /promote", s.handle(classAdmin, s.handlePromote))
	s.mux.Handle("POST /retarget", s.handle(classAdmin, s.handleRetarget))
}

// role reports the node's replication role: the Role hook when wired,
// otherwise derived from the write gate (a gated server is a follower).
func (s *Server) role() string {
	if s.cfg.Role != nil {
		return s.cfg.Role()
	}
	if s.PrimaryAddr() == "" {
		return "primary"
	}
	return "follower"
}

func (s *Server) epoch() int64 {
	if s.cfg.Epoch != nil {
		return s.cfg.Epoch()
	}
	return 0
}

func (s *Server) relayDepth() int {
	if s.cfg.RelayDepth != nil {
		return s.cfg.RelayDepth()
	}
	return 0
}

// nodeInfo is the identity block shared by /readyz and /stats: who this
// node is in the replication topology, cheap enough for every probe.
func (s *Server) nodeInfo() map[string]any {
	info := map[string]any{
		"role":       s.role(),
		"epoch":      s.epoch(),
		"relayDepth": s.relayDepth(),
	}
	if s.cfg.ReplAddr != "" {
		info["replAddr"] = s.cfg.ReplAddr
	}
	if up := s.PrimaryAddr(); up != "" {
		info["upstream"] = up
	}
	return info
}

// handlerFunc is an engine handler: it returns a status and a JSON body,
// or an error already carrying its status.
type handlerFunc func(r *http.Request) (int, any, error)

// handle wraps an engine handler with the per-request deadline, the
// concurrency gate, body limiting, metrics and panic containment.
func (s *Server) handle(class int, fn handlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.met.requests.Add(1)
		s.met.inflight.Add(1)
		defer s.met.inflight.Add(-1)

		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		r = r.WithContext(ctx)
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)

		// A follower is read-only: its state is the primary's record
		// stream, and a local write would fork the two histories. The
		// address is read per request so a promotion flips the server
		// writable without a restart.
		if primary := s.PrimaryAddr(); (class == classWrite || class == classBatch) && primary != "" {
			s.met.errors.Add(1)
			writeJSON(w, http.StatusForbidden, map[string]any{
				"error":   "read-only replication follower: send writes to the primary",
				"primary": primary,
				"status":  http.StatusForbidden,
			})
			return
		}

		var err error
		shard := 0
		switch class {
		case classRead:
			// Reads take no gate slot: the query path acquires an MVCC
			// snapshot view and runs lock-free against it, so there is
			// nothing a reader could contend on that queuing would help.
			s.met.queries.Add(1)
		case classWrite:
			// Doc-scoped writes queue on their document's shard lane, so
			// writes to different shards are applied concurrently.
			if name := r.PathValue("name"); name != "" {
				shard = s.backend.ShardOf(name)
			}
			s.met.countUpdate(shard)
			err = s.gate.acquireWrite(ctx, shard, s.cfg.ShedAfter)
			defer func(shard int) {
				if err == nil {
					s.gate.releaseWrite(shard)
				}
			}(shard)
		case classBatch:
			// The batch handler gates each op on its own shard lane; a
			// request-wide slot here would deadlock against them.
			s.met.updates.Add(1)
		default:
			// Maintenance spans every shard: take one write slot on each.
			s.met.admin.Add(1)
			err = s.gate.acquireAdmin(ctx)
			defer func() {
				if err == nil {
					s.gate.releaseAdmin()
				}
			}()
		}
		if err != nil {
			if errors.Is(err, errShed) {
				// Overload shedding: tell the client to back off instead
				// of letting it camp on a saturated queue. Retry-After is
				// the shed deadline rounded up — by then the lane either
				// drained or the client should spread its retries.
				s.met.shed.Add(1)
				w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.ShedAfter)))
				s.error(w, http.StatusServiceUnavailable,
					"write queue for shard %d is saturated (%d queued): retry later", shard, s.gate.queued(shard))
				return
			}
			s.met.timeouts.Add(1)
			s.error(w, http.StatusServiceUnavailable, "queued past deadline: %v", err)
			return
		}

		defer func(shard int) {
			if p := recover(); p != nil {
				s.error(w, http.StatusInternalServerError, "internal panic: %v", p)
			}
			d := time.Since(start)
			if class == classRead {
				s.met.readLatency.observe(d)
			} else if class == classWrite {
				s.met.observeWrite(shard, d)
			} else {
				s.met.writeLatency.observe(d)
			}
		}(shard)

		status, body, herr := fn(r)
		if herr != nil {
			s.error(w, errStatus(herr), "%s", herr.Error())
			return
		}
		if raw, ok := body.(rawBody); ok {
			w.Header().Set("Content-Type", raw.contentType)
			w.WriteHeader(status)
			w.Write(raw.data)
			return
		}
		if sb, ok := body.(*streamBody); ok {
			s.streamResponse(w, r, sb)
			return
		}
		writeJSON(w, status, body)
	})
}

// retryAfterSeconds renders a shed deadline as a Retry-After value:
// whole seconds, rounded up, at least 1.
func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// rawBody makes a handler return non-JSON content (document text).
type rawBody struct {
	contentType string
	data        []byte
}

// errStatus maps engine errors onto HTTP statuses by their shape: the
// engine's own messages distinguish unknown names, duplicates and
// invalid offsets.
func errStatus(err error) int {
	var se *statusError
	if errors.As(err, &se) {
		return se.status
	}
	msg := err.Error()
	switch {
	case strings.Contains(msg, "unknown document"):
		return http.StatusNotFound
	case strings.Contains(msg, "already exists"):
		return http.StatusConflict
	case errors.Is(err, lazyxml.ErrNotAnElement):
		return http.StatusBadRequest
	default:
		return http.StatusBadRequest
	}
}

// statusError carries an explicit HTTP status through a handler return.
type statusError struct {
	status int
	msg    string
}

func (e *statusError) Error() string { return e.msg }

func failf(status int, format string, args ...any) error {
	return &statusError{status: status, msg: fmt.Sprintf(format, args...)}
}

func (s *Server) error(w http.ResponseWriter, status int, format string, args ...any) {
	s.met.errors.Add(1)
	writeJSON(w, status, map[string]any{"error": fmt.Sprintf(format, args...), "status": status})
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(body)
}

// ---- parameter helpers ----

func intParam(r *http.Request, name string) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, failf(http.StatusBadRequest, "missing required query parameter %q", name)
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, failf(http.StatusBadRequest, "parameter %q: %v", name, err)
	}
	return v, nil
}

func pathParam(r *http.Request) (string, error) {
	path := r.URL.Query().Get("path")
	if path == "" {
		return "", failf(http.StatusBadRequest, "missing required query parameter \"path\"")
	}
	return path, nil
}

func readBody(r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, failf(http.StatusRequestEntityTooLarge, "body exceeds %d bytes", tooBig.Limit)
		}
		return nil, failf(http.StatusBadRequest, "reading body: %v", err)
	}
	if len(body) == 0 {
		return nil, failf(http.StatusBadRequest, "empty body: expected an XML fragment")
	}
	return body, nil
}

// ---- match serialization ----

// ElemJSON is one element of a match: its lazy identity (segment id and
// immutable local span) — the paper's point is that this never changes
// under later updates.
type ElemJSON struct {
	SID   int `json:"sid"`
	Start int `json:"start"`
	End   int `json:"end"`
	Level int `json:"level"`
}

// MatchJSON is one structural-join result with global positions.
type MatchJSON struct {
	AncStart  int      `json:"ancStart"`
	AncEnd    int      `json:"ancEnd"`
	DescStart int      `json:"descStart"`
	DescEnd   int      `json:"descEnd"`
	Anc       ElemJSON `json:"anc"`
	Desc      ElemJSON `json:"desc"`
}

// QueryResponse is the body of the query endpoints. Count is the number
// of matches returned (equal to len(matches)); Truncated reports that
// the limit cut the result short — the engine stops executing at the
// limit, so the full count is deliberately not computed. Plans appears
// only when the request asked for ?explain=1: one plan per shard the
// query touched, each with the chosen algorithm, per-operator cost
// estimates and whether the shard's partial result came from the cache.
type QueryResponse struct {
	Count     int                `json:"count"`
	Truncated bool               `json:"truncated"`
	Matches   []MatchJSON        `json:"matches"`
	Plans     []lazyxml.PlanInfo `json:"plans,omitempty"`
}

// limitParam resolves the result cap. It is parsed before the query
// runs, so a malformed limit fails fast; explicit reports whether the
// request passed ?limit= itself — a streaming response only caps on an
// explicit limit, while the buffered response falls back to MaxMatches.
func (s *Server) limitParam(r *http.Request) (limit int, explicit bool, err error) {
	limit = s.cfg.MaxMatches
	if raw := r.URL.Query().Get("limit"); raw != "" {
		v, aerr := strconv.Atoi(raw)
		if aerr != nil || v < 0 {
			return 0, false, failf(http.StatusBadRequest, "parameter \"limit\": must be a non-negative integer")
		}
		limit, explicit = v, true
	}
	return limit, explicit, nil
}

// matchJSON renders one match for the wire.
func matchJSON(m lazyxml.Match) MatchJSON {
	return MatchJSON{
		AncStart: m.AncStart, AncEnd: m.AncEnd,
		DescStart: m.DescStart, DescEnd: m.DescEnd,
		Anc:  ElemJSON{SID: int(m.Anc.SID), Start: m.Anc.Start, End: m.Anc.End, Level: m.Anc.Level},
		Desc: ElemJSON{SID: int(m.Desc.SID), Start: m.Desc.Start, End: m.Desc.End, Level: m.Desc.Level},
	}
}

// planParams decides whether the request takes the planned path and with
// what options. ?algo= forces an algorithm (and implies the planned
// path), ?explain=1 requests the plan in the response, ?nocache=1
// bypasses the result cache for A/B timing.
func (s *Server) planParams(r *http.Request) (opt lazyxml.StreamOpt, explain bool, err error) {
	q := r.URL.Query()
	opt.Planned = s.cfg.Planned
	if raw := q.Get("algo"); raw != "" {
		force, perr := lazyxml.ParsePlanAlgo(raw)
		if perr != nil {
			return opt, false, failf(http.StatusBadRequest, "parameter \"algo\": %v", perr)
		}
		opt.Force = force
		opt.Planned = true
	}
	switch q.Get("explain") {
	case "", "0", "false":
	case "1", "true":
		explain = true
		opt.Planned = true
	default:
		return opt, false, failf(http.StatusBadRequest, "parameter \"explain\": want 0 or 1")
	}
	switch q.Get("nocache") {
	case "", "0", "false":
	case "1", "true":
		opt.NoCache = true
	default:
		return opt, false, failf(http.StatusBadRequest, "parameter \"nocache\": want 0 or 1")
	}
	return opt, explain, nil
}

// ---- handlers ----

// StatsResponse is the body of GET /stats: the engine's Stats plus the
// collection and durability context operators need to decide when the
// lazy update log has earned a Compact or Rebuild. Shards breaks the
// update counters and update-log footprint down per shard — the signal
// feed an auto-compaction policy keys on.
type StatsResponse struct {
	Mode           string `json:"mode"`
	TextLen        int    `json:"textLen"`
	Segments       int    `json:"segments"`
	Elements       int    `json:"elements"`
	Tags           int    `json:"tags"`
	SBTreeBytes    int    `json:"sbTreeBytes"`
	TagListBytes   int    `json:"tagListBytes"`
	ElemIdxBytes   int    `json:"elemIdxBytes"`
	UpdateLogBytes int    `json:"updateLogBytes"`
	Inserts        int    `json:"inserts"`
	Removes        int    `json:"removes"`
	Docs           int    `json:"docs"`
	Durable        bool   `json:"durable"`
	// Role/Epoch/RelayDepth/ReplAddr/Upstream locate this node in the
	// replication topology: its current role (primary, follower or
	// promoting), its durable fencing epoch, its distance from the root
	// primary, its own replication listener, and the upstream it
	// follows. The sentinel's election and fencing decisions read these.
	Role       string           `json:"role"`
	Epoch      int64            `json:"epoch"`
	RelayDepth int              `json:"relayDepth"`
	ReplAddr   string           `json:"replAddr,omitempty"`
	Upstream   string           `json:"upstream,omitempty"`
	ShardCount int              `json:"shardCount"`
	Shards     []ShardStatsJSON `json:"shards"`
	// Views is the per-shard MVCC view lifecycle readout: live snapshot
	// handles, the generations they pin, and reclamation progress.
	Views []ViewStatsJSON `json:"views"`
	// Streams is the streaming-query readout: in-flight streams, rows and
	// bytes delivered, budget kills and client cancellations.
	Streams StreamMetrics `json:"streams"`
	// Replication is the follower's lag readout (repl.Status); absent on
	// a primary or standalone server.
	Replication any `json:"replication,omitempty"`
	// Maintenance is the auto-compaction controller's snapshot
	// (maintain.Snapshot); absent when no controller runs.
	Maintenance any `json:"maintenance,omitempty"`
	// Planner is the query planner's cache counters and per-algorithm
	// picks; absent when no planner is attached.
	Planner any `json:"planner,omitempty"`
	// Sentinel is the co-located failover sentinel's snapshot (member
	// health, elections, promotions); absent when none runs here.
	Sentinel any `json:"sentinel,omitempty"`
	// GroupCommit is the backend's commit-lane counters (per shard on a
	// sharded backend); absent when the journal commits per op.
	GroupCommit any `json:"groupCommit,omitempty"`
	// TagCardinality maps each tag named in ?tags=a,b,... to its
	// indexed-element count summed across shards — the planner's own
	// statistics surface, exposed for inspection.
	TagCardinality map[string]int `json:"tagCardinality,omitempty"`
}

// ShardStatsJSON is one shard's slice of the statistics. The journal
// fields are zero on an in-memory backend: journalRecords/journalBytes
// count what sits in the shard's WAL file right now (the compaction
// denominator), seq is the shard's monotonic replication position.
type ShardStatsJSON struct {
	Shard          int   `json:"shard"`
	Docs           int   `json:"docs"`
	TextLen        int   `json:"textLen"`
	Segments       int   `json:"segments"`
	Elements       int   `json:"elements"`
	UpdateLogBytes int   `json:"updateLogBytes"`
	Inserts        int   `json:"inserts"`
	Removes        int   `json:"removes"`
	JournalRecords int64 `json:"journalRecords"`
	JournalBytes   int64 `json:"journalBytes"`
	Seq            int64 `json:"seq"`
}

// ViewStatsJSON is one shard's MVCC view gauges. reclaimLag is how many
// generations the oldest retained view trails the store head — 0 means
// every live view is current and nothing old is pinned; a growing value
// means a slow reader is holding history alive.
type ViewStatsJSON struct {
	Shard        int    `json:"shard"`
	Live         int    `json:"live"`
	HeadGen      uint64 `json:"headGen"`
	PublishedGen uint64 `json:"publishedGen"`
	OldestGen    uint64 `json:"oldestGen"`
	OldestAgeMS  int64  `json:"oldestAgeMillis"`
	ReclaimLag   uint64 `json:"reclaimLag"`
	Builds       uint64 `json:"builds"`
	Shared       uint64 `json:"shared"`
	Reclaimed    uint64 `json:"reclaimed"`
}

// viewStats renders the backend's per-shard view counters for /stats and
// /metrics.
func (s *Server) viewStats() []ViewStatsJSON {
	per := s.backend.ViewStats()
	out := make([]ViewStatsJSON, len(per))
	for i, sv := range per {
		vs := sv.Views
		j := ViewStatsJSON{
			Shard:        sv.Shard,
			Live:         vs.Live,
			HeadGen:      vs.HeadGen,
			PublishedGen: vs.PublishedGen,
			OldestGen:    vs.OldestGen,
			OldestAgeMS:  vs.OldestAge.Milliseconds(),
			Builds:       vs.Builds,
			Shared:       vs.Shared,
			Reclaimed:    vs.Reclaimed,
		}
		if vs.Live > 0 && vs.HeadGen > vs.OldestGen {
			j.ReclaimLag = vs.HeadGen - vs.OldestGen
		}
		out[i] = j
	}
	return out
}

func (s *Server) handleStats(r *http.Request) (int, any, error) {
	st := s.backend.Stats()
	_, dur := asDurable(s.backend)
	per := s.backend.ShardStats()
	shards := make([]ShardStatsJSON, len(per))
	for i, ss := range per {
		shards[i] = ShardStatsJSON{
			Shard:          ss.Shard,
			Docs:           ss.Docs,
			TextLen:        ss.Stats.TextLen,
			Segments:       ss.Stats.Segments,
			Elements:       ss.Stats.Elements,
			UpdateLogBytes: ss.Stats.SBTreeBytes + ss.Stats.TagListBytes,
			Inserts:        ss.Stats.Inserts,
			Removes:        ss.Stats.Removes,
			JournalRecords: ss.JournalRecords,
			JournalBytes:   ss.JournalBytes,
			Seq:            ss.Seq,
		}
	}
	var replication, maintenance, planner, sentinel any
	if s.cfg.ReplStatus != nil {
		replication = s.cfg.ReplStatus()
	}
	if s.cfg.MaintStatus != nil {
		maintenance = s.cfg.MaintStatus()
	}
	if s.cfg.PlanStatus != nil {
		planner = s.cfg.PlanStatus()
	}
	if s.cfg.SentinelStatus != nil {
		sentinel = s.cfg.SentinelStatus()
	}
	var groupCommit any
	switch b := s.backend.(type) {
	case interface {
		CommitLaneStats() []lazyxml.GroupCommitStats
	}:
		lanes := b.CommitLaneStats()
		for _, l := range lanes {
			if l.Enabled {
				groupCommit = lanes
				break
			}
		}
	case interface {
		CommitLaneStats() lazyxml.GroupCommitStats
	}:
		if l := b.CommitLaneStats(); l.Enabled {
			groupCommit = l
		}
	}
	var tagCards map[string]int
	if raw := r.URL.Query().Get("tags"); raw != "" {
		tagCards = map[string]int{}
		for _, tag := range strings.Split(raw, ",") {
			if tag = strings.TrimSpace(tag); tag != "" {
				tagCards[tag] = s.backend.TagCardinality(tag)
			}
		}
	}
	return http.StatusOK, StatsResponse{
		Mode:           st.Mode.String(),
		TextLen:        st.TextLen,
		Segments:       st.Segments,
		Elements:       st.Elements,
		Tags:           st.Tags,
		SBTreeBytes:    st.SBTreeBytes,
		TagListBytes:   st.TagListBytes,
		ElemIdxBytes:   st.ElemIdxBytes,
		UpdateLogBytes: st.SBTreeBytes + st.TagListBytes,
		Inserts:        st.Inserts,
		Removes:        st.Removes,
		Docs:           s.backend.Len(),
		Durable:        dur,
		Role:           s.role(),
		Epoch:          s.epoch(),
		RelayDepth:     s.relayDepth(),
		ReplAddr:       s.cfg.ReplAddr,
		Upstream:       s.PrimaryAddr(),
		ShardCount:     s.backend.ShardCount(),
		Shards:         shards,
		Views:          s.viewStats(),
		Streams:        s.met.snapshot().Streams,
		Replication:    replication,
		Maintenance:    maintenance,
		Planner:        planner,
		Sentinel:       sentinel,
		GroupCommit:    groupCommit,
		TagCardinality: tagCards,
	}, nil
}

func (s *Server) handleListDocs(r *http.Request) (int, any, error) {
	names := s.backend.Names()
	return http.StatusOK, map[string]any{"docs": names, "count": len(names)}, nil
}

func (s *Server) handlePutDoc(r *http.Request) (int, any, error) {
	name := r.PathValue("name")
	body, err := readBody(r)
	if err != nil {
		return 0, nil, err
	}
	if err := s.backend.Put(name, body); err != nil {
		return 0, nil, err
	}
	sid, _ := s.backend.SID(name)
	return http.StatusCreated, map[string]any{"doc": name, "sid": int(sid), "bytes": len(body)}, nil
}

func (s *Server) handleGetDoc(r *http.Request) (int, any, error) {
	text, err := s.backend.Text(r.PathValue("name"))
	if err != nil {
		return 0, nil, err
	}
	return http.StatusOK, rawBody{contentType: "application/xml", data: text}, nil
}

func (s *Server) handleDeleteDoc(r *http.Request) (int, any, error) {
	name := r.PathValue("name")
	if err := s.backend.Delete(name); err != nil {
		return 0, nil, err
	}
	return http.StatusOK, map[string]any{"deleted": name}, nil
}

func (s *Server) handleInsert(r *http.Request) (int, any, error) {
	name := r.PathValue("name")
	off, err := intParam(r, "off")
	if err != nil {
		return 0, nil, err
	}
	body, err := readBody(r)
	if err != nil {
		return 0, nil, err
	}
	sid, err := s.backend.Insert(name, off, body)
	if err != nil {
		return 0, nil, err
	}
	return http.StatusCreated, map[string]any{"doc": name, "sid": int(sid), "off": off, "bytes": len(body)}, nil
}

func (s *Server) handleRemoveRange(r *http.Request) (int, any, error) {
	name := r.PathValue("name")
	off, err := intParam(r, "off")
	if err != nil {
		return 0, nil, err
	}
	l, err := intParam(r, "len")
	if err != nil {
		return 0, nil, err
	}
	if err := s.backend.Remove(name, off, l); err != nil {
		return 0, nil, err
	}
	return http.StatusOK, map[string]any{"doc": name, "off": off, "len": l}, nil
}

func (s *Server) handleRemoveElement(r *http.Request) (int, any, error) {
	name := r.PathValue("name")
	off, err := intParam(r, "off")
	if err != nil {
		return 0, nil, err
	}
	if err := s.backend.RemoveElementAt(name, off); err != nil {
		return 0, nil, err
	}
	return http.StatusOK, map[string]any{"doc": name, "off": off}, nil
}

// batchOp is one operation of a POST /batch request.
type batchOp struct {
	Op   string `json:"op"` // put | delete | insert | remove | removeElement
	Doc  string `json:"doc"`
	Off  int    `json:"off"`
	Len  int    `json:"len"`
	Text string `json:"text"`
}

// batchResult is one op's outcome, returned in request order.
type batchResult struct {
	Ok     bool   `json:"ok"`
	Sid    int    `json:"sid,omitempty"`
	Error  string `json:"error,omitempty"`
	Status int    `json:"status,omitempty"`
}

// maxBatchOps bounds one /batch request; a loader wanting more sends
// more requests.
const maxBatchOps = 1024

// handleBatch applies a JSON array of write ops. Ops on the same
// document run sequentially in request order; ops on different
// documents fan out concurrently through the per-shard write gates, so
// on a group-commit backend they meet in the lane and share fsyncs. One
// op failing does not stop the others — each slot in results carries
// its own verdict, exactly as if the ops had been separate requests.
func (s *Server) handleBatch(r *http.Request) (int, any, error) {
	body, err := readBody(r)
	if err != nil {
		return 0, nil, err
	}
	var req struct {
		Ops []batchOp `json:"ops"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return 0, nil, failf(http.StatusBadRequest, "parsing batch: %v", err)
	}
	if len(req.Ops) == 0 {
		return 0, nil, failf(http.StatusBadRequest, "batch has no ops")
	}
	if len(req.Ops) > maxBatchOps {
		return 0, nil, failf(http.StatusBadRequest, "batch has %d ops, limit %d", len(req.Ops), maxBatchOps)
	}
	for i, op := range req.Ops {
		if op.Doc == "" {
			return 0, nil, failf(http.StatusBadRequest, "op %d: missing doc", i)
		}
		switch op.Op {
		case "put", "delete", "insert", "remove", "removeElement":
		default:
			return 0, nil, failf(http.StatusBadRequest, "op %d: unknown op %q", i, op.Op)
		}
	}

	// Group op indices by document, preserving per-document order.
	groups := make(map[string][]int)
	var order []string
	for i, op := range req.Ops {
		if _, seen := groups[op.Doc]; !seen {
			order = append(order, op.Doc)
		}
		groups[op.Doc] = append(groups[op.Doc], i)
	}

	results := make([]batchResult, len(req.Ops))
	var wg sync.WaitGroup
	for _, doc := range order {
		wg.Add(1)
		go func(doc string, idxs []int) {
			defer wg.Done()
			shard := s.backend.ShardOf(doc)
			for _, i := range idxs {
				results[i] = s.applyBatchOp(r.Context(), shard, req.Ops[i])
			}
		}(doc, groups[doc])
	}
	wg.Wait()

	failed := 0
	for _, res := range results {
		if !res.Ok {
			failed++
		}
	}
	return http.StatusOK, map[string]any{
		"results": results,
		"ops":     len(results),
		"failed":  failed,
	}, nil
}

// applyBatchOp runs one batch op under its shard's write slot, with the
// same shedding, counting and latency observation a single-op request
// gets.
func (s *Server) applyBatchOp(ctx context.Context, shard int, op batchOp) batchResult {
	if err := s.gate.acquireWrite(ctx, shard, s.cfg.ShedAfter); err != nil {
		if errors.Is(err, errShed) {
			s.met.shed.Add(1)
			return batchResult{Error: fmt.Sprintf("write queue for shard %d is saturated: retry later", shard),
				Status: http.StatusServiceUnavailable}
		}
		return batchResult{Error: fmt.Sprintf("shard %d: queued past deadline: %v", shard, err),
			Status: http.StatusServiceUnavailable}
	}
	defer s.gate.releaseWrite(shard)
	s.met.countUpdate(shard)
	start := time.Now()
	defer func() { s.met.observeWrite(shard, time.Since(start)) }()

	var sid lazyxml.SID
	var err error
	switch op.Op {
	case "put":
		if err = s.backend.Put(op.Doc, []byte(op.Text)); err == nil {
			sid, _ = s.backend.SID(op.Doc)
		}
	case "delete":
		err = s.backend.Delete(op.Doc)
	case "insert":
		sid, err = s.backend.Insert(op.Doc, op.Off, []byte(op.Text))
	case "remove":
		err = s.backend.Remove(op.Doc, op.Off, op.Len)
	case "removeElement":
		err = s.backend.RemoveElementAt(op.Doc, op.Off)
	}
	if err != nil {
		return batchResult{Error: err.Error(), Status: errStatus(err)}
	}
	return batchResult{Ok: true, Sid: int(sid)}
}

func (s *Server) handleQuery(r *http.Request) (int, any, error) {
	return s.runQuery(r, "")
}

// runQuery executes both query endpoints over the streaming backend.
// The buffered (default) response pulls at most limit+1 matches — true
// early termination: the engine stops producing once the cap plus the
// one extra pull that decides Truncated are served, instead of
// materializing the full result and slicing. ?stream=1 switches to a
// chunked NDJSON response with no default cap (an explicit ?limit=
// still applies).
func (s *Server) runQuery(r *http.Request, name string) (int, any, error) {
	path, err := pathParam(r)
	if err != nil {
		return 0, nil, err
	}
	limit, explicit, err := s.limitParam(r)
	if err != nil {
		return 0, nil, err
	}
	sopt, explain, err := s.planParams(r)
	if err != nil {
		return 0, nil, err
	}
	streaming, err := s.streamParam(r)
	if err != nil {
		return 0, nil, err
	}
	resultCap := limit
	if streaming && !explicit {
		// Streaming exists to deliver unbounded results in bounded
		// memory; only an explicit limit caps it.
		resultCap = 0
	}
	sopt.BudgetBytes, sopt.Ctx = s.cfg.QueryBudget, r.Context()
	if resultCap > 0 {
		// One match past the cap decides Truncated without materializing
		// anything beyond it.
		sopt.Limit = resultCap + 1
	}
	var rs *lazyxml.ResultStream
	if name == "" {
		rs, err = s.backend.QueryStream(path, sopt)
	} else {
		rs, err = s.backend.QueryDocStream(name, path, sopt)
	}
	if err != nil {
		return 0, nil, err
	}
	if streaming {
		// handed to streamResponse by handle(); it owns Close.
		return http.StatusOK, &streamBody{rs: rs, explain: explain, cap: resultCap}, nil
	}
	defer rs.Close()
	resp := QueryResponse{Matches: []MatchJSON{}}
	for {
		m, nerr := rs.Next()
		if nerr == io.EOF {
			break
		}
		if nerr != nil {
			return 0, nil, s.queryStreamError(nerr)
		}
		if resultCap > 0 && len(resp.Matches) >= resultCap {
			resp.Truncated = true
			break
		}
		resp.Matches = append(resp.Matches, matchJSON(m))
	}
	resp.Count = len(resp.Matches)
	if explain {
		resp.Plans = rs.Plans()
	}
	return http.StatusOK, resp, nil
}

// queryStreamError classifies a mid-query failure: budget kills carry
// 507 (the query's buffered state outgrew -query-budget), everything
// else keeps the generic mapping.
func (s *Server) queryStreamError(err error) error {
	if errors.Is(err, lazyxml.ErrStreamBudget) {
		s.met.budgetKills.Add(1)
		return failf(http.StatusInsufficientStorage, "%v", err)
	}
	return err
}

// streamParam parses ?stream=1.
func (s *Server) streamParam(r *http.Request) (bool, error) {
	switch r.URL.Query().Get("stream") {
	case "", "0", "false":
		return false, nil
	case "1", "true":
		return true, nil
	default:
		return false, failf(http.StatusBadRequest, "parameter \"stream\": want 0 or 1")
	}
}

// streamBody is the handler return that switches handle() into chunked
// streaming mode.
type streamBody struct {
	rs      *lazyxml.ResultStream
	explain bool
	cap     int // 0 = uncapped
}

// countingWriter tracks bytes written for the streamedBytes counter.
type countingWriter struct {
	w http.ResponseWriter
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// streamFlushEvery is how many rows go between explicit flushes — small
// enough that a slow consumer sees steady progress, large enough not to
// defeat chunking.
const streamFlushEvery = 256

// streamResponse writes the NDJSON stream: a header line (with plans
// when ?explain=1), one MatchJSON line per row, and a trailer line
// carrying either {"done":true,count,truncated} or {"error":...}. Rows
// flow as they are produced — time-to-first-row does not wait for the
// last row — and the response stays bounded by the batch window
// regardless of result size.
func (s *Server) streamResponse(w http.ResponseWriter, r *http.Request, sb *streamBody) {
	s.met.streamsOpened.Add(1)
	s.met.streamsInflight.Add(1)
	defer s.met.streamsInflight.Add(-1)
	defer sb.rs.Close()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	cw := &countingWriter{w: w}
	defer func() { s.met.streamedBytes.Add(cw.n) }()
	enc := json.NewEncoder(cw)
	enc.SetEscapeHTML(false)

	head := map[string]any{"stream": true}
	if sb.explain {
		head["plans"] = sb.rs.Plans()
	}
	enc.Encode(head)
	flush()

	count := 0
	for {
		m, err := sb.rs.Next()
		if err == io.EOF {
			enc.Encode(map[string]any{"done": true, "count": count, "truncated": false})
			flush()
			return
		}
		if err != nil {
			// The status line already went out; the structured trailer is
			// the in-band error channel.
			s.met.errors.Add(1)
			status := http.StatusBadRequest
			if errors.Is(err, lazyxml.ErrStreamBudget) {
				s.met.budgetKills.Add(1)
				status = http.StatusInsufficientStorage
			} else if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				s.met.streamCancels.Add(1)
				status = statusClientClosedRequest
			}
			enc.Encode(map[string]any{"error": err.Error(), "status": status, "count": count})
			flush()
			return
		}
		if sb.cap > 0 && count >= sb.cap {
			enc.Encode(map[string]any{"done": true, "count": count, "truncated": true})
			flush()
			return
		}
		if r.Context().Err() != nil {
			// Client went away between pulls; Close (deferred) cancels the
			// producer and releases the views.
			s.met.streamCancels.Add(1)
			return
		}
		enc.Encode(matchJSON(m))
		s.met.streamedRows.Add(1)
		count++
		if count%streamFlushEvery == 0 {
			flush()
		}
	}
}

// statusClientClosedRequest is nginx's conventional code for a client
// that disconnected mid-response.
const statusClientClosedRequest = 499

func (s *Server) handleCount(r *http.Request) (int, any, error) {
	path, err := pathParam(r)
	if err != nil {
		return 0, nil, err
	}
	n, err := s.backend.Count(path)
	if err != nil {
		return 0, nil, err
	}
	return http.StatusOK, map[string]any{"count": n}, nil
}

func (s *Server) handleQueryDoc(r *http.Request) (int, any, error) {
	return s.runQuery(r, r.PathValue("name"))
}

func (s *Server) handleCountDoc(r *http.Request) (int, any, error) {
	path, err := pathParam(r)
	if err != nil {
		return 0, nil, err
	}
	n, err := s.backend.CountDoc(r.PathValue("name"), path)
	if err != nil {
		return 0, nil, err
	}
	return http.StatusOK, map[string]any{"count": n}, nil
}

func (s *Server) handleCompact(r *http.Request) (int, any, error) {
	d, ok := asDurable(s.backend)
	if !ok {
		return 0, nil, failf(http.StatusNotImplemented, "no journal: the server runs in-memory")
	}
	if err := d.Compact(); err != nil {
		return 0, nil, failf(http.StatusInternalServerError, "compact: %v", err)
	}
	return http.StatusOK, map[string]any{"compacted": true}, nil
}

// handleRebuild is the collection's equivalent of the paper's
// "maintenance hours" re-index: every document's segment subtree is
// collapsed into one segment (clearing the update log's footprint) while
// the name→segment map stays valid. Durable backends compact afterwards
// so the collapse survives a restart.
func (s *Server) handleRebuild(r *http.Request) (int, any, error) {
	if primary := s.PrimaryAddr(); primary != "" {
		return 0, nil, failf(http.StatusForbidden,
			"read-only replication follower: rebuild on the primary at %s", primary)
	}
	if err := s.backend.CollapseAll(); err != nil {
		return 0, nil, failf(http.StatusInternalServerError, "rebuild: %v", err)
	}
	st := s.backend.Stats()
	return http.StatusOK, map[string]any{"rebuilt": true, "segments": st.Segments}, nil
}

func (s *Server) handleCheck(r *http.Request) (int, any, error) {
	if err := s.backend.CheckConsistency(); err != nil {
		return 0, nil, failf(http.StatusConflict, "consistency check failed: %v", err)
	}
	return http.StatusOK, map[string]any{"consistent": true}, nil
}

// handlePromote turns a follower into the writable primary: the wired
// callback stops the replication stream and bumps the store's epoch (so
// the deposed primary's records are refused by fencing), then the server
// drops its read-only stance. Runs under the admin gate — every write
// lane is quiesced while roles flip, and two racing promotes serialize
// here, so exactly one can win.
//
// ?epoch=N is an optional fencing token: the caller promotes this node
// *as observed at epoch N*, and if the node has moved past N — another
// sentinel's election already won — the request fails with 409 and the
// current epoch, instead of stacking a second promotion on the first.
func (s *Server) handlePromote(r *http.Request) (int, any, error) {
	if s.cfg.Promote == nil {
		return 0, nil, failf(http.StatusNotImplemented, "this server has no promote hook (not a follower)")
	}
	if raw := r.URL.Query().Get("epoch"); raw != "" {
		want, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			return 0, nil, failf(http.StatusBadRequest, "bad epoch fencing token %q: %v", raw, err)
		}
		if s.cfg.Epoch == nil {
			return 0, nil, failf(http.StatusNotImplemented, "this server has no epoch surface; cannot honor a fencing token")
		}
		if cur := s.cfg.Epoch(); cur != want {
			return 0, nil, failf(http.StatusConflict,
				"fencing token mismatch: node is at epoch %d, caller observed %d (another promotion won)", cur, want)
		}
	}
	epoch, err := s.cfg.Promote()
	if err != nil {
		return 0, nil, failf(http.StatusConflict, "promote: %v", err)
	}
	s.SetPrimaryAddr("")
	return http.StatusOK, map[string]any{"promoted": true, "epoch": epoch}, nil
}

// handleRetarget re-points the node's replication upstream at runtime —
// the sentinel's path for re-pointing survivors at a freshly promoted
// primary and for demoting a deposed primary that came back. Like
// promote it runs under the admin gate, so a retarget cannot interleave
// with a promotion.
func (s *Server) handleRetarget(r *http.Request) (int, any, error) {
	if s.cfg.Retarget == nil {
		return 0, nil, failf(http.StatusNotImplemented, "this server has no retarget hook (not a cluster member)")
	}
	addr := r.URL.Query().Get("addr")
	if addr == "" {
		return 0, nil, failf(http.StatusBadRequest, "retarget needs ?addr=host:port (a replication address)")
	}
	if err := s.cfg.Retarget(addr); err != nil {
		return 0, nil, failf(http.StatusConflict, "retarget: %v", err)
	}
	// Following addr now: writes are refused and redirected there.
	s.SetPrimaryAddr(addr)
	return http.StatusOK, map[string]any{"retargeted": true, "upstream": addr, "epoch": s.epoch()}, nil
}
