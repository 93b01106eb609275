// Command lazyxmld serves a lazy XML collection over HTTP: the network
// daemon over the engine. With -journal it is durable — every update is
// WAL'd before it is applied, and a killed daemon restarts from
// snapshot + replay. Without it the collection lives in memory.
//
// Usage:
//
//	lazyxmld [-addr :8080] [-journal dir] [-shards 1] [-mode ld|ls]
//	         [-attrs] [-values] [-sync]
//	         [-group-commit] [-commit-window 0]
//	         [-cache-bytes 67108864] [-query-budget 0]
//	         [-timeout 30s] [-drain 10s]
//	         [-write-queue 64] [-shed-after 1s] [-ready-max-lag 0]
//	         [-compact-on-exit] [-repl addr] [-follow addr]
//	         [-peers url,url,...] [-sentinel]
//	         [-auto-compact] [-compact-segments 64] [-compact-log-bytes N]
//	         [-compact-interval 5s] [-compact-view-age 30s]
//
// Group commit (-group-commit, requires -journal): each shard runs a
// commit lane — concurrent writers enqueue, a leader applies the whole
// queue and makes it durable with a single WAL write plus a single
// fsync, then wakes every waiter with its individual result. No write
// is acknowledged before its record is on disk, so -sync durability is
// preserved while its per-op fsync cost amortizes across the batch.
// -commit-window adds a bounded wait (e.g. 1ms) that gathers larger
// batches at low concurrency; 0 relies on natural batching alone (ops
// arriving during a flush form the next batch). The server admits 32
// writes per shard under -group-commit so concurrent requests actually
// meet in the lane, and one otherwise: a shard applies one write at a time.
// Batch sizes and flush latencies are exported under "groupCommit" in
// /metrics, per-shard lane counters under "groupCommit" in /stats, and
// POST /batch submits many ops in one request.
//
// Query planning: every query and count runs through the cost-based
// planner, which prices Lazy-Join, Stack-Tree-Desc, SkipJoin and the
// PathStack twig against per-tag update-log statistics and picks the
// cheapest — on a store fragmented into tiny segments
// that is a traditional join, the paper's §5.3 fallback — and results
// are cached in a byte-bounded LRU of -cache-bytes (<= 0 disables it)
// keyed by each shard's (store, generation) pair — any write to a shard
// invalidates exactly that shard's entries, for free.
// ?algo=lazy|std|skip|twig forces a strategy per request,
// ?explain=1 returns the chosen plan with per-operator cost estimates,
// ?nocache=1 bypasses the cache. Cache counters and per-algorithm picks
// appear under "planner" in /stats and /metrics. On a follower the same
// cache keys on the follower's own applied generation, so cached reads
// stay exactly as fresh as replication has made the store.
//
// With -shards N documents are routed by name hash across N independent
// stores, each with its own journal directory (shard-0000, …) and its
// own writer slot, so writes to different shards apply concurrently. The
// default of 1 preserves the single-store on-disk layout: a journal
// directory from an unsharded daemon reopens unchanged. A directory
// created with N > 1 remembers its shard count (shards.meta) and that
// persisted count wins over the flag.
//
// Replication (both sides require -journal: replication ships the WAL):
//
//	-repl addr    serve the binary replication protocol on addr;
//	              followers subscribe here.
//	-follow addr  run as a read-only follower of the primary whose
//	              -repl listener is at addr. Writes get 403 plus the
//	              primary's address; replication lag is exported under
//	              "replication" in /stats and /metrics. The shard count
//	              must match the primary's. A follower that fell below
//	              the primary's compaction horizon re-seeds itself from
//	              a streamed snapshot automatically.
//
// -repl and -follow combine: a follower that also serves the replication
// protocol can feed its own downstream replicas (a relay), and after POST
// /promote it is a fully-formed primary. Promotion stops the stream,
// bumps the store's replication epoch (fencing off the deposed
// primary's records) and makes this server writable, all without a
// restart. Each node's distance from the root primary is announced in
// the replication handshake and exported as relayDepth.
//
// Self-healing cluster (-peers, -sentinel):
//
//	-peers a,b,c  the cluster members' HTTP base URLs. At boot a node
//	              that would start writable first asks the peers who is
//	              primary: if one answers with an epoch at least as
//	              high as its own, the node starts as that primary's
//	              follower instead — a deposed primary that restarts
//	              rejoins the cluster rather than split-braining it.
//	              With -peers set, a fatal replication error no longer
//	              kills the daemon; the node idles until a sentinel (or
//	              an operator, via POST /retarget) re-points it.
//	-sentinel     run the failover supervisor in-process: probe every
//	              peer's /readyz, declare the primary dead only after K
//	              consecutive failed probes, elect the most-caught-up
//	              reachable follower, drive POST /promote with the
//	              observed epoch as a fencing token, and re-point
//	              survivors whose upstream died. Requires -peers. Safe
//	              to run on every member: racing sentinels are
//	              serialized by the fencing token.
//
// Auto-compaction (-auto-compact): a background controller polls each
// shard's segment count and WAL footprint and applies the paper's §5.3
// remedy on its own — collapsing the worst-fragmented documents once
// the count crosses -compact-segments (with hysteresis, releasing at
// half the watermark) and folding a shard's journal once it exceeds
// -compact-log-bytes, every -compact-interval at most. Maintenance
// takes the same per-shard write slots as client writes, runs only
// while this node is the writable primary. It defers (bounded)
// horizon-moving work while a live follower still lags, and collapses
// while a reader still holds an MVCC snapshot view of an older
// generation past -compact-view-age. Its counters appear under
// "maintenance" in /stats and /metrics.
//
// Overload shedding: at most -write-queue writes may wait on one shard's
// lane, and none waits longer than -shed-after; beyond either bound the
// daemon answers 503 with a Retry-After header instead of queuing.
// GET /readyz reports 503 while a re-seed is installing or (with
// -ready-max-lag > 0) while replication lag exceeds that many records —
// the signal a load balancer uses to route around a stale replica.
//
// Routes (all responses JSON unless noted):
//
//	GET    /healthz                     liveness
//	GET    /readyz                      traffic-worthiness (503 while re-seeding/lagging)
//	GET    /stats                       engine sizes, update-log footprint
//	GET    /metrics                     request counters, latency histograms
//	GET    /docs                        list document names
//	PUT    /docs/{name}                 add a document (body: XML)
//	GET    /docs/{name}                 current document text (XML)
//	DELETE /docs/{name}                 remove a document
//	POST   /docs/{name}/insert?off=N    insert a fragment (body: XML)
//	DELETE /docs/{name}/range?off=N&len=L   remove a byte range
//	DELETE /docs/{name}/element?off=N   remove one element
//	POST   /batch                       apply many write ops in one request
//	                                    (body: {"ops":[{"op":"put"|"delete"|
//	                                    "insert"|"remove"|"removeElement",
//	                                    "doc":...,"off":N,"len":L,"text":...}]};
//	                                    per-op results in request order)
//	GET    /query?path=a//b             whole-collection structural query
//	                                    (&algo= force, &explain=1 plan, &nocache=1)
//	GET    /count?path=a//b             cardinality only (same planner params)
//	GET    /docs/{name}/query?path=...  document-scoped query (same planner params)
//	GET    /docs/{name}/count?path=...  document-scoped cardinality (same planner params)
//	POST   /compact                     fold the journal into a snapshot
//	POST   /rebuild                     collapse every document's segments
//	POST   /check                       verify index consistency
//	POST   /promote                     turn this follower into the writable primary
//	                                    (?epoch=N fences racing promoters)
//	POST   /retarget?addr=host:port     re-point this node's replication upstream
//
// On SIGINT/SIGTERM the daemon stops accepting connections, drains
// in-flight requests (up to -drain), then closes the journal.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	lazyxml "repro"
	"repro/internal/cluster"
	"repro/internal/maintain"
	"repro/internal/repl"
	"repro/internal/sentinel"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	journalDir := flag.String("journal", "", "directory of the durable journal (empty: in-memory)")
	shards := flag.Int("shards", 1, "independent stores; documents are routed by name hash (1 = single store, legacy layout)")
	syncWAL := flag.Bool("sync", false, "fsync the journal on every update (durable against power loss)")
	groupCommit := flag.Bool("group-commit", false, "leader-based group commit: concurrent writers share one WAL write+fsync per batch (requires -journal)")
	commitWindow := flag.Duration("commit-window", 0, "with -group-commit: wait up to this long gathering a batch before flushing (0 = natural batching only)")
	mode := flag.String("mode", "ld", "maintenance mode: ld (lazy dynamic) or ls (lazy static)")
	attrs := flag.Bool("attrs", false, "index attributes as @name pseudo-elements")
	values := flag.Bool("values", false, "index element/attribute values for equality predicates")
	cacheBytes := flag.Int64("cache-bytes", 64<<20, "generation-keyed result-cache budget in bytes (<= 0 disables caching)")
	queryBudget := flag.Int64("query-budget", 0, "per-query buffered-state cap in bytes; exceeding it fails the query with 507 (0 = unlimited)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request deadline, queue wait included")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
	writeQueue := flag.Int("write-queue", 64, "max writes queued per shard lane before shedding with 503 (-1 = unbounded)")
	shedAfter := flag.Duration("shed-after", time.Second, "max time a write waits for its shard slot before shedding with 503 (-1 = wait the full deadline)")
	readyMaxLag := flag.Int64("ready-max-lag", 0, "readyz reports 503 when replication lag exceeds this many records (0 = lag never gates readiness)")
	maxBody := flag.Int64("max-body", 32<<20, "max upload size in bytes")
	compactOnExit := flag.Bool("compact-on-exit", false, "fold the journal into a snapshot during shutdown")
	replAddr := flag.String("repl", "", "serve the binary replication protocol on this address (requires -journal)")
	follow := flag.String("follow", "", "follow the primary whose -repl listener is at this address (requires -journal; read-only until promoted)")
	peers := flag.String("peers", "", "comma-separated HTTP base URLs of all cluster members (enables boot-time primary discovery and runtime re-targeting)")
	sentinelOn := flag.Bool("sentinel", false, "run the failover supervisor in-process (requires -peers)")
	autoCompact := flag.Bool("auto-compact", false, "run the background maintenance controller (collapse/compact from §5.3 thresholds)")
	compactSegments := flag.Int("compact-segments", maintain.DefaultSegmentsHigh, "auto-compact: per-shard segment-count high watermark")
	compactLogBytes := flag.Int64("compact-log-bytes", maintain.DefaultLogBytesHigh, "auto-compact: per-shard journal bytes that trigger a compact")
	compactInterval := flag.Duration("compact-interval", 5*time.Second, "auto-compact: polling interval")
	compactViewAge := flag.Duration("compact-view-age", maintain.DefaultMaxViewAge, "auto-compact: defer collapses while a stale snapshot view at least this old is retained (negative disables)")
	flag.Parse()

	if (*replAddr != "" || *follow != "") && *journalDir == "" {
		log.Fatalf("lazyxmld: -repl and -follow require -journal: replication ships the write-ahead log")
	}
	if *groupCommit && *journalDir == "" {
		log.Fatalf("lazyxmld: -group-commit requires -journal: the lane batches WAL flushes")
	}
	if *commitWindow != 0 && !*groupCommit {
		log.Fatalf("lazyxmld: -commit-window only applies with -group-commit")
	}
	var peerList []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, strings.TrimSuffix(p, "/"))
		}
	}
	if *sentinelOn && len(peerList) == 0 {
		log.Fatalf("lazyxmld: -sentinel requires -peers: a supervisor with no member list has nothing to watch")
	}

	var m lazyxml.Mode
	switch strings.ToLower(*mode) {
	case "ld":
		m = lazyxml.LD
	case "ls":
		m = lazyxml.LS
	default:
		log.Fatalf("lazyxmld: unknown mode %q", *mode)
	}
	var dbOpts []lazyxml.Option
	if *attrs {
		dbOpts = append(dbOpts, lazyxml.WithAttributes())
	}
	if *values {
		dbOpts = append(dbOpts, lazyxml.WithValues())
	}

	var sc *lazyxml.ShardedCollection
	if *journalDir != "" {
		var jOpts []lazyxml.JournalOption
		if *syncWAL {
			jOpts = append(jOpts, lazyxml.WithSync())
		}
		if *groupCommit {
			jOpts = append(jOpts, lazyxml.WithGroupCommit(*commitWindow))
			log.Printf("lazyxmld: group commit on (window %v): concurrent writers share WAL flushes", *commitWindow)
		}
		var err error
		sc, err = lazyxml.OpenShardedCollection(*journalDir, *shards, m, dbOpts, jOpts...)
		if err != nil {
			log.Fatalf("lazyxmld: opening journal %s: %v", *journalDir, err)
		}
		if sc.ShardCount() != *shards {
			log.Printf("lazyxmld: journal %s already holds %d shards; -shards %d ignored",
				*journalDir, sc.ShardCount(), *shards)
		}
		log.Printf("lazyxmld: journal %s restored: %d documents, %d segments, %d shard(s)",
			*journalDir, sc.Len(), sc.Stats().Segments, sc.ShardCount())
	} else {
		sc = lazyxml.NewShardedCollection(*shards, m, dbOpts...)
		if *shards > 1 {
			log.Printf("lazyxmld: in-memory collection, %d shards (no -journal: state dies with the process)", *shards)
		} else {
			log.Printf("lazyxmld: in-memory collection (no -journal: state dies with the process)")
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srvCfg := server.Config{
		RequestTimeout: *timeout,
		MaxBodyBytes:   *maxBody,
		WriteQueue:     *writeQueue,
		ShedAfter:      *shedAfter,
		QueryBudget:    *queryBudget,
	}
	if *queryBudget > 0 {
		log.Printf("lazyxmld: per-query memory budget %dB (507 on exceed)", *queryBudget)
	}

	qp := lazyxml.NewQueryPlanner(*cacheBytes)
	sc.EnablePlanner(qp)
	srvCfg.PlanStatus = func() any { return qp.Stats() }

	// Replication: cluster.Node owns this node's role for its whole life
	// — boot-time follower, runtime re-target via POST /retarget, and
	// promotion — and keeps a co-located relay primary consistent across
	// re-seeds and epoch changes. A standalone journaled primary gets the
	// same wiring so /readyz and /stats report its role and epoch.
	var node *cluster.Node
	var primary *repl.Primary
	if sc.IsDurable() {
		upstream := *follow
		if upstream == "" && len(peerList) > 0 {
			// Boot-time epoch census: a node that would start writable
			// first asks the peers who is primary. Deferring to any live
			// primary with an epoch at least as high as our own is how a
			// deposed primary rejoins after a restart instead of
			// split-braining the cluster.
			if rAddr, peer, epoch, ok := discoverPrimary(peerList, sc.Epoch()); ok {
				log.Printf("lazyxmld: peer census: %s is primary at epoch %d (local epoch %d); starting as its follower",
					peer, epoch, sc.Epoch())
				upstream = rAddr
			}
		}
		ncfg := cluster.Config{
			Upstream:        upstream,
			Follower:        repl.FollowerConfig{Logf: log.Printf},
			ReseedOnDiverge: len(peerList) > 0,
			ReadyMaxLag:     *readyMaxLag,
			Logf:            log.Printf,
		}
		if upstream != "" && *follow == "" {
			// The census just demoted a would-be primary: its history may
			// hold acknowledged records the new regime never saw, and WAL
			// positions cannot detect divergence unless we are strictly
			// ahead. Discard and re-seed before the first subscribe.
			ncfg.Follower.ForceInitialReseed = true
		}
		if len(peerList) == 0 {
			// Standalone follower semantics predate the cluster layer: a
			// fatal, non-retryable replication error (incompatible
			// primary, diverged history, deposed primary) kills the
			// daemon. In a cluster the node idles instead — a sentinel or
			// an operator re-points it with POST /retarget.
			ncfg.OnFatal = func(err error) { log.Fatalf("lazyxmld: follower: %v", err) }
		}
		node = cluster.New(sc, ncfg)
		if *replAddr != "" {
			p, err := repl.NewPrimary(sc, repl.PrimaryConfig{Logf: log.Printf, Depth: node.RelayDepth})
			if err != nil {
				log.Fatalf("lazyxmld: %v", err)
			}
			ln, err := net.Listen("tcp", *replAddr)
			if err != nil {
				log.Fatalf("lazyxmld: replication listener on %s: %v", *replAddr, err)
			}
			primary = p
			node.AttachPrimary(p)
			go func() {
				if err := p.Serve(ln); err != nil {
					log.Printf("lazyxmld: replication listener: %v", err)
				}
			}()
			log.Printf("lazyxmld: replicating on %s (%d shard(s))", ln.Addr(), sc.ShardCount())
		}
		if err := node.Start(ctx); err != nil {
			log.Fatalf("lazyxmld: %v", err)
		}
		node.Wire(&srvCfg, *replAddr)
		if upstream != "" {
			log.Printf("lazyxmld: following %s (read-only; writes 403 to the primary)", upstream)
		}
	}

	if *sentinelOn {
		snt := sentinel.New(sentinel.Config{Peers: peerList, Logf: log.Printf})
		srvCfg.SentinelStatus = func() any { return snt.Status() }
		go snt.Run(ctx)
		log.Printf("lazyxmld: sentinel watching %d member(s)", len(peerList))
	}

	// The controller is created after the server (it schedules through
	// the server's write gate) but before the listener goroutine starts,
	// so the MaintStatus closure never observes a half-built controller.
	var ctl *maintain.Controller
	if *autoCompact {
		srvCfg.MaintStatus = func() any { return ctl.Snapshot() }
	}
	srv := server.New(sc, srvCfg)
	if *autoCompact {
		mcfg := maintain.Config{
			Interval: *compactInterval,
			Policy: maintain.Policy{
				SegmentsHigh:       *compactSegments,
				LogBytesHigh:       *compactLogBytes,
				MaxRetainedViewAge: *compactViewAge,
			},
			IsPrimary: func() bool {
				if node != nil {
					return node.Role() == cluster.RolePrimary
				}
				return srv.PrimaryAddr() == ""
			},
			GateShard: srv.ExclusiveShard,
			Logf:      log.Printf,
		}
		if primary != nil {
			mcfg.SubscriberLag = primary.SubscriberLag
		}
		ctl = maintain.New(sc, mcfg)
		go ctl.Run(ctx)
		log.Printf("lazyxmld: auto-compaction on (segments ≥ %d, journal ≥ %dB, every %s)",
			*compactSegments, *compactLogBytes, *compactInterval)
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("lazyxmld: serving on %s (mode=%s cache=%dB shards=%d writers=%d timeout=%s)",
		*addr, m, *cacheBytes, sc.ShardCount(), srv.WritersPerShard(), *timeout)

	select {
	case err := <-errCh:
		log.Fatalf("lazyxmld: %v", err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("lazyxmld: shutting down, draining for up to %s", *drain)
	if primary != nil {
		primary.Close()
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("lazyxmld: drain: %v", err)
	}
	if sc.IsDurable() {
		if *compactOnExit {
			if err := sc.Compact(); err != nil {
				log.Printf("lazyxmld: compact on exit: %v", err)
			}
		}
		if err := sc.Close(); err != nil {
			log.Printf("lazyxmld: closing journal: %v", err)
		}
	}
	met := srv.Metrics()
	fmt.Printf("lazyxmld: served %d requests (%d errors), bye\n", met.Requests, met.Errors)
}

// discoverPrimary asks each peer's /readyz who the primary is and picks
// the one at the highest epoch that is at least selfEpoch. Both the 200
// and 503 bodies carry the role/epoch/replAddr triple, so even an
// unready primary (say, mid-re-seed of a downstream) is discoverable.
func discoverPrimary(peers []string, selfEpoch int64) (replAddr, peerURL string, epoch int64, ok bool) {
	client := &http.Client{Timeout: 1500 * time.Millisecond}
	for _, peer := range peers {
		resp, err := client.Get(peer + "/readyz")
		if err != nil {
			continue
		}
		var body struct {
			Role     string `json:"role"`
			Epoch    int64  `json:"epoch"`
			ReplAddr string `json:"replAddr"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil || body.Role != "primary" || body.ReplAddr == "" {
			continue
		}
		if body.Epoch >= selfEpoch && (!ok || body.Epoch > epoch) {
			replAddr, peerURL, epoch, ok = body.ReplAddr, peer, body.Epoch, true
		}
	}
	return replAddr, peerURL, epoch, ok
}
