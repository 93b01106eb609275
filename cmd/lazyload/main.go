// Command lazyload drives a running lazyxmld with a concurrent mixed
// workload and reports throughput and latency percentiles — the quick
// way to see the paper's claim hold over the network: updates stay
// cheap while queries keep running.
//
// Each worker owns one document and issues a read/write mix against it:
// writes insert a small fragment right after the document's root open
// tag (always a valid segment insertion), reads run a document-scoped
// structural count. A final whole-collection query and /stats round off
// the run.
//
// The driver is shard-aware: it asks /stats for the server's shard
// count and, when the server is sharded, picks document names that
// spread evenly across shards (mirroring the engine's FNV-1a routing),
// so the load exercises every writer lane instead of hot-spotting one.
//
// By default the client keeps connections alive with an idle pool at
// least as large as the worker count, so the numbers measure engine
// latency rather than TCP setup; -reuse=false disables keep-alives to
// measure the connection-churn regime instead.
//
// Bulk mode (-bulk) measures document ingest instead of the mixed
// workload: it loads -n fresh documents of roughly -doc-bytes each,
// either over HTTP PUTs (the default) or over the binary replication
// protocol (-bin addr, the primary's -repl listener), where PUT frames
// pipeline -window deep on one connection instead of paying a round
// trip per document. scripts/bench_repl.sh runs both lanes back to
// back.
//
// Query-mix mode (-query-mix) measures the read path under a skewed
// query population — the workload the planner's result cache is built
// for. Each document is seeded with -query-paths tag groups; reads pick
// a path by a zipf law (-zipf-s), so a few paths are hot and most are
// cold, and the remaining (1 - -read) fraction are inserts that
// invalidate the written shard's cache entries by generation bump.
// -algo appends ?algo= to every query for planned-vs-fixed A/B runs;
// the summary prints latency percentiles plus the server's cache hit
// ratio and per-algorithm picks. scripts/bench_plan.sh runs the lanes
// back to back and records BENCH_plan.json.
//
// Stream mode (-stream) measures the streaming read path: one document
// seeded with -n matches, then -c passes per lane, each reporting
// time-to-first-row and drain rate. The HTTP lane reads ?stream=1
// NDJSON; adding -bin runs the same passes over the binary QUERY lane
// on the primary's -repl listener.
//
// Usage:
//
//	lazyload [-url http://localhost:8080] [-c 8] [-n 2000] [-read 0.8]
//	         [-prefix load] [-reuse] [-keep] [-retries 4] [-peers url,url,...]
//	         [-bulk] [-bin addr] [-doc-bytes 4096] [-window 64]
//	         [-query-mix] [-query-paths 64] [-zipf-s 1.2] [-algo name]
//	         [-stream]
//
// Requests refused with 503 (the server's overload shedding) or lost to
// a transport error are retried up to -retries times with a jittered
// exponential backoff; a Retry-After header from the server overrides
// the local backoff base. The summary reports the retry count.
//
// Failover (-peers): given the cluster members' HTTP base URLs, the
// driver rides through a primary failover. A connection refused, or a
// 403 naming the primary (the follower's answer to a write after this
// node was demoted or the driver was pointed at a replica), triggers a
// re-resolve: the peers' /readyz are polled for whoever now reports
// role=primary and every later request is rewritten onto that base URL.
// Re-resolves count against -retries and share the jittered backoff, so
// a cluster mid-election is retried, not hammered.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/repl"
)

func main() {
	url := flag.String("url", "http://localhost:8080", "base URL of a running lazyxmld")
	workers := flag.Int("c", 8, "concurrent workers (one document each)")
	total := flag.Int("n", 2000, "total operations across all workers")
	readFrac := flag.Float64("read", 0.8, "fraction of operations that are queries")
	prefix := flag.String("prefix", "load", "document name prefix")
	reuse := flag.Bool("reuse", true, "persistent client: keep-alive connections, idle pool >= -c (false: new TCP connection per request)")
	keep := flag.Bool("keep", false, "leave the documents on the server after the run")
	bulk := flag.Bool("bulk", false, "bulk-ingest mode: load -n fresh documents and report docs/s + MB/s")
	binAddr := flag.String("bin", "", "bulk over the binary protocol at this address (the primary's -repl listener; empty: HTTP PUTs)")
	docBytes := flag.Int("doc-bytes", 4096, "approximate size of each bulk document")
	window := flag.Int("window", 64, "binary bulk pipelining depth (puts in flight before blocking on acks)")
	retriesFlag := flag.Int("retries", 4, "max retries per request on 503/transport failure (jittered backoff, honors Retry-After)")
	queryMix := flag.Bool("query-mix", false, "query-mix mode: zipf-skewed structural queries with a write fraction (the planner/cache workload)")
	stream := flag.Bool("stream", false, "stream mode: repeated streaming queries over one large result, reporting time-to-first-row and rows/s (HTTP ?stream=1; add -bin for the binary QUERY lane)")
	queryPaths := flag.Int("query-paths", 64, "query-mix: distinct query paths (one tag group each)")
	zipfS := flag.Float64("zipf-s", 1.2, "query-mix: zipf skew of path popularity (> 1; higher = hotter head)")
	algo := flag.String("algo", "", "query-mix: force this join algorithm on every query via ?algo= (empty: server default)")
	peersFlag := flag.String("peers", "", "comma-separated HTTP base URLs of all cluster members: on connection refused or a 403 naming the primary, re-resolve the writable primary and fail over")
	flag.Parse()
	maxRetries = *retriesFlag
	if *peersFlag != "" {
		base := strings.TrimSuffix(*url, "/")
		fo = &failover{orig: base, base: base}
		for _, p := range strings.Split(*peersFlag, ",") {
			if p = strings.TrimSpace(p); p != "" {
				fo.peers = append(fo.peers, strings.TrimSuffix(p, "/"))
			}
		}
	}

	// The transport is sized so every worker can hold a warm connection:
	// with the default MaxIdleConnsPerHost of 2, workers beyond the
	// second would re-dial constantly and the tail latencies would be
	// TCP setup, not engine time.
	pool := *workers + 2
	client := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        pool,
			MaxIdleConnsPerHost: pool,
			IdleConnTimeout:     90 * time.Second,
			DisableKeepAlives:   !*reuse,
		},
	}

	if *bulk {
		runBulk(client, *url, *binAddr, *prefix, *total, *docBytes, *window, *workers, *keep)
		return
	}
	if *queryMix {
		runQueryMix(client, *url, *prefix, *algo, *workers, *total, *queryPaths, *readFrac, *zipfS, *keep)
		return
	}
	if *stream {
		runStream(client, *url, *binAddr, *prefix, *total, *workers, *keep)
		return
	}

	shardCount := serverShardCount(client, *url)
	mode := "keep-alive"
	if !*reuse {
		mode = "no-reuse"
	}
	fmt.Printf("lazyload: %d workers, %d ops, %.0f%% reads, %s, server shards=%d\n",
		*workers, *total, *readFrac*100, mode, shardCount)

	// One document per worker; recreate from scratch. When the server is
	// sharded, worker w's document is named so it routes to shard w mod
	// shardCount — an even spread across every writer lane.
	names := make([]string, *workers)
	for w := 0; w < *workers; w++ {
		names[w] = docName(*prefix, w, shardCount)
		do(client, "DELETE", *url+"/docs/"+names[w], nil) // ignore 404
		status, body := doRetry(client, "PUT", *url+"/docs/"+names[w], []byte("<load></load>"))
		if status != http.StatusCreated {
			log.Fatalf("lazyload: PUT %s: %d %s", names[w], status, body)
		}
	}

	type sample struct {
		read bool
		d    time.Duration
		err  bool
	}
	perWorker := *total / *workers
	samples := make([][]sample, *workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			name := names[w]
			samples[w] = make([]sample, 0, perWorker)
			for i := 0; i < perWorker; i++ {
				read := rng.Float64() < *readFrac
				t0 := time.Now()
				var status int
				if read {
					status, _ = doRetry(client, "GET", *url+"/docs/"+name+"/count?path=load//item", nil)
				} else {
					frag := fmt.Sprintf("<item w=\"%d\" n=\"%d\"/>", w, i)
					// "<load>" is 6 bytes: inserting there keeps the
					// document well-formed forever.
					status, _ = doRetry(client, "POST", *url+"/docs/"+name+"/insert?off=6", []byte(frag))
				}
				samples[w] = append(samples[w], sample{read: read, d: time.Since(t0), err: status >= 400 || status == 0})
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var reads, writes, errs int
	var readLat, writeLat []time.Duration
	for _, ss := range samples {
		for _, s := range ss {
			if s.err {
				errs++
			}
			if s.read {
				reads++
				readLat = append(readLat, s.d)
			} else {
				writes++
				writeLat = append(writeLat, s.d)
			}
		}
	}
	ops := reads + writes
	fmt.Printf("lazyload: %d ops (%d reads, %d writes, %d errors, %d retries) in %s — %.0f ops/s (writes %.0f/s)\n",
		ops, reads, writes, errs, retries.Load(), elapsed.Round(time.Millisecond),
		float64(ops)/elapsed.Seconds(), float64(writes)/elapsed.Seconds())
	report("reads ", readLat)
	report("writes", writeLat)

	status, body, _ := do(client, "GET", rebase(*url)+"/count?path=load//item", nil)
	fmt.Printf("collection count: %d %s", status, body)
	reportShardSpread(client, rebase(*url))

	if !*keep {
		for w := 0; w < *workers; w++ {
			do(client, "DELETE", rebase(*url)+"/docs/"+names[w], nil)
		}
	}
	if errs > 0 {
		os.Exit(1)
	}
}

// runBulk loads n fresh documents of ~docBytes each and reports ingest
// throughput. Over HTTP it uses c concurrent workers issuing PUTs; over
// the binary protocol it uses one connection with pipelined PUT frames
// — the comparison scripts/bench_repl.sh prints.
func runBulk(client *http.Client, base, binAddr, prefix string, n, docBytes, window, c int, keep bool) {
	doc := makeBulkDoc(docBytes)
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("%s-bulk-%06d", prefix, i)
	}

	lane := "http"
	start := time.Now()
	if binAddr != "" {
		lane = fmt.Sprintf("binary window=%d", window)
		bc, err := repl.DialBulk(binAddr, 10*time.Second, window)
		if err != nil {
			log.Fatalf("lazyload: dialing %s: %v", binAddr, err)
		}
		for _, name := range names {
			if err := bc.Put(name, doc); err != nil {
				log.Fatalf("lazyload: bulk put %s: %v", name, err)
			}
		}
		if err := bc.Close(); err != nil {
			log.Fatalf("lazyload: bulk flush: %v", err)
		}
	} else {
		var wg sync.WaitGroup
		errs := make([]error, c)
		for w := 0; w < c; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < n; i += c {
					status, body := doRetry(client, "PUT", base+"/docs/"+names[i], doc)
					if status != http.StatusCreated {
						errs[w] = fmt.Errorf("PUT %s: %d %s", names[i], status, strings.TrimSpace(body))
						return
					}
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				log.Fatalf("lazyload: bulk: %v", err)
			}
		}
	}
	elapsed := time.Since(start)
	mb := float64(n*len(doc)) / (1 << 20)
	fmt.Printf("lazyload bulk [%s]: %d docs × %dB in %s — %.0f docs/s, %.1f MB/s (%d retries)\n",
		lane, n, len(doc), elapsed.Round(time.Millisecond),
		float64(n)/elapsed.Seconds(), mb/elapsed.Seconds(), retries.Load())

	if !keep {
		for _, name := range names {
			do(client, "DELETE", base+"/docs/"+name, nil)
		}
	}
}

// runQueryMix drives the zipf-skewed query workload the planner's
// result cache is built for. Each worker owns one document seeded with
// every tag group g0..g{paths-1}, so a read — GET /query over
// load//g<k>//item — is a genuine collection-wide structural join; k is
// drawn from a zipf law so a few paths dominate. Writes insert a fresh
// group subtree right after the root open tag, bumping the written
// shard's generation and invalidating exactly that shard's cache
// entries. The summary adds the server's cache hit ratio and planner
// picks to the usual latency percentiles.
func runQueryMix(client *http.Client, base, prefix, algo string, c, n, paths int, readFrac, zipfS float64, keep bool) {
	if paths < 1 {
		log.Fatal("lazyload: -query-paths must be >= 1")
	}
	if zipfS <= 1 {
		log.Fatal("lazyload: -zipf-s must be > 1")
	}
	shardCount := serverShardCount(client, base)
	lane := "server default"
	if algo != "" {
		lane = "algo=" + algo
	}
	fmt.Printf("lazyload query-mix [%s]: %d workers, %d ops, %.0f%% reads, %d paths, zipf s=%.2f, server shards=%d\n",
		lane, c, n, readFrac*100, paths, zipfS, shardCount)

	var seed bytes.Buffer
	seed.WriteString("<load>")
	for k := 0; k < paths; k++ {
		fmt.Fprintf(&seed, "<g%d><item/><item/></g%d>", k, k)
	}
	seed.WriteString("</load>")
	names := make([]string, c)
	for w := 0; w < c; w++ {
		names[w] = docName(prefix+"-qm", w, shardCount)
		do(client, "DELETE", base+"/docs/"+names[w], nil) // ignore 404
		status, body := doRetry(client, "PUT", base+"/docs/"+names[w], seed.Bytes())
		if status != http.StatusCreated {
			log.Fatalf("lazyload: PUT %s: %d %s", names[w], status, body)
		}
	}

	type sample struct {
		read bool
		d    time.Duration
		err  bool
	}
	perWorker := n / c
	samples := make([][]sample, c)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < c; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*7919 + 1))
			zipf := rand.NewZipf(rng, zipfS, 1, uint64(paths-1))
			name := names[w]
			samples[w] = make([]sample, 0, perWorker)
			for i := 0; i < perWorker; i++ {
				k := int(zipf.Uint64())
				read := rng.Float64() < readFrac
				t0 := time.Now()
				var status int
				if read {
					u := fmt.Sprintf("%s/query?path=load//g%d//item", base, k)
					if algo != "" {
						u += "&algo=" + algo
					}
					status, _ = doRetry(client, "GET", u, nil)
				} else {
					// "<load>" is 6 bytes: a fresh group subtree there keeps
					// the document well-formed and adds a match for path k.
					frag := fmt.Sprintf("<g%d><item w=\"%d\" n=\"%d\"/></g%d>", k, w, i, k)
					status, _ = doRetry(client, "POST", base+"/docs/"+name+"/insert?off=6", []byte(frag))
				}
				samples[w] = append(samples[w], sample{read: read, d: time.Since(t0), err: status >= 400 || status == 0})
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var reads, writes, errs int
	var readLat, writeLat []time.Duration
	for _, ss := range samples {
		for _, s := range ss {
			if s.err {
				errs++
			}
			if s.read {
				reads++
				readLat = append(readLat, s.d)
			} else {
				writes++
				writeLat = append(writeLat, s.d)
			}
		}
	}
	ops := reads + writes
	fmt.Printf("lazyload query-mix: %d ops (%d reads, %d writes, %d errors, %d retries) in %s — %.0f ops/s\n",
		ops, reads, writes, errs, retries.Load(), elapsed.Round(time.Millisecond),
		float64(ops)/elapsed.Seconds())
	report("reads ", readLat)
	report("writes", writeLat)
	reportPlanner(client, rebase(base))

	if !keep {
		for w := 0; w < c; w++ {
			do(client, "DELETE", rebase(base)+"/docs/"+names[w], nil)
		}
	}
	if errs > 0 {
		os.Exit(1)
	}
}

// runStream measures the streaming read path: one document seeded with
// rows matches, then passes streaming queries per lane, each timed for
// TTFB (request sent → first row decoded, the number materialization
// inflates by the whole execution time) and drain rate. The HTTP lane
// reads ?stream=1 NDJSON; with -bin the binary QUERY lane runs the same
// passes over one framed TCP connection.
func runStream(client *http.Client, base, binAddr, prefix string, rows, passes int, keep bool) {
	if passes < 1 {
		passes = 1
	}
	name := prefix + "-stream"
	var b bytes.Buffer
	b.WriteString("<load>")
	for i := 0; i < rows; i++ {
		b.WriteString("<item/>")
	}
	b.WriteString("</load>")
	do(client, "DELETE", base+"/docs/"+name, nil) // ignore 404
	if status, body := doRetry(client, "PUT", base+"/docs/"+name, b.Bytes()); status != http.StatusCreated {
		log.Fatalf("lazyload: PUT %s: %d %s", name, status, body)
	}
	defer func() {
		if !keep {
			do(client, "DELETE", base+"/docs/"+name, nil)
		}
	}()
	path := "load//item"
	fmt.Printf("lazyload stream: %d rows per query, %d passes per lane\n", rows, passes)

	streamReport := func(lane string, ttfb []time.Duration, totalRows int, elapsed time.Duration) {
		sort.Slice(ttfb, func(i, j int) bool { return ttfb[i] < ttfb[j] })
		q := func(f float64) time.Duration { return ttfb[int(f*float64(len(ttfb)-1))] }
		fmt.Printf("stream lane=%s rows_per_s=%.0f ttfb_p50_us=%d ttfb_p95_us=%d rows=%d elapsed_ms=%d\n",
			lane, float64(totalRows)/elapsed.Seconds(),
			q(0.50).Microseconds(), q(0.95).Microseconds(), totalRows, elapsed.Milliseconds())
	}

	// HTTP lane: chunked NDJSON via ?stream=1.
	ttfb := make([]time.Duration, 0, passes)
	total := 0
	start := time.Now()
	for p := 0; p < passes; p++ {
		t0 := time.Now()
		resp, err := client.Get(base + "/query?path=" + path + "&stream=1")
		if err != nil {
			log.Fatalf("lazyload: stream query: %v", err)
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		first := true
		count := 0
		for sc.Scan() {
			line := sc.Bytes()
			if bytes.Contains(line, []byte(`"stream"`)) {
				continue // header
			}
			if bytes.Contains(line, []byte(`"done"`)) || bytes.Contains(line, []byte(`"error"`)) {
				break
			}
			if first {
				ttfb = append(ttfb, time.Since(t0))
				first = false
			}
			count++
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			log.Fatalf("lazyload: reading stream: %v", err)
		}
		if count != rows {
			log.Fatalf("lazyload: stream pass %d delivered %d rows, want %d", p, count, rows)
		}
		total += count
	}
	streamReport("http", ttfb, total, time.Since(start))

	if binAddr == "" {
		return
	}
	// Binary lane: QUERY/ROW frames on one connection, passes in sequence.
	qc, err := repl.DialQuery(binAddr, 10*time.Second)
	if err != nil {
		log.Fatalf("lazyload: dialing %s: %v", binAddr, err)
	}
	defer qc.Close()
	ttfb = make([]time.Duration, 0, passes)
	total = 0
	start = time.Now()
	for p := 0; p < passes; p++ {
		t0 := time.Now()
		rowsIt, err := qc.Query("", path, 0, 0)
		if err != nil {
			log.Fatalf("lazyload: binary query: %v", err)
		}
		first := true
		count := 0
		for {
			_, err := rowsIt.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				log.Fatalf("lazyload: binary stream: %v", err)
			}
			if first {
				ttfb = append(ttfb, time.Since(t0))
				first = false
			}
			count++
		}
		if count != rows {
			log.Fatalf("lazyload: binary pass %d delivered %d rows, want %d", p, count, rows)
		}
		total += count
	}
	streamReport("binary", ttfb, total, time.Since(start))
}

// reportPlanner prints the server's result-cache counters and planner
// picks from /stats — the hit ratio is the headline number of a
// query-mix run. The key=value form is what scripts/bench_plan.sh
// parses into BENCH_plan.json.
func reportPlanner(client *http.Client, base string) {
	status, body, _ := do(client, "GET", base+"/stats", nil)
	if status != http.StatusOK {
		fmt.Printf("stats: %d %s", status, body)
		return
	}
	var st statsBody
	if err := json.Unmarshal([]byte(body), &st); err != nil || st.Planner == nil {
		fmt.Println("planner: server runs without -plan (no cache counters)")
		return
	}
	cs := st.Planner.Cache
	lookups := cs.Hits + cs.Misses
	ratio := 0.0
	if lookups > 0 {
		ratio = float64(cs.Hits) / float64(lookups)
	}
	fmt.Printf("planner cache: hits=%d misses=%d hit_ratio=%.3f entries=%d bytes=%d evictions=%d\n",
		cs.Hits, cs.Misses, ratio, cs.Entries, cs.Bytes, cs.Evictions)
	if len(st.Planner.Picks) > 0 {
		keys := make([]string, 0, len(st.Planner.Picks))
		for k := range st.Planner.Picks {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Printf("planner picks:")
		for _, k := range keys {
			fmt.Printf(" %s=%d", k, st.Planner.Picks[k])
		}
		fmt.Println()
	}
}

// makeBulkDoc builds a well-formed document of roughly size bytes.
func makeBulkDoc(size int) []byte {
	var b bytes.Buffer
	b.WriteString("<bulk>")
	for i := 0; b.Len() < size-len("</bulk>"); i++ {
		fmt.Fprintf(&b, "<item n=\"%d\">payload</item>", i)
	}
	b.WriteString("</bulk>")
	return b.Bytes()
}

// statsBody is the slice of GET /stats the driver reads.
type statsBody struct {
	ShardCount int `json:"shardCount"`
	Shards     []struct {
		Shard          int `json:"shard"`
		Docs           int `json:"docs"`
		Inserts        int `json:"inserts"`
		UpdateLogBytes int `json:"updateLogBytes"`
	} `json:"shards"`
	Planner *struct {
		Cache struct {
			Hits      int64 `json:"hits"`
			Misses    int64 `json:"misses"`
			Entries   int   `json:"entries"`
			Bytes     int64 `json:"bytes"`
			Evictions int64 `json:"evictions"`
		} `json:"cache"`
		Picks map[string]int64 `json:"picks"`
	} `json:"planner"`
}

// serverShardCount asks /stats how many shards the server runs; servers
// without a shard dimension count as one.
func serverShardCount(client *http.Client, base string) int {
	status, body := doRetry(client, "GET", base+"/stats", nil)
	if status != http.StatusOK {
		log.Fatalf("lazyload: GET /stats: %d %s", status, body)
	}
	var st statsBody
	if err := json.Unmarshal([]byte(body), &st); err != nil || st.ShardCount < 1 {
		return 1
	}
	return st.ShardCount
}

// docName picks worker w's document name. Against a sharded server it
// appends a probe suffix until the name hashes (FNV-1a, the engine's
// routing rule) to shard w mod shards, so the workers cover every shard
// evenly.
func docName(prefix string, w, shards int) string {
	base := fmt.Sprintf("%s-%d", prefix, w)
	if shards <= 1 {
		return base
	}
	want := uint32(w % shards)
	for k := 0; ; k++ {
		name := base
		if k > 0 {
			name = fmt.Sprintf("%s-%d", base, k)
		}
		h := fnv.New32a()
		h.Write([]byte(name))
		if h.Sum32()%uint32(shards) == want {
			return name
		}
	}
}

// reportShardSpread prints the per-shard document and insert counts from
// /stats, the visible proof the load hit every shard.
func reportShardSpread(client *http.Client, base string) {
	status, body, _ := do(client, "GET", base+"/stats", nil)
	if status != http.StatusOK {
		fmt.Printf("stats: %d %s", status, body)
		return
	}
	var st statsBody
	if err := json.Unmarshal([]byte(body), &st); err != nil || len(st.Shards) == 0 {
		fmt.Printf("stats: %d %s", status, body)
		return
	}
	fmt.Printf("shard spread (%d shards):", st.ShardCount)
	for _, s := range st.Shards {
		fmt.Printf(" [%d: %d docs, %d inserts, %dB log]", s.Shard, s.Docs, s.Inserts, s.UpdateLogBytes)
	}
	fmt.Println()
}

func report(label string, lat []time.Duration) {
	if len(lat) == 0 {
		return
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	q := func(f float64) time.Duration { return lat[int(f*float64(len(lat)-1))] }
	fmt.Printf("  %s p50=%s p95=%s p99=%s max=%s\n", label,
		q(0.50).Round(time.Microsecond), q(0.95).Round(time.Microsecond),
		q(0.99).Round(time.Microsecond), lat[len(lat)-1].Round(time.Microsecond))
}

// retries counts requests that were re-issued after a 503 or transport
// error; the summary reports it so shed-and-retry runs are visible.
var retries atomic.Int64

// failover re-resolves the writable primary against a -peers list and
// rewrites request URLs from the original -url base onto whoever holds
// the role now. Nil (no -peers) disables the whole mechanism.
type failover struct {
	orig  string // the -url base every call site builds URLs from
	peers []string

	mu   sync.Mutex
	base string // current active base (starts as orig)
}

// fo is the process-wide failover state; nil without -peers.
var fo *failover

// rebase maps a URL built on the original base onto the primary that
// -peers failover settled on; identity without -peers. The post-run
// summary reads use it so they survive a mid-run failover too.
func rebase(url string) string {
	if fo == nil {
		return url
	}
	return fo.rewrite(url)
}

// rewrite maps a URL built on the original base onto the active one.
func (f *failover) rewrite(url string) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.base == f.orig || !strings.HasPrefix(url, f.orig) {
		return url
	}
	return f.base + strings.TrimPrefix(url, f.orig)
}

// resolve polls the peers' /readyz for whoever reports role=primary and
// makes it the active base. Both the ready (200) and unready (503)
// bodies carry the role, so a primary that is momentarily gating
// traffic is still found.
func (f *failover) resolve(client *http.Client) {
	for _, peer := range f.peers {
		status, body, _ := do(client, "GET", peer+"/readyz", nil)
		if status == 0 {
			continue
		}
		var info struct {
			Role string `json:"role"`
		}
		if json.Unmarshal([]byte(body), &info) != nil || info.Role != "primary" {
			continue
		}
		f.mu.Lock()
		if f.base != peer {
			f.base = peer
			fmt.Printf("lazyload: failing over to %s (reports role=primary)\n", peer)
		}
		f.mu.Unlock()
		return
	}
}

// maxRetries is how many times a shed request is retried (flag -retries).
var maxRetries = 4

// do issues one request. A transport failure reports status 0 with the
// error as the body — the caller (or doRetry) decides whether to retry;
// a load driver must not abort the whole run because one request raced a
// connection close.
func do(client *http.Client, method, url string, body []byte) (int, string, http.Header) {
	var rdr io.Reader
	if body != nil {
		rdr = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rdr)
	if err != nil {
		log.Fatalf("lazyload: %v", err)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err.Error(), nil
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b), resp.Header
}

// doRetry issues a request and retries it on 503 (overload shedding) or
// transport failure, sleeping a jittered exponential backoff between
// attempts. A Retry-After header from the server overrides the local
// backoff base — the server knows when its queue will drain. With
// -peers, a transport failure or a 403 naming the primary additionally
// re-resolves the writable primary before the retry, so the driver
// follows a failover instead of dying with it.
func doRetry(client *http.Client, method, url string, body []byte) (int, string) {
	backoff := 50 * time.Millisecond
	for attempt := 0; ; attempt++ {
		reqURL := url
		if fo != nil {
			reqURL = fo.rewrite(url)
		}
		status, respBody, hdr := do(client, method, reqURL, body)
		again := status == 0 || status == http.StatusServiceUnavailable
		reResolve := fo != nil && (status == 0 ||
			(status == http.StatusForbidden && strings.Contains(respBody, "primary")))
		if reResolve {
			again = true
		}
		if !again || attempt >= maxRetries {
			return status, respBody
		}
		retries.Add(1)
		if reResolve {
			fo.resolve(client)
		}
		wait := backoff
		if ra := hdr.Get("Retry-After"); ra != "" {
			if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
				wait = time.Duration(secs) * time.Second
			}
		}
		// Full jitter in [wait/2, wait): concurrent shed workers must not
		// re-arrive in lockstep and saturate the queue again.
		wait = wait/2 + time.Duration(rand.Int63n(int64(wait/2)+1))
		time.Sleep(wait)
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}
