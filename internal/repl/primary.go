package repl

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	lazyxml "repro"
)

// PrimaryConfig tunes the primary side of replication; zero values pick
// sensible defaults.
type PrimaryConfig struct {
	// HeartbeatEvery is the interval between HEARTBEAT frames on an idle
	// stream (default 500ms).
	HeartbeatEvery time.Duration
	// TailRecords is the per-shard in-memory tail buffer capacity
	// (default 1024). Subscribers inside the window stream from
	// memory; those behind it catch up from the on-disk WAL.
	TailRecords int
	// HandshakeTimeout bounds the HELLO/SUBSCRIBE exchange (default 10s).
	HandshakeTimeout time.Duration
	// WriteTimeout bounds each frame write to a subscriber, so one stuck
	// follower cannot pin a sender goroutine forever (default 30s).
	WriteTimeout time.Duration
	// SnapChunkBytes is the slice size for SNAPCHUNK frames in a
	// re-seed stream (default 256 KiB). Small enough that a kill
	// mid-stream wastes little, large enough to amortize framing.
	SnapChunkBytes int
	// Depth reports this node's relay depth, announced in HELLOs: 0
	// for a root primary, 1+ when this primary relays a store it itself
	// follows (cascading replication). nil means 0. It is a hook, not a
	// constant, because a relay's depth changes when its own upstream
	// chain changes.
	Depth func() int
	// Logf receives connection-level events; nil discards them.
	Logf func(format string, args ...any)
}

func (c *PrimaryConfig) fill() {
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 500 * time.Millisecond
	}
	if c.TailRecords <= 0 {
		c.TailRecords = 1024
	}
	if c.HandshakeTimeout <= 0 {
		c.HandshakeTimeout = 10 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 30 * time.Second
	}
	if c.SnapChunkBytes <= 0 {
		c.SnapChunkBytes = 256 << 10
	}
}

// feed is one shard's live record source: a tap on the shard's journal
// fills a bounded ring. The journal is resolved through the sharded
// collection on every use, never cached: a snapshot re-seed swaps the
// shard in place, and a feed pinned to the old one would stream from a
// closed journal.
type feed struct {
	shard int
	mu    sync.Mutex
	tail  *ring
}

// journal returns the shard's current journal.
func (p *Primary) journal(fd *feed) *lazyxml.JournaledDB {
	return p.sc.ShardJournal(fd.shard)
}

// Primary serves the replication protocol over a sharded, journaled
// collection. Every journal append is tapped into a bounded
// in-memory tail; subscribers stream from the tail when they are close
// and from the on-disk WAL when they are behind.
type Primary struct {
	sc    *lazyxml.ShardedCollection
	cfg   PrimaryConfig
	feeds []*feed

	mu     sync.Mutex
	notify chan struct{} // closed and replaced whenever a record lands
	conns  map[net.Conn]struct{}
	subs   map[*subscriber]struct{}
	ln     net.Listener
	closed bool
	wg     sync.WaitGroup
}

// subscriber is the shared view of one replication stream's shipped
// positions, updated by the sender after every record and read by
// SubscriberLag — the signal the maintenance controller consults before
// moving the compaction horizon under a live follower.
type subscriber struct {
	mu  sync.Mutex
	pos []int64
}

func (s *subscriber) set(shard int, p int64) {
	s.mu.Lock()
	s.pos[shard] = p
	s.mu.Unlock()
}

// NewPrimary wires a primary over sc, which must be durable (journaled):
// replication is WAL shipping, and an in-memory store has no WAL to ship.
// The taps stay installed for the life of the process.
func NewPrimary(sc *lazyxml.ShardedCollection, cfg PrimaryConfig) (*Primary, error) {
	if !sc.IsDurable() {
		return nil, errors.New("repl: replication requires a journaled store (-journal)")
	}
	cfg.fill()
	p := &Primary{
		sc:     sc,
		cfg:    cfg,
		notify: make(chan struct{}),
		conns:  make(map[net.Conn]struct{}),
		subs:   make(map[*subscriber]struct{}),
	}
	for i := 0; i < sc.ShardCount(); i++ {
		fd := &feed{shard: i, tail: newRing(cfg.TailRecords)}
		p.feeds = append(p.feeds, fd)
		if err := p.attach(fd); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// attach installs the replication tap on the shard's current journal.
// The tap runs under the journal mutex; it only touches the ring
// (feed.mu) and swaps the notify channel (p.mu), never calls back into
// the journal.
func (p *Primary) attach(fd *feed) error {
	j := p.journal(fd)
	if j == nil {
		return fmt.Errorf("repl: shard %d has no journal", fd.shard)
	}
	j.SetReplTap(func(seq int64, rec []byte) {
		fd.mu.Lock()
		fd.tail.add(seq, rec)
		fd.mu.Unlock()
		p.wake()
	})
	return nil
}

// ReattachShard rewires shard i's tap onto its current journaled
// collection and clears the in-memory tail. Call it after a snapshot
// re-seed replaced the shard: the tap installed at startup belongs to
// the closed journal, and the old tail's records predate the new base.
func (p *Primary) ReattachShard(i int) error {
	if i < 0 || i >= len(p.feeds) {
		return fmt.Errorf("repl: no shard %d", i)
	}
	fd := p.feeds[i]
	fd.mu.Lock()
	fd.tail = newRing(p.cfg.TailRecords)
	fd.mu.Unlock()
	if err := p.attach(fd); err != nil {
		return err
	}
	p.wake()
	return nil
}

func (p *Primary) logf(format string, args ...any) {
	if p.cfg.Logf != nil {
		p.cfg.Logf(format, args...)
	}
}

// wake signals every waiting sender that a record landed.
func (p *Primary) wake() {
	p.mu.Lock()
	close(p.notify)
	p.notify = make(chan struct{})
	p.mu.Unlock()
}

// notifyCh returns the channel the next wake will close. Senders must
// grab it BEFORE computing their targets: any record landing after the
// grab closes this exact channel, so no wakeup is ever missed.
func (p *Primary) notifyCh() <-chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.notify
}

// Serve accepts connections until the listener is closed (see Close).
func (p *Primary) Serve(l net.Listener) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		l.Close()
		return errors.New("repl: primary closed")
	}
	p.ln = l
	p.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			p.mu.Lock()
			closed := p.closed
			p.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			conn.Close()
			return nil
		}
		p.conns[conn] = struct{}{}
		p.wg.Add(1)
		p.mu.Unlock()
		go func() {
			defer p.wg.Done()
			defer func() {
				conn.Close()
				p.mu.Lock()
				delete(p.conns, conn)
				p.mu.Unlock()
			}()
			p.handleConn(conn)
		}()
	}
}

// KickSubscribers drops every live connection; the listener stays open.
// A relay calls it after adopting a newer epoch from its upstream (and a
// freshly promoted node after bumping its own): downstream followers
// reconnect, and the re-handshake is what carries the new epoch down the
// chain — without the kick, fencing would wait on the next natural
// reconnect.
func (p *Primary) KickSubscribers() {
	p.mu.Lock()
	n := len(p.conns)
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	if n > 0 {
		p.logf("repl: kicked %d subscriber connection(s) for epoch re-handshake", n)
	}
}

// Close stops accepting, drops every connection and waits for the
// handler goroutines. The journal taps stay installed (they are cheap)
// so Close is safe while writes continue.
func (p *Primary) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	ln := p.ln
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	p.wg.Wait()
	return nil
}

func (p *Primary) sendErr(conn net.Conn, code uint64, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	p.logf("repl: %s: %s", conn.RemoteAddr(), msg)
	conn.SetWriteDeadline(time.Now().Add(p.cfg.WriteTimeout))
	_ = WriteFrame(conn, TypeError, ErrorFrame{Code: code, Msg: msg}.encode())
}

// handleConn runs the handshake, then dispatches on the client's first
// post-HELLO frame: SUBSCRIBE starts a replication stream, SNAPREQUEST or
// SNAPFORCE a snapshot re-seed. Any other frame is refused: the port
// never writes to the store it serves.
func (p *Primary) handleConn(conn net.Conn) {
	conn.SetDeadline(time.Now().Add(p.cfg.HandshakeTimeout))
	n := len(p.feeds)
	epoch := p.sc.Epoch()
	depth := 0
	if p.cfg.Depth != nil {
		depth = p.cfg.Depth()
	}
	if err := WriteFrame(conn, TypeHello, (Hello{Version: Version, Shards: n, Epoch: epoch, Depth: depth}).encode()); err != nil {
		return
	}
	typ, payload, err := ReadFrame(conn)
	if err != nil || typ != TypeHello {
		p.sendErr(conn, ErrCodeBadFrame, "expected HELLO, got frame type %d (err %v)", typ, err)
		return
	}
	h, err := decodeHello(payload)
	if err != nil {
		p.sendErr(conn, ErrCodeBadFrame, "%v", err)
		return
	}
	if h.Version != Version {
		p.sendErr(conn, ErrCodeVersion, "protocol version %d, want %d", h.Version, Version)
		return
	}
	// A follower must match the primary's topology exactly: record
	// frames name shards by index.
	if h.Shards != n {
		p.sendErr(conn, ErrCodeShards, "client has %d shards, primary has %d", h.Shards, n)
		return
	}
	// Epoch fencing: a client that has seen a newer epoch knows this
	// primary was deposed. Refuse to feed it anything — its real
	// primary is elsewhere.
	if h.Epoch > epoch {
		p.sendErr(conn, ErrCodeEpoch, "client is at epoch %d, this primary at %d: primary is stale", h.Epoch, epoch)
		return
	}

	typ, payload, err = ReadFrame(conn)
	if err != nil {
		return
	}
	switch typ {
	case TypeSubscribe:
		positions, err := decodeSubscribe(payload)
		if err != nil {
			p.sendErr(conn, ErrCodeBadFrame, "%v", err)
			return
		}
		if len(positions) != n {
			p.sendErr(conn, ErrCodeShards, "subscribe names %d shards, primary has %d", len(positions), n)
			return
		}
		conn.SetDeadline(time.Time{})
		p.stream(conn, positions)
	case TypeSnapRequest, TypeSnapForce:
		positions, err := decodeSubscribe(payload)
		if err != nil {
			p.sendErr(conn, ErrCodeBadFrame, "%v", err)
			return
		}
		if len(positions) != n {
			p.sendErr(conn, ErrCodeShards, "snap-request names %d shards, primary has %d", len(positions), n)
			return
		}
		p.snapshot(conn, positions, typ == TypeSnapForce)
	default:
		p.sendErr(conn, ErrCodeBadFrame, "expected SUBSCRIBE, SNAPREQUEST or SNAPFORCE, got frame type %d", typ)
	}
}

// snapshot serves a re-seed: for every shard whose requested position is
// below the horizon, capture a consistent snapshot and stream it in
// bounded chunks. Shards already above the horizon are skipped — that is
// what makes an interrupted re-seed resumable at shard granularity. A
// forced re-seed (SNAPFORCE) skips nothing: the client declared its own
// history worthless — it diverged — so every shard ships, even those
// whose positions look resumable.
func (p *Primary) snapshot(conn net.Conn, positions []int64, force bool) {
	p.logf("repl: %s requested snapshots from %v (force=%v)", conn.RemoteAddr(), positions, force)
	streamed := 0
	for i, pos := range positions {
		if _, horizon := p.journal(p.feeds[i]).ReplState(); !force && pos >= horizon {
			continue // resumable from the WAL; no snapshot needed
		}
		snap, err := p.sc.CaptureShardSnapshot(i)
		if err != nil {
			p.sendErr(conn, ErrCodeInternal, "capturing shard %d snapshot: %v", i, err)
			return
		}
		begin := SnapBegin{Shard: i, Seq: snap.Seq, Len: int64(len(snap.Snap))}
		conn.SetDeadline(time.Now().Add(p.cfg.WriteTimeout))
		if err := WriteFrame(conn, TypeSnapBegin, begin.encode()); err != nil {
			return
		}
		for off := 0; off < len(snap.Snap); off += p.cfg.SnapChunkBytes {
			end := min(off+p.cfg.SnapChunkBytes, len(snap.Snap))
			conn.SetDeadline(time.Now().Add(p.cfg.WriteTimeout))
			c := SnapChunk{Shard: i, Data: snap.Snap[off:end]}
			if err := WriteFrame(conn, TypeSnapChunk, c.encode()); err != nil {
				return
			}
		}
		conn.SetDeadline(time.Now().Add(p.cfg.WriteTimeout))
		if err := WriteFrame(conn, TypeSnapEnd, (SnapEnd{Shard: i}).encode()); err != nil {
			return
		}
		streamed++
	}
	conn.SetDeadline(time.Now().Add(p.cfg.WriteTimeout))
	_ = WriteFrame(conn, TypeSnapDone, nil)
	p.logf("repl: %s re-seeded %d shard(s)", conn.RemoteAddr(), streamed)
}

// checkPositions verifies every requested resume point is above the
// shard's horizon and at or below its current sequence.
func (p *Primary) checkPositions(positions []int64) (code uint64, err error) {
	for i, pos := range positions {
		seq, horizon := p.journal(p.feeds[i]).ReplState()
		if pos < horizon {
			return ErrCodeSnapshot, fmt.Errorf(
				"shard %d position %d is below the horizon %d: history was compacted away, re-seed from a snapshot",
				i, pos, horizon)
		}
		if pos > seq {
			return ErrCodeDiverged, fmt.Errorf(
				"shard %d position %d is ahead of the primary's %d: diverged stores", i, pos, seq)
		}
	}
	return 0, nil
}

// maxBatchFrameBytes bounds how much WAL data one RECORDBATCH frame
// carries; a run bigger than this is split so no frame approaches
// MaxFrame even with large fragments.
const maxBatchFrameBytes = 4 << 20

// stream is the per-subscriber sender loop: for each shard it ships the
// records between the subscriber's position and the shard's current
// sequence as RECORDBATCH frames, each applied follower-side with one
// fsync. A name record follows the segment record it refers to in the
// one log, so in-order shipping never delivers a dangling name.
func (p *Primary) stream(conn net.Conn, positions []int64) {
	if code, err := p.checkPositions(positions); err != nil {
		p.sendErr(conn, code, "%v", err)
		return
	}
	p.logf("repl: %s subscribed from %v", conn.RemoteAddr(), positions)

	sub := &subscriber{pos: append([]int64(nil), positions...)}
	p.mu.Lock()
	p.subs[sub] = struct{}{}
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		delete(p.subs, sub)
		p.mu.Unlock()
	}()

	// Drain (and ignore) anything the follower sends; its only purpose
	// is to detect a dead peer and unblock the sender via conn.Close.
	readerGone := make(chan struct{})
	go func() {
		defer close(readerGone)
		for {
			if _, _, err := ReadFrame(conn); err != nil {
				conn.Close()
				return
			}
		}
	}()

	cursors := make([]lazyxml.JournalCursor, len(positions))
	lastBeat := time.Time{}
	beat := time.NewTicker(p.cfg.HeartbeatEvery)
	defer beat.Stop()

	// send ships recs as RECORDBATCH frames, split at maxBatchFrameBytes.
	send := func(shard int, recs []lazyxml.ReplRecord) error {
		for start := 0; start < len(recs); {
			end, total := start, 0
			for end < len(recs) && (end == start || total+len(recs[end].Data) <= maxBatchFrameBytes) {
				total += len(recs[end].Data)
				end++
			}
			datas := make([][]byte, 0, end-start)
			for _, r := range recs[start:end] {
				datas = append(datas, r.Data)
			}
			conn.SetWriteDeadline(time.Now().Add(p.cfg.WriteTimeout))
			b := RecordBatch{Shard: shard, FirstSeq: recs[start].Seq, Datas: datas}
			if err := WriteFrame(conn, TypeRecordBatch, b.encode()); err != nil {
				return err
			}
			positions[shard] = recs[end-1].Seq
			sub.set(shard, positions[shard])
			start = end
		}
		return nil
	}

	for {
		// Grab the notify channel before reading targets: see notifyCh.
		wakeup := p.notifyCh()
		sent := false
		for i, fd := range p.feeds {
			target, _ := p.journal(fd).ReplState()
			for positions[i] < target {
				recs, err := p.fetch(fd, positions[i], target, &cursors[i])
				if err != nil {
					p.streamErr(conn, err)
					return
				}
				if len(recs) == 0 {
					break
				}
				if err := send(i, recs); err != nil {
					return
				}
				sent = true
			}
		}
		if sent {
			continue
		}
		if time.Since(lastBeat) >= p.cfg.HeartbeatEvery {
			if err := p.heartbeat(conn); err != nil {
				return
			}
			lastBeat = time.Now()
		}
		select {
		case <-wakeup:
		case <-beat.C:
		case <-readerGone:
			p.logf("repl: %s disconnected", conn.RemoteAddr())
			return
		}
	}
}

func (p *Primary) streamErr(conn net.Conn, err error) {
	if errors.Is(err, lazyxml.ErrCompacted) {
		p.sendErr(conn, ErrCodeSnapshot, "%v", err)
		return
	}
	p.sendErr(conn, ErrCodeInternal, "%v", err)
}

// fetch returns records in (from, target] for one shard: from the
// in-memory tail when the window covers the position, otherwise from the
// on-disk WAL.
func (p *Primary) fetch(fd *feed, from, target int64, cur *lazyxml.JournalCursor) ([]lazyxml.ReplRecord, error) {
	const batch = 256
	fd.mu.Lock()
	recs, ok := fd.tail.from(from, target, batch)
	fd.mu.Unlock()
	if ok {
		return recs, nil
	}
	// Behind the tail window: read from the WAL file. The cursor caches
	// a byte offset for its own Seq; if it doesn't match, reset it so
	// positioning rescans.
	if cur.Seq != from {
		*cur = lazyxml.JournalCursor{Seq: from}
	}
	return p.journal(fd).ReadRecords(cur, batch)
}

// SubscriberLag returns the worst live subscriber's record deficit:
// the largest, over connected replication streams, of the total
// (current sequence − shipped position) across every shard. 0 means
// every subscriber is caught up — or none is connected, in which case
// nothing can be stranded by moving the horizon.
func (p *Primary) SubscriberLag() int64 {
	targets := p.sequences()
	p.mu.Lock()
	subs := make([]*subscriber, 0, len(p.subs))
	for s := range p.subs {
		subs = append(subs, s)
	}
	p.mu.Unlock()
	var worst int64
	for _, s := range subs {
		var lag int64
		s.mu.Lock()
		for i, pos := range s.pos {
			if i < len(targets) && targets[i] > pos {
				lag += targets[i] - pos
			}
		}
		s.mu.Unlock()
		if lag > worst {
			worst = lag
		}
	}
	return worst
}

// sequences reads every shard's current sequence.
func (p *Primary) sequences() []int64 {
	out := make([]int64, len(p.feeds))
	for i, fd := range p.feeds {
		out[i], _ = p.journal(fd).ReplState()
	}
	return out
}

func (p *Primary) heartbeat(conn net.Conn) error {
	hb := Heartbeat{UnixMillis: time.Now().UnixMilli(), Positions: p.sequences()}
	conn.SetWriteDeadline(time.Now().Add(p.cfg.WriteTimeout))
	return WriteFrame(conn, TypeHeartbeat, hb.encode())
}
