package repl

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	lazyxml "repro"
)

// Fatal follower errors: reconnecting will not help, the operator must
// intervene (fix the topology, or re-seed the replica from a snapshot).
var (
	// ErrIncompatible reports a protocol-version or shard-count mismatch
	// with the primary.
	ErrIncompatible = errors.New("repl: incompatible primary (protocol version or shard count)")
	// ErrSnapshotRequired reports that the follower's position fell
	// behind the primary's compaction horizon: the records it needs were
	// folded into a snapshot and no longer exist as log records.
	ErrSnapshotRequired = errors.New("repl: behind the primary's horizon; re-seed this replica from a primary snapshot")
	// ErrDiverged reports that a replicated record landed at a different
	// sequence locally than it had on the primary: the stores do not
	// share history and the replica must be re-seeded.
	ErrDiverged = errors.New("repl: replica history diverged from the primary; re-seed this replica")
	// ErrStalePrimary reports that the primary's replication epoch is
	// behind this follower's: the primary was deposed by a promotion and
	// its records must not be applied. Point the follower at the new
	// primary.
	ErrStalePrimary = errors.New("repl: primary's epoch is behind this follower's; it was deposed by a promotion")
)

// Follower states, surfaced in Status.State.
const (
	StateConnecting = "connecting" // dialing / handshaking
	StateStreaming  = "streaming"  // subscribed, applying records
	StateBackoff    = "backoff"    // waiting to reconnect
	StateReseeding  = "reseeding"  // installing a snapshot re-seed
	StateIdle       = "idle"       // no upstream configured; waiting for Retarget
	StateStopped    = "stopped"    // Run returned
)

// FollowerConfig tunes the follower; zero values pick defaults.
type FollowerConfig struct {
	// DialTimeout bounds each connection attempt (default 5s).
	DialTimeout time.Duration
	// BackoffMin/BackoffMax bound the jittered exponential reconnect
	// backoff (defaults 100ms and 5s). Backoff resets once a stream
	// delivers a frame.
	BackoffMin time.Duration
	BackoffMax time.Duration
	// HeartbeatTimeout is how long the stream may stay silent — no
	// record, no heartbeat — before the follower declares the connection
	// dead and reconnects (default 10s).
	HeartbeatTimeout time.Duration
	// StallAfter is how stale the last heartbeat may grow before Status
	// reports Stalled — the latched signal a sentinel or load balancer
	// reads instead of comparing raw heartbeat ages itself (default 3×
	// HeartbeatTimeout). A follower that has never heard a heartbeat
	// counts as stalled once it has been running that long.
	StallAfter time.Duration
	// DisableReseed turns off automatic snapshot re-seeding: a
	// below-horizon subscribe then surfaces ErrSnapshotRequired as a
	// fatal error instead, leaving the decision to the operator.
	DisableReseed bool
	// ReseedOnDiverge heals a diverged replica automatically: instead of
	// surfacing ErrDiverged as fatal, the follower requests a forced
	// full snapshot (SNAPFORCE) and discards its own history. This
	// is what lets a deposed primary rejoin the cluster after a failover
	// even when it acknowledged records the new primary never saw. Off
	// by default: for a hand-configured replica, divergence is operator
	// error and silently discarding records would hide it.
	ReseedOnDiverge bool
	// ForceInitialReseed makes the loop's first act a forced full
	// snapshot (SNAPFORCE) instead of a subscribe. Position-based
	// divergence detection only fires when this node is strictly AHEAD
	// of the upstream; a diverged store whose positions merely equal
	// the new primary's tip would resubscribe cleanly and split-brain
	// silently. A loop whose history is suspect — a demoted primary, a
	// restart after a fatal replication error — must discard it first.
	ForceInitialReseed bool
	// OnReseed, when set, is called after each shard's snapshot is
	// installed — the hook a co-located primary uses to rewire its
	// replication taps onto the replaced shard.
	OnReseed func(shard int) error
	// OnEpochAdvance, when set, is called after the handshake adopts a
	// newer epoch from the upstream — the hook a relay uses to kick its
	// own subscribers so fencing propagates down the chain.
	OnEpochAdvance func(epoch int64)
	// Logf receives connection-level events; nil discards them.
	Logf func(format string, args ...any)
}

func (c *FollowerConfig) fill() {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.BackoffMin <= 0 {
		c.BackoffMin = 100 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 5 * time.Second
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 10 * time.Second
	}
	if c.StallAfter <= 0 {
		c.StallAfter = 3 * c.HeartbeatTimeout
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// ShardLag is one shard's replication position on both ends of the wire.
type ShardLag struct {
	Shard      int   `json:"shard"`
	AppliedSeq int64 `json:"appliedSeq"`
	PrimarySeq int64 `json:"primarySeq"`
	// Lag is the record count this shard still has to apply.
	Lag int64 `json:"lag"`
}

// Status is a point-in-time snapshot of the follower, shaped for direct
// embedding in the server's /stats response.
type Status struct {
	Primary string `json:"primary"`
	// State is the follower's lifecycle phase: connecting, streaming,
	// backoff, reseeding or stopped.
	State     string `json:"state"`
	Connected bool   `json:"connected"`
	// LastHeartbeatUnixMillis is the primary's clock in the most recent
	// heartbeat; 0 before the first one.
	LastHeartbeatUnixMillis int64 `json:"lastHeartbeatUnixMillis"`
	// SecondsSinceHeartbeat is measured on the follower's clock since
	// the last heartbeat arrived; -1 before the first one.
	SecondsSinceHeartbeat float64 `json:"secondsSinceHeartbeat"`
	// Stalled latches once the heartbeat age exceeds StallAfter while
	// the follower is supposed to be streaming — the upstream is dead or
	// unreachable and the replica is serving increasingly stale reads.
	Stalled bool `json:"stalled"`
	// RelayDepth is this node's distance from the root primary: 1 when
	// fed by it directly, 2 through one relay, and so on (from the
	// upstream's HELLO; 1 before the first handshake).
	RelayDepth int `json:"relayDepth"`
	// Lag is the total records still to apply across all shards.
	Lag       int64      `json:"lag"`
	Shards    []ShardLag `json:"shards"`
	LastError string     `json:"lastError,omitempty"`
}

// Follower dials a primary, subscribes from its own durable positions
// and applies the record stream through its own journals, so a restart
// resumes exactly where the local WALs end. The upstream address can be
// changed while Run is live (Retarget), which is how a sentinel
// re-points survivors at a freshly promoted primary.
type Follower struct {
	sc     *lazyxml.ShardedCollection
	cfg    FollowerConfig
	kick   chan struct{} // wakes idle/backoff waits after a Retarget
	seeded bool          // ForceInitialReseed satisfied (Run goroutine only)

	mu         sync.Mutex
	addr       string
	conn       net.Conn // the live session's connection, for Retarget teardown
	retargeted bool     // a Retarget tore down the current session on purpose
	connected  bool
	state      string
	depth      int       // upstream HELLO depth + 1
	started    time.Time // when Run began, for the never-heartbeated stall clock
	lastHB     int64     // primary clock, unix millis
	lastHBSeen time.Time // follower clock
	primary    []int64
	lastErr    string
}

// NewFollower wires a follower over sc, which must be durable: applied
// records land in the local WALs, and the local sequences are the resume
// positions. An empty addr starts the follower idle; Retarget points it
// somewhere.
func NewFollower(sc *lazyxml.ShardedCollection, addr string, cfg FollowerConfig) (*Follower, error) {
	if !sc.IsDurable() {
		return nil, errors.New("repl: following requires a journaled store (-journal)")
	}
	cfg.fill()
	return &Follower{
		sc: sc, addr: addr, cfg: cfg,
		kick:    make(chan struct{}, 1),
		state:   StateConnecting,
		depth:   1,
		primary: make([]int64, sc.ShardCount()),
	}, nil
}

// Retarget re-points the follower at a new upstream while Run is live:
// it tears down the current stream (the session's connection is closed,
// which unblocks any read), resets the reconnect backoff, and the run
// loop re-handshakes against the new address — adopting its epoch — and
// resumes from the follower's durable positions, or re-seeds if those
// fall below the new upstream's horizon. Retargeting at the same
// address still forces a reconnect, which is deliberate: re-handshaking
// is how a new epoch propagates after the upstream was promoted in
// place.
func (f *Follower) Retarget(addr string) {
	f.mu.Lock()
	f.addr = addr
	f.retargeted = true
	f.lastErr = ""
	conn := f.conn
	f.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	select {
	case f.kick <- struct{}{}:
	default:
	}
}

// upstream reads the current upstream address.
func (f *Follower) upstream() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.addr
}

// takeRetarget consumes the retarget flag: true when the session that
// just ended was torn down by Retarget rather than by a real failure.
func (f *Follower) takeRetarget() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	v := f.retargeted
	f.retargeted = false
	return v
}

// setConn registers (or clears) the live connection so Retarget can cut
// it. Registering fails when a Retarget already landed — the caller's
// address is stale and the connection must not be used.
func (f *Follower) setConn(conn net.Conn) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if conn != nil && f.retargeted {
		return false
	}
	f.conn = conn
	return true
}

// Run streams from the primary until ctx is cancelled, reconnecting with
// jittered exponential backoff. A below-horizon subscribe triggers an
// automatic snapshot re-seed (unless DisableReseed). It returns nil on
// cancellation and a fatal error (ErrIncompatible, ErrStalePrimary,
// ErrDiverged — or ErrSnapshotRequired with re-seed disabled) when
// reconnecting cannot help.
func (f *Follower) Run(ctx context.Context) error {
	defer f.setState(StateStopped)
	f.mu.Lock()
	f.started = time.Now()
	f.mu.Unlock()
	backoff := f.cfg.BackoffMin
	for {
		addr := f.upstream()
		if addr == "" {
			// No upstream configured: park until a Retarget points us
			// somewhere. This is a deliberate state (a demoted node
			// waiting for the sentinel), not an error.
			f.setState(StateIdle)
			select {
			case <-ctx.Done():
				return nil
			case <-f.kick:
				backoff = f.cfg.BackoffMin
				continue
			}
		}
		f.setState(StateConnecting)
		var streamed bool
		var err error
		if f.cfg.ForceInitialReseed && !f.seeded {
			f.setState(StateReseeding)
			f.cfg.Logf("repl: follower history is suspect; force re-seeding from %s before first subscribe", addr)
			if rerr := f.reseed(ctx, addr, true); rerr == nil {
				f.seeded = true
				err = errReseeded
			} else {
				err = fmt.Errorf("forced initial re-seed from %s: %w", addr, rerr)
			}
		} else {
			streamed, err = f.session(ctx, addr)
		}
		if ctx.Err() != nil {
			return nil
		}
		if f.takeRetarget() {
			// The session was torn down on purpose: whatever error it
			// surfaced — including a fatal one from the old, possibly
			// deposed upstream — describes an address we no longer
			// follow. Reconnect to the new one immediately.
			f.cfg.Logf("repl: follower re-targeted from %s to %s", addr, f.upstream())
			backoff = f.cfg.BackoffMin
			continue
		}
		if errors.Is(err, ErrSnapshotRequired) && !f.cfg.DisableReseed {
			f.setState(StateReseeding)
			f.cfg.Logf("repl: follower below the horizon; re-seeding from %s", addr)
			err = f.runReseed(ctx, addr, false)
		} else if errors.Is(err, ErrDiverged) && f.cfg.ReseedOnDiverge && !f.cfg.DisableReseed {
			f.setState(StateReseeding)
			f.cfg.Logf("repl: follower diverged from %s; discarding local history and force re-seeding", addr)
			err = f.runReseed(ctx, addr, true)
		} else if errors.Is(err, ErrIncompatible) || errors.Is(err, ErrSnapshotRequired) ||
			errors.Is(err, ErrDiverged) || errors.Is(err, ErrStalePrimary) {
			f.setErr(err)
			return err
		}
		if ctx.Err() != nil {
			return nil
		}
		if err == errReseeded {
			// Fresh base installed: resubscribe immediately. The re-seed
			// transferred real data, so this is progress, not a dial
			// loop.
			backoff = f.cfg.BackoffMin
			continue
		}
		if errors.Is(err, ErrIncompatible) || errors.Is(err, ErrStalePrimary) ||
			(errors.Is(err, ErrDiverged) && !(f.cfg.ReseedOnDiverge && !f.cfg.DisableReseed)) {
			f.setErr(err)
			return err
		}
		f.setErr(err)
		f.cfg.Logf("repl: follower: %v (reconnecting in ~%v)", err, backoff)
		// The backoff only resets after a fully established session
		// delivered a valid stream frame. A dial that connects but then
		// fails the handshake (wrong version, bad peer) must keep
		// backing off, or a broken peer turns the loop into a hot dial
		// storm.
		if streamed {
			backoff = f.cfg.BackoffMin
		}
		f.setState(StateBackoff)
		// Jitter: sleep in [backoff/2, backoff). A Retarget cuts the wait
		// short — the new upstream deserves an immediate attempt.
		sleep := backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1))
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(sleep):
		case <-f.kick:
			backoff = f.cfg.BackoffMin
			continue
		}
		if backoff *= 2; backoff > f.cfg.BackoffMax {
			backoff = f.cfg.BackoffMax
		}
	}
}

// errReseeded is an internal sentinel: a re-seed completed and the run
// loop should resubscribe immediately.
var errReseeded = errors.New("repl: re-seed complete")

// runReseed wraps reseed with the run loop's error discipline: nil
// becomes errReseeded (progress, resubscribe now), a retarget-induced
// teardown is surfaced as a transient error (the loop's takeRetarget
// already ran, so the next iteration handles the address change), and
// everything else passes through with context.
func (f *Follower) runReseed(ctx context.Context, addr string, force bool) error {
	rerr := f.reseed(ctx, addr, force)
	if ctx.Err() != nil {
		return nil
	}
	if f.takeRetarget() {
		f.cfg.Logf("repl: follower re-targeted from %s to %s mid-re-seed", addr, f.upstream())
		return errReseeded
	}
	if rerr == nil {
		return errReseeded
	}
	// Transient re-seed failure (dropped connection, primary restart):
	// the caller falls through to the normal backoff path and tries
	// again from whatever shards were already installed. Fatal sentinels
	// pass through wrapped so errors.Is still sees them.
	return fmt.Errorf("re-seed from %s: %w", addr, rerr)
}

// positions reads the follower's durable per-shard resume points.
func (f *Follower) positions() []int64 {
	out := make([]int64, f.sc.ShardCount())
	for i := range out {
		out[i], _ = f.sc.ShardJournal(i).Journal().ReplState()
	}
	return out
}

// handshake dials the primary and exchanges HELLOs: the version check
// (only a primary speaking exactly Version is followed) and epoch fencing
// (a primary whose epoch is behind this follower's was deposed by a
// promotion; its records must never be applied). The returned connection
// is ready for SUBSCRIBE or SNAPREQUEST and is closed on ctx cancel or
// Retarget.
func (f *Follower) handshake(ctx context.Context, addr string) (net.Conn, func(), error) {
	d := net.Dialer{Timeout: f.cfg.DialTimeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	if !f.setConn(conn) {
		// A Retarget landed while we were dialing: this connection goes
		// to an address we no longer follow.
		conn.Close()
		return nil, nil, fmt.Errorf("re-targeted away from %s mid-dial", addr)
	}
	// Unblock blocking reads when ctx is cancelled.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	cleanup := func() { stop(); f.setConn(nil); conn.Close() }

	conn.SetDeadline(time.Now().Add(f.cfg.DialTimeout))
	typ, payload, err := ReadFrame(conn)
	if err != nil {
		cleanup()
		return nil, nil, fmt.Errorf("reading primary hello: %w", err)
	}
	if typ == TypeError {
		cleanup()
		return nil, nil, f.errorFrame(payload)
	}
	if typ != TypeHello {
		cleanup()
		return nil, nil, fmt.Errorf("expected HELLO, got frame type %d", typ)
	}
	h, err := decodeHello(payload)
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	if h.Version != Version {
		cleanup()
		return nil, nil, fmt.Errorf("%w: primary speaks protocol %d, this build speaks %d",
			ErrIncompatible, h.Version, Version)
	}
	if h.Shards != f.sc.ShardCount() {
		cleanup()
		return nil, nil, fmt.Errorf("%w: primary has %d shards, this store has %d", ErrIncompatible, h.Shards, f.sc.ShardCount())
	}
	local := f.sc.Epoch()
	switch {
	case h.Epoch < local:
		cleanup()
		return nil, nil, fmt.Errorf("%w: primary at epoch %d, follower at %d", ErrStalePrimary, h.Epoch, local)
	case h.Epoch > local:
		// The primary moved to a newer epoch (it was itself promoted,
		// or an operator advanced it); adopt it so a later connection
		// to a deposed primary is refused.
		if err := f.sc.AdvanceEpoch(h.Epoch); err != nil {
			cleanup()
			return nil, nil, fmt.Errorf("adopting primary epoch %d: %w", h.Epoch, err)
		}
		if f.cfg.OnEpochAdvance != nil {
			f.cfg.OnEpochAdvance(h.Epoch)
		}
	}
	// This node sits one hop below its upstream.
	depth := h.Depth + 1
	f.mu.Lock()
	f.depth = depth
	f.mu.Unlock()
	reply := Hello{Version: Version, Shards: f.sc.ShardCount(), Epoch: f.sc.Epoch(), Depth: depth}
	if err := WriteFrame(conn, TypeHello, reply.encode()); err != nil {
		cleanup()
		return nil, nil, err
	}
	return conn, cleanup, nil
}

// session runs one connection: dial, handshake, subscribe, apply frames
// until something breaks. streamed reports whether a valid stream frame
// (RECORDBATCH or HEARTBEAT) arrived — only that resets the reconnect
// backoff; an ERROR or garbage frame after subscribe does not count.
func (f *Follower) session(ctx context.Context, addr string) (streamed bool, err error) {
	conn, cleanup, err := f.handshake(ctx, addr)
	if err != nil {
		return false, err
	}
	defer cleanup()
	defer f.setConnected(false)

	pos := f.positions()
	if err := WriteFrame(conn, TypeSubscribe, encodePositions(nil, pos)); err != nil {
		return false, err
	}
	f.cfg.Logf("repl: follower subscribed to %s from %v", addr, pos)
	f.setConnected(true)
	f.setState(StateStreaming)

	for {
		conn.SetReadDeadline(time.Now().Add(f.cfg.HeartbeatTimeout))
		typ, payload, err := ReadFrame(conn)
		if err != nil {
			return streamed, fmt.Errorf("stream from %s broke: %w", addr, err)
		}
		switch typ {
		case TypeRecordBatch:
			b, err := decodeRecordBatch(payload)
			if err != nil {
				return streamed, err
			}
			streamed = true
			if err := f.applyBatch(b); err != nil {
				return streamed, err
			}
		case TypeHeartbeat:
			hb, err := decodeHeartbeat(payload)
			if err != nil {
				return streamed, err
			}
			streamed = true
			if len(hb.Positions) != f.sc.ShardCount() {
				return streamed, fmt.Errorf("heartbeat names %d shards, store has %d", len(hb.Positions), f.sc.ShardCount())
			}
			f.mu.Lock()
			f.lastHB = hb.UnixMillis
			f.lastHBSeen = time.Now()
			copy(f.primary, hb.Positions)
			f.lastErr = ""
			f.mu.Unlock()
		case TypeError:
			return streamed, f.errorFrame(payload)
		default:
			return streamed, fmt.Errorf("unexpected frame type %d on stream", typ)
		}
	}
}

// applyBatch lands a contiguous run of replicated records in the local
// shard through the local journal — the whole run with one WAL write, one
// fsync and one published generation, so catch-up does not re-pay the
// per-record durability cost — and cross-checks the sequence: the local
// sequence after the run must land exactly where the primary said it
// would. Names are shard store state, so a replicated document is
// reachable through the follower's read surface once its run publishes.
func (f *Follower) applyBatch(b RecordBatch) error {
	if b.Shard < 0 || b.Shard >= f.sc.ShardCount() {
		return fmt.Errorf("record batch for shard %d, store has %d", b.Shard, f.sc.ShardCount())
	}
	lastSeq := b.FirstSeq + int64(len(b.Datas)) - 1
	seq, err := f.sc.ApplyRecords(b.Shard, b.Datas)
	if err != nil {
		return fmt.Errorf("applying shard %d records %d..%d: %w", b.Shard, b.FirstSeq, lastSeq, err)
	}
	if seq != lastSeq {
		return fmt.Errorf("%w: shard %d batch landed at sequence %d locally, %d on the primary",
			ErrDiverged, b.Shard, seq, lastSeq)
	}
	// Applied records advance the primary-position floor too: the
	// primary is at least as far as what it just sent.
	f.mu.Lock()
	if lastSeq > f.primary[b.Shard] {
		f.primary[b.Shard] = lastSeq
	}
	f.mu.Unlock()
	return nil
}

func (f *Follower) errorFrame(payload []byte) error {
	e, err := decodeError(payload)
	if err != nil {
		return err
	}
	switch e.Code {
	case ErrCodeVersion, ErrCodeShards:
		return fmt.Errorf("%w: primary says: %s", ErrIncompatible, e.Msg)
	case ErrCodeSnapshot:
		return fmt.Errorf("%w: primary says: %s", ErrSnapshotRequired, e.Msg)
	case ErrCodeEpoch:
		// The primary refused us because our epoch is newer than its
		// own — which means the primary is the stale one.
		return fmt.Errorf("%w: primary says: %s", ErrStalePrimary, e.Msg)
	case ErrCodeDiverged:
		// Our positions are ahead of this primary's log: we hold records
		// it never shipped — the deposed-primary-rejoining shape. Only a
		// forced re-seed (ReseedOnDiverge) can reconcile that.
		return fmt.Errorf("%w: primary says: %s", ErrDiverged, e.Msg)
	}
	return fmt.Errorf("primary error %d: %s", e.Code, e.Msg)
}

// reseed opens a fresh connection and transfers full snapshots for every
// shard that fell below the primary's compaction horizon, installing
// each one atomically as its SNAPEND arrives. Shards are independent: a
// connection cut mid-transfer keeps everything already installed, and
// the retry only re-requests what is still behind (the primary skips
// shards whose positions are above the horizon). With force set the
// request is a SNAPFORCE instead: every shard is transferred regardless
// of horizon, which is how a diverged replica discards its own history.
func (f *Follower) reseed(ctx context.Context, addr string, force bool) error {
	conn, cleanup, err := f.handshake(ctx, addr)
	if err != nil {
		return err
	}
	defer cleanup()

	reqTyp := TypeSnapRequest
	if force {
		reqTyp = TypeSnapForce
	}
	pos := f.positions()
	if err := WriteFrame(conn, reqTyp, encodePositions(nil, pos)); err != nil {
		return err
	}
	f.cfg.Logf("repl: follower requesting snapshots from %s at %v (force=%v)", addr, pos, force)

	// Per-shard assembly state for the one transfer in flight. The
	// primary streams one shard to completion before the next SNAPBEGIN.
	var (
		cur       *SnapBegin
		snap      []byte
		installed int
	)
	for {
		conn.SetReadDeadline(time.Now().Add(f.cfg.HeartbeatTimeout))
		typ, payload, err := ReadFrame(conn)
		if err != nil {
			return fmt.Errorf("snapshot stream from %s broke: %w", addr, err)
		}
		switch typ {
		case TypeSnapBegin:
			if cur != nil {
				return fmt.Errorf("SNAPBEGIN for shard %d while shard %d is still in flight", mustDecodeShard(payload), cur.Shard)
			}
			b, err := decodeSnapBegin(payload)
			if err != nil {
				return err
			}
			if b.Shard < 0 || b.Shard >= f.sc.ShardCount() {
				return fmt.Errorf("snapshot for shard %d, store has %d", b.Shard, f.sc.ShardCount())
			}
			cur = &b
		case TypeSnapChunk:
			c, err := decodeSnapChunk(payload)
			if err != nil {
				return err
			}
			if cur == nil || c.Shard != cur.Shard {
				return fmt.Errorf("SNAPCHUNK for shard %d outside its transfer", c.Shard)
			}
			snap = append(snap, c.Data...)
		case TypeSnapEnd:
			e, err := decodeSnapEnd(payload)
			if err != nil {
				return err
			}
			if cur == nil || e.Shard != cur.Shard {
				return fmt.Errorf("SNAPEND for shard %d outside its transfer", e.Shard)
			}
			if int64(len(snap)) != cur.Len {
				return fmt.Errorf("shard %d snapshot truncated: got %d of %d bytes", cur.Shard, len(snap), cur.Len)
			}
			ss := &lazyxml.ShardSnapshot{Seq: cur.Seq, Snap: snap}
			if err := f.sc.InstallReseed(cur.Shard, ss); err != nil {
				return fmt.Errorf("installing shard %d snapshot: %w", cur.Shard, err)
			}
			if f.cfg.OnReseed != nil {
				if err := f.cfg.OnReseed(cur.Shard); err != nil {
					return fmt.Errorf("re-seed hook for shard %d: %w", cur.Shard, err)
				}
			}
			f.cfg.Logf("repl: shard %d re-seeded at seq=%d (%d bytes)", cur.Shard, cur.Seq, len(snap))
			installed++
			cur, snap = nil, nil
		case TypeSnapDone:
			if cur != nil {
				return fmt.Errorf("SNAPDONE while shard %d is still in flight", cur.Shard)
			}
			f.cfg.Logf("repl: re-seed from %s complete (%d shards installed)", addr, installed)
			return nil
		case TypeError:
			return f.errorFrame(payload)
		default:
			return fmt.Errorf("unexpected frame type %d in snapshot stream", typ)
		}
	}
}

// mustDecodeShard best-effort extracts the shard id for an error message.
func mustDecodeShard(payload []byte) int {
	if b, err := decodeSnapBegin(payload); err == nil {
		return b.Shard
	}
	return -1
}

func (f *Follower) setConnected(v bool) {
	f.mu.Lock()
	f.connected = v
	f.mu.Unlock()
}

func (f *Follower) setState(s string) {
	f.mu.Lock()
	f.state = s
	f.mu.Unlock()
}

func (f *Follower) setErr(err error) {
	f.mu.Lock()
	if err != nil {
		f.lastErr = err.Error()
	}
	f.mu.Unlock()
}

// Status reports the follower's replication state: applied positions
// are read live from the local journals, primary positions from the
// most recent heartbeat (floored by what was applied).
func (f *Follower) Status() Status {
	applied := f.positions()
	f.mu.Lock()
	defer f.mu.Unlock()
	st := Status{
		Primary:                 f.addr,
		State:                   f.state,
		Connected:               f.connected,
		LastHeartbeatUnixMillis: f.lastHB,
		SecondsSinceHeartbeat:   -1,
		RelayDepth:              f.depth,
		LastError:               f.lastErr,
	}
	if !f.lastHBSeen.IsZero() {
		st.SecondsSinceHeartbeat = time.Since(f.lastHBSeen).Seconds()
	}
	// Stalled is the latched form of the heartbeat age: while the
	// follower should be hearing from an upstream (not idle, not
	// stopped), silence past StallAfter means the upstream is dead or
	// unreachable. Before the first heartbeat, the clock runs from when
	// Run started, so a follower that never connects still stalls.
	if f.state != StateStopped && f.state != StateIdle {
		switch {
		case !f.lastHBSeen.IsZero():
			st.Stalled = time.Since(f.lastHBSeen) > f.cfg.StallAfter
		case !f.started.IsZero():
			st.Stalled = time.Since(f.started) > f.cfg.StallAfter
		}
	}
	for i, a := range applied {
		prim := max(f.primary[i], a)
		st.Shards = append(st.Shards, ShardLag{Shard: i, AppliedSeq: a, PrimarySeq: prim, Lag: prim - a})
		st.Lag += prim - a
	}
	return st
}
