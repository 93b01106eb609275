// Package repl replicates a lazy XML collection over a binary framed
// TCP protocol: WAL shipping. The primary streams its write-ahead
// journal records — byte-identical to what sits in each shard's
// journal.wal — to followers, which apply them through their own
// journals and serve reads. The same frames carry bulk document loads, so the
// high-throughput lane and the replication lane share one protocol.
//
// Wire format: every frame is a 4-byte big-endian length (of type byte
// plus payload) followed by the type byte and the payload. Payload
// integers use the same varint encoding as the WAL records themselves.
//
//	primary → follower: HELLO, then RECORDBATCH/HEARTBEAT/ERROR
//	client  → primary:  HELLO, then SUBSCRIBE (replication) or PUT… (bulk)
//
// The handshake is symmetric — each side sends a HELLO with its
// protocol version and shard count — so version or topology mismatches
// are caught before any record crosses the wire. A subscriber carries
// one resume position per shard: the sequence of the last journal record
// it durably applied.
package repl

import (
	"encoding/binary"
	"fmt"
	"io"

	lazyxml "repro"
)

// Version is the protocol version exchanged in HELLO frames. Both sides
// speak exactly this version: a peer announcing any other is refused
// with ErrCodeVersion before anything else in its HELLO is read.
const Version = 6

// helloMagic leads every HELLO payload so a stray client speaking some
// other protocol fails fast and explicitly.
const helloMagic = "LXR1"

// MaxFrame bounds a frame's encoded size. The largest legitimate frame
// is a RECORDBATCH carrying one WAL insert record, whose fragment the server
// already caps (32 MiB default upload cap); 64 MiB leaves headroom.
const MaxFrame = 64 << 20

// Frame types.
const (
	TypeHello     byte = 1
	TypeSubscribe byte = 2
	TypeHeartbeat byte = 4
	TypeError     byte = 5
	TypePut       byte = 6
	TypePutOK     byte = 7

	// Snapshot re-seed family. A client below the compaction
	// horizon opens a fresh connection and sends SNAPREQUEST with its
	// positions instead of SUBSCRIBE; the primary answers, per shard
	// still below the horizon, SNAPBEGIN + SNAPCHUNK… + SNAPEND, then
	// one SNAPDONE, and the client reconnects with SUBSCRIBE at the
	// snapshot positions. Shards already above the horizon are skipped,
	// so a re-seed interrupted mid-stream resumes at shard granularity.
	TypeSnapRequest byte = 8
	TypeSnapBegin   byte = 9
	TypeSnapChunk   byte = 10
	TypeSnapEnd     byte = 11
	TypeSnapDone    byte = 12

	// Streaming query lane. A client sends QUERY after the
	// handshake; the primary answers with ROW frames as matches are
	// produced and exactly one QUERYEND (row count, truncation flag, and
	// the error when the query died mid-stream). Queries on one
	// connection are sequential: the next QUERY follows the previous
	// QUERYEND, like the bulk lane's PUT/PUT_OK exchange.
	TypeQuery    byte = 13
	TypeRow      byte = 14
	TypeQueryEnd byte = 15

	// Forced re-seed. Same payload as SNAPREQUEST, but the primary
	// snapshots every shard regardless of whether the client's position
	// clears the compaction horizon. A replica whose WAL diverged from
	// the new primary's — a deposed primary rejoining after failover
	// with acknowledged-but-unshipped records — cannot resume and would
	// be skipped by the normal re-seed path (its positions sit at or
	// above the horizon), so it discards its state and reloads whole.
	TypeSnapForce byte = 16

	// Record batch: the one record-carrying frame. A contiguous run of
	// records from one shard's log (a lone record is a run of one); the
	// follower applies the run through its journal as one staged commit —
	// one WAL write, one fsync, one published generation — so catch-up
	// does not pay per-record fsyncs.
	TypeRecordBatch byte = 17
)

// ERROR frame codes.
const (
	ErrCodeVersion  uint64 = 1 // protocol version mismatch in HELLO
	ErrCodeShards   uint64 = 2 // shard count mismatch
	ErrCodeSnapshot uint64 = 3 // subscribed below the horizon: re-seed from a snapshot
	ErrCodeBadFrame uint64 = 4 // malformed or unexpected frame
	ErrCodeInternal uint64 = 5 // primary-side failure
	ErrCodeEpoch    uint64 = 6 // peer's replication epoch is ahead: this primary is stale
	ErrCodeBudget   uint64 = 7 // query exceeded its memory budget (QUERYEND code)
	ErrCodeDiverged uint64 = 8 // subscriber's positions are ahead of this primary: histories diverged
)

// WriteFrame writes one frame: length, type, payload.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload)+1 > MaxFrame {
		return fmt.Errorf("repl: frame of %d bytes exceeds limit", len(payload)+1)
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame. A length outside (0, MaxFrame] is a
// protocol violation, distinct from an io error on a torn connection.
func ReadFrame(r io.Reader) (typ byte, payload []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > MaxFrame {
		return 0, nil, fmt.Errorf("repl: bad frame length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, fmt.Errorf("repl: torn frame: %w", err)
	}
	return buf[0], buf[1:], nil
}

// Hello is the handshake payload both sides send first.
type Hello struct {
	Version uint64
	// Shards is the sender's shard count. A bulk-load client that has no
	// store of its own sends 0 ("not applicable").
	Shards int
	// Epoch is the sender's replication epoch. A follower refuses a primary whose epoch is behind its own —
	// that primary was deposed — and a primary refuses to feed a client
	// whose epoch is ahead of its own, for the same reason seen from
	// the other side.
	Epoch int64
	// Depth is the sender's relay depth: 0 for a root primary, 1
	// for a follower fed by it, 2 for a follower fed through a relay,
	// and so on. A follower derives its own depth as the upstream's
	// HELLO depth plus one, so the gauge is correct anywhere in a chain.
	Depth int
}

// Heartbeat carries the primary's clock and its current per-shard
// sequences, so an idle follower still measures lag.
type Heartbeat struct {
	UnixMillis int64
	Positions  []int64
}

// ErrorFrame is a structured error: a machine-readable code plus a
// human-readable message.
type ErrorFrame struct {
	Code uint64
	Msg  string
}

// Put is one bulk-loaded document.
type Put struct {
	Name string
	Text []byte
}

// PutOK acknowledges one Put, in order; Code 0 is success.
type PutOK struct {
	Code uint64
	Msg  string
}

// ---- payload encoding ----

func (h Hello) encode() []byte {
	buf := []byte(helloMagic)
	buf = binary.AppendUvarint(buf, h.Version)
	buf = binary.AppendUvarint(buf, uint64(h.Shards))
	buf = binary.AppendUvarint(buf, uint64(h.Epoch))
	return binary.AppendUvarint(buf, uint64(h.Depth))
}

func decodeHello(p []byte) (Hello, error) {
	var h Hello
	if len(p) < len(helloMagic) || string(p[:len(helloMagic)]) != helloMagic {
		return h, fmt.Errorf("repl: bad hello magic")
	}
	d := newDecoder(p[len(helloMagic):])
	h.Version = d.uvarint()
	if d.err == nil && h.Version != Version {
		// What follows is laid out by a version this build does not speak;
		// the caller refuses the peer by the number alone.
		return h, nil
	}
	h.Shards = int(d.uvarint())
	h.Epoch = int64(d.uvarint())
	h.Depth = int(d.uvarint())
	return h, d.finish("hello")
}

// encodePositions renders one sequence per shard: the payload of
// SUBSCRIBE, SNAPREQUEST and SNAPFORCE, and the tail of HEARTBEAT.
func encodePositions(buf []byte, positions []int64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(positions)))
	for _, p := range positions {
		buf = binary.AppendUvarint(buf, uint64(p))
	}
	return buf
}

func (d *decoder) positions() []int64 {
	n := d.uvarint()
	if n > 1<<16 {
		if d.err == nil {
			d.err = fmt.Errorf("absurd shard count %d", n)
		}
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(d.uvarint())
	}
	return out
}

func decodeSubscribe(p []byte) ([]int64, error) {
	d := newDecoder(p)
	out := d.positions()
	return out, d.finish("subscribe")
}

// RecordBatch is a contiguous run of WAL records from one shard's log:
// the run covers sequences FirstSeq … FirstSeq+len(Datas)-1, each
// Datas[i] the exact WAL encoding of its record.
type RecordBatch struct {
	Shard    int
	FirstSeq int64
	Datas    [][]byte
}

func (b RecordBatch) encode() []byte {
	buf := binary.AppendUvarint(nil, uint64(b.Shard))
	buf = binary.AppendUvarint(buf, uint64(b.FirstSeq))
	buf = binary.AppendUvarint(buf, uint64(len(b.Datas)))
	for _, data := range b.Datas {
		buf = binary.AppendUvarint(buf, uint64(len(data)))
		buf = append(buf, data...)
	}
	return buf
}

func decodeRecordBatch(p []byte) (RecordBatch, error) {
	var b RecordBatch
	d := newDecoder(p)
	b.Shard = int(d.uvarint())
	b.FirstSeq = int64(d.uvarint())
	n := d.uvarint()
	if d.err != nil {
		return b, fmt.Errorf("repl: corrupt record-batch frame: %w", d.err)
	}
	if n == 0 || n > 1<<20 {
		return b, fmt.Errorf("repl: absurd record count %d in record-batch frame", n)
	}
	b.Datas = make([][]byte, 0, n)
	for i := uint64(0); i < n; i++ {
		l := d.uvarint()
		if d.err != nil || l > uint64(len(d.p)) {
			return b, fmt.Errorf("repl: corrupt record-batch frame: truncated record %d", i)
		}
		b.Datas = append(b.Datas, d.p[:l])
		d.p = d.p[l:]
	}
	return b, d.finish("record-batch")
}

func (h Heartbeat) encode() []byte {
	return encodePositions(binary.AppendUvarint(nil, uint64(h.UnixMillis)), h.Positions)
}

func decodeHeartbeat(p []byte) (Heartbeat, error) {
	var h Heartbeat
	d := newDecoder(p)
	h.UnixMillis = int64(d.uvarint())
	h.Positions = d.positions()
	return h, d.finish("heartbeat")
}

func (e ErrorFrame) encode() []byte {
	buf := binary.AppendUvarint(nil, e.Code)
	return append(buf, e.Msg...)
}

func decodeError(p []byte) (ErrorFrame, error) {
	var e ErrorFrame
	d := newDecoder(p)
	e.Code = d.uvarint()
	if d.err != nil {
		return e, fmt.Errorf("repl: corrupt error frame: %w", d.err)
	}
	e.Msg = string(d.rest())
	return e, nil
}

func (p Put) encode() []byte {
	buf := binary.AppendUvarint(nil, uint64(len(p.Name)))
	buf = append(buf, p.Name...)
	return append(buf, p.Text...)
}

func decodePut(b []byte) (Put, error) {
	var p Put
	d := newDecoder(b)
	n := d.uvarint()
	if d.err != nil || n > 1<<16 || int(n) > len(d.rest()) {
		return p, fmt.Errorf("repl: corrupt put frame")
	}
	rest := d.rest()
	p.Name = string(rest[:n])
	p.Text = rest[n:]
	return p, nil
}

func (a PutOK) encode() []byte {
	buf := binary.AppendUvarint(nil, a.Code)
	return append(buf, a.Msg...)
}

func decodePutOK(b []byte) (PutOK, error) {
	var a PutOK
	d := newDecoder(b)
	a.Code = d.uvarint()
	if d.err != nil {
		return a, fmt.Errorf("repl: corrupt put-ok frame")
	}
	a.Msg = string(d.rest())
	return a, nil
}

// SnapBegin announces one shard's snapshot stream: the sequence the
// snapshot covers (the position the client resumes from) and its byte
// length, so the receiver can verify completeness.
type SnapBegin struct {
	Shard int
	Seq   int64
	Len   int64
}

// SnapChunk carries one slice of a shard's snapshot; chunks arrive in
// order and concatenate to the whole.
type SnapChunk struct {
	Shard int
	Data  []byte
}

// SnapEnd closes one shard's snapshot stream.
type SnapEnd struct {
	Shard int
}

func (s SnapBegin) encode() []byte {
	buf := binary.AppendUvarint(nil, uint64(s.Shard))
	buf = binary.AppendUvarint(buf, uint64(s.Seq))
	return binary.AppendUvarint(buf, uint64(s.Len))
}

func decodeSnapBegin(p []byte) (SnapBegin, error) {
	var s SnapBegin
	d := newDecoder(p)
	s.Shard = int(d.uvarint())
	s.Seq = int64(d.uvarint())
	s.Len = int64(d.uvarint())
	return s, d.finish("snap-begin")
}

func (c SnapChunk) encode() []byte {
	return append(binary.AppendUvarint(nil, uint64(c.Shard)), c.Data...)
}

func decodeSnapChunk(p []byte) (SnapChunk, error) {
	var c SnapChunk
	d := newDecoder(p)
	c.Shard = int(d.uvarint())
	if d.err != nil {
		return c, fmt.Errorf("repl: corrupt snap-chunk frame: %w", d.err)
	}
	c.Data = d.rest()
	return c, nil
}

func (s SnapEnd) encode() []byte {
	return binary.AppendUvarint(nil, uint64(s.Shard))
}

func decodeSnapEnd(p []byte) (SnapEnd, error) {
	var s SnapEnd
	d := newDecoder(p)
	s.Shard = int(d.uvarint())
	return s, d.finish("snap-end")
}

// Query is one streaming query request. Doc "" queries the whole
// collection; Limit 0 is unlimited; Budget 0 inherits the primary's
// -query-budget (when both are set the smaller wins — a client cannot
// raise the server's cap, only lower it).
type Query struct {
	Doc    string
	Path   string
	Limit  int64
	Budget int64
}

func (q Query) encode() []byte {
	buf := binary.AppendUvarint(nil, uint64(len(q.Doc)))
	buf = append(buf, q.Doc...)
	buf = binary.AppendUvarint(buf, uint64(len(q.Path)))
	buf = append(buf, q.Path...)
	buf = binary.AppendUvarint(buf, uint64(q.Limit))
	return binary.AppendUvarint(buf, uint64(q.Budget))
}

func decodeQuery(p []byte) (Query, error) {
	var q Query
	d := newDecoder(p)
	q.Doc = d.str()
	q.Path = d.str()
	q.Limit = int64(d.uvarint())
	q.Budget = int64(d.uvarint())
	if err := d.finish("query"); err != nil {
		return q, err
	}
	if q.Limit < 0 || q.Budget < 0 {
		return q, fmt.Errorf("repl: corrupt query frame: negative limit or budget")
	}
	return q, nil
}

// encodeRow flattens one match into 12 uvarints: the four global
// positions, then each element's lazy identity (sid, start, end, level).
func encodeRow(m lazyxml.Match) []byte {
	buf := binary.AppendUvarint(nil, uint64(m.AncStart))
	buf = binary.AppendUvarint(buf, uint64(m.AncEnd))
	buf = binary.AppendUvarint(buf, uint64(m.DescStart))
	buf = binary.AppendUvarint(buf, uint64(m.DescEnd))
	for _, e := range [2]lazyxml.ElemRef{m.Anc, m.Desc} {
		buf = binary.AppendUvarint(buf, uint64(e.SID))
		buf = binary.AppendUvarint(buf, uint64(e.Start))
		buf = binary.AppendUvarint(buf, uint64(e.End))
		buf = binary.AppendUvarint(buf, uint64(e.Level))
	}
	return buf
}

func decodeRow(p []byte) (lazyxml.Match, error) {
	var m lazyxml.Match
	d := newDecoder(p)
	m.AncStart = int(d.uvarint())
	m.AncEnd = int(d.uvarint())
	m.DescStart = int(d.uvarint())
	m.DescEnd = int(d.uvarint())
	for _, e := range [2]*lazyxml.ElemRef{&m.Anc, &m.Desc} {
		e.SID = lazyxml.SID(d.uvarint())
		e.Start = int(d.uvarint())
		e.End = int(d.uvarint())
		e.Level = int(d.uvarint())
	}
	return m, d.finish("row")
}

// QueryEnd closes one query exchange. Code 0 is success; ErrCodeBudget
// marks a budget kill, anything else a mid-stream failure. Count is the
// number of ROW frames that preceded it either way.
type QueryEnd struct {
	Count     int64
	Truncated bool
	Code      uint64
	Msg       string
}

func (e QueryEnd) encode() []byte {
	buf := binary.AppendUvarint(nil, uint64(e.Count))
	t := byte(0)
	if e.Truncated {
		t = 1
	}
	buf = append(buf, t)
	buf = binary.AppendUvarint(buf, e.Code)
	return append(buf, e.Msg...)
}

func decodeQueryEnd(p []byte) (QueryEnd, error) {
	var e QueryEnd
	d := newDecoder(p)
	e.Count = int64(d.uvarint())
	e.Truncated = d.byte() != 0
	e.Code = d.uvarint()
	if d.err != nil {
		return e, fmt.Errorf("repl: corrupt query-end frame: %w", d.err)
	}
	e.Msg = string(d.rest())
	if e.Count < 0 {
		return e, fmt.Errorf("repl: corrupt query-end frame: negative count")
	}
	return e, nil
}

// decoder is a tiny cursor over a payload with sticky errors, so the
// decode functions read like the encode ones.
type decoder struct {
	p   []byte
	err error
}

func newDecoder(p []byte) *decoder { return &decoder{p: p} }

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.p)
	if n <= 0 {
		d.err = fmt.Errorf("truncated varint")
		return 0
	}
	d.p = d.p[n:]
	return v
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.p) == 0 {
		d.err = fmt.Errorf("truncated byte")
		return 0
	}
	b := d.p[0]
	d.p = d.p[1:]
	return b
}

// str reads a uvarint length followed by that many bytes.
func (d *decoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.p)) {
		d.err = fmt.Errorf("truncated string of %d bytes", n)
		return ""
	}
	s := string(d.p[:n])
	d.p = d.p[n:]
	return s
}

func (d *decoder) rest() []byte {
	if d.err != nil {
		return nil
	}
	return d.p
}

func (d *decoder) finish(what string) error {
	if d.err != nil {
		return fmt.Errorf("repl: corrupt %s frame: %w", what, d.err)
	}
	if len(d.p) != 0 {
		return fmt.Errorf("repl: %d trailing bytes in %s frame", len(d.p), what)
	}
	return nil
}
