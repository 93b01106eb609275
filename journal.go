package lazyxml

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faultline"
	"repro/internal/xmltree"
)

// JournaledDB is a DB with a write-ahead log: the file, its sequence, the
// group-commit staging buffer and the replication tap. Every update is
// one commit unit — one user operation's ops under one checksum — that
// the owning shard's write path checks, appends here and applies
// (core.Store.Apply); Insert, Append, Remove and RemoveElementAt are that
// path with global offsets. A checkpoint writes a snapshot once the log
// has grown a budget past the last one, Compact folds the log into a
// snapshot, and reopening replays what the log holds above the snapshot
// through the same Apply, so the database survives restarts without the
// "maintenance hours" rebuild and a restart replays at most about a
// budget of log however long the history.
//
// Layout (DESIGN.md §8): <dir>/journal.wal is the one log — a header
// naming the sequence of the record just before its first one, then
// records, one commit unit each — and <dir>/snapshot.lxml (may be absent)
// holds the sequence it covers, the name map and the full store state. A
// record's sequence is its position after the header's base, so the log
// numbers itself; open applies only records above the snapshot's covered
// sequence. A torn tail record (crash mid-write) is detected by checksum
// and cut off.
type JournaledDB struct {
	*DB
	sh   *shard // the write path that owns this log
	dir  string
	fs   faultline.FS
	wal  faultline.File
	sync bool

	// Replication state. Every append gets the next monotonic sequence
	// number; base is the sequence of the record just before the first
	// one still in journal.wal — the value in the file's header, and the
	// horizon: the lowest sequence a subscriber may resume from (records
	// at or below it exist only folded into a snapshot). mu guards the
	// file and these fields against the replication readers; writers are
	// already one at a time under the shard's write lock.
	mu   sync.Mutex
	seq  int64
	base int64
	tap  func(seq int64, rec []byte)

	// Group commit (DESIGN.md §15). With groupCommit set, the shard
	// routes writes through its commit lane, whose leader opens a staging
	// window: appends land in pending instead of the file, and flushStaged
	// writes the batch with one Write and one Sync before any waiter is
	// acked. window is how long the leader waits for more writers. failed
	// is the poison set by a log write or flush that failed: the file may
	// then hold records the store lacks, or lack ones it holds, so every
	// later append is refused rather than diverging further. staging,
	// pending and failed change only under the shard's write lock.
	groupCommit bool
	window      time.Duration
	staging     bool
	pending     [][]byte
	failed      error

	// Checkpoints (DESIGN.md §8). logged counts the log bytes above the
	// sequence of the newest snapshot written or being written; a commit
	// that finds it over checkpointBudget captures a view under the
	// shard's write lock and hands it to a background writer, at most one
	// at a time (ckBusy; ckDone closes when it finishes). These fields
	// are guarded by mu.
	logged   int64
	ckMin    int64 // the budget's absolute term, checkpointMinBytes
	ckBusy   bool
	ckDone   chan struct{}
	replayed int64 // log bytes above the snapshot applied at open
	// ckHook, when set, is called at each boundary of a checkpoint's
	// write ("create", "sync", "rename", "syncdir"), so a test can hold
	// the writer there.
	ckHook func(stage string)

	// snapMu orders renames into snapshot.lxml: Compact holds it over its
	// snapshot and log replacement, a checkpoint over its rename, so a
	// snapshot older than the one on disk never replaces it. snapSeq is
	// the sequence the newest snapshot renamed into place covers; the
	// log's base is never above it. Lock order: mu → snapMu.
	snapMu      sync.Mutex
	snapSeq     int64
	snapBytes   atomic.Int64 // size of that snapshot, the budget's relative term
	checkpoints atomic.Int64 // checkpoints renamed into place since open
	ckErrors    atomic.Int64 // checkpoints that failed since open
}

const (
	journalName  = "journal.wal"
	snapshotName = "snapshot.lxml"

	logMagic      = "LXWL3"
	logHeaderLen  = len(logMagic) + 8 + 4
	snapshotMagic = "LXSS1"

	// checkpointMinBytes is the absolute term of the checkpoint budget:
	// a checkpoint fires once the log holds more than max(1 MiB, a
	// quarter of the last snapshot's size) above that snapshot. The
	// relative term bounds the snapshot bytes written per logged byte on
	// a large store; at the benchmark's scale (a 2.5 MB shard snapshot)
	// the absolute one governs, and a reopen replays at most about that.
	checkpointMinBytes = 1 << 20

	// maxUnitOps bounds a record's op count (a Collapse, the largest
	// unit a write makes, has three), refusing a forged count up front.
	maxUnitOps = 64
)

var errClosed = errors.New("lazyxml: journal is closed")

// JournalOption configures OpenJournal.
type JournalOption func(*JournaledDB)

// WithSync makes every update fsync the journal before returning
// (durable against power loss, slower). Without it the OS page cache
// decides.
func WithSync() JournalOption { return func(j *JournaledDB) { j.sync = true } }

// WithFS routes every file operation the journal layer makes — WAL
// appends, snapshots, log replacement — through fs instead of the real
// filesystem. Tests inject faults (failed fsyncs, torn writes,
// crash-after-N) this way; nil restores the default.
func WithFS(fs faultline.FS) JournalOption { return func(j *JournaledDB) { j.fs = fs } }

// WithGroupCommit enables leader-based group commit (DESIGN.md §15):
// concurrent writers enqueue on a per-shard commit lane, one leader
// drains the queue, appends the whole batch to the WAL in a single
// write plus a single fsync, publishes one MVCC generation for the
// batch, and wakes every waiter with its individual result — no caller
// observes success before its record is durable. window is how long
// the leader waits for more writers to arrive before draining (0 means
// batch only what has already queued up — "natural" batching under
// load, no added latency when idle).
func WithGroupCommit(window time.Duration) JournalOption {
	return func(j *JournaledDB) {
		j.groupCommit = true
		if window > 0 {
			j.window = window
		}
	}
}

// OpenJournal opens (or creates) a journaled database in dir. The mode
// and options apply when no snapshot exists yet; afterwards the
// snapshot's own settings win. Journal records above the snapshot's
// covered sequence are replayed. A log or snapshot without its header
// (LXWL3, LXSS1) — such as a log of one-op records from before commit
// units (LXWL2), or one written in the older two-log layout — is refused
// rather than read as an empty database.
func OpenJournal(dir string, mode Mode, dbOpts []Option, jOpts ...JournalOption) (*JournaledDB, error) {
	j := &JournaledDB{dir: dir}
	for _, o := range jOpts {
		o(j)
	}
	if j.fs == nil {
		j.fs = faultline.OS
	}
	if j.ckMin == 0 {
		j.ckMin = checkpointMinBytes
	}
	if err := j.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := removeStaleSnapshots(j.fs, dir); err != nil {
		return nil, err
	}
	covered, err := j.loadSnapshot(mode, dbOpts)
	if err != nil {
		return nil, err
	}
	if err := j.replay(covered); err != nil {
		return nil, err
	}
	j.sh = &shard{db: j.DB, j: j}
	if j.groupCommit {
		j.sh.lane = newCommitLane(j.sh, j.window)
	}
	return j, nil
}

// loadSnapshot restores the store and the name map from snapshot.lxml
// and returns the sequence the snapshot covers; absent means an empty
// database covering nothing.
func (j *JournaledDB) loadSnapshot(mode Mode, dbOpts []Option) (covered int64, err error) {
	path := filepath.Join(j.dir, snapshotName)
	f, err := j.fs.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		j.DB = Open(mode, dbOpts...)
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	covered, docs, err := readSnapshotHeader(br)
	if err == nil {
		j.DB, err = Restore(br, dbOpts...)
	}
	if err != nil {
		return 0, fmt.Errorf("lazyxml: restoring %s: %w", path, err)
	}
	j.DB.store.SetNames(docs)
	j.snapSeq = covered
	if fi, err := j.fs.Stat(path); err == nil {
		j.snapBytes.Store(fi.Size())
	}
	return covered, nil
}

// replay opens journal.wal, applies its units above covered to the
// restored store and name map — through Apply, like every write —
// stopping cleanly at a torn tail, and
// leaves the file open for appending. Records the snapshot covers are
// only checked and skipped (skipUnit), never decoded into ops. The bytes it applied count toward
// the next checkpoint's budget. The sequence comes from the file
// alone: its header's base plus the records counted. A log that is
// absent (a fresh or freshly re-seeded directory) or ends below what the
// snapshot covers is replaced by an empty one based at covered.
func (j *JournaledDB) replay(covered int64) error {
	path := filepath.Join(j.dir, journalName)
	j.seq = covered
	f, err := j.fs.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return j.resetLog(covered)
	}
	if err != nil {
		return err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	base, err := readLogHeader(br)
	if err != nil {
		return fmt.Errorf("lazyxml: %s: %w", path, err)
	}
	if base > covered {
		return fmt.Errorf("lazyxml: %s starts after sequence %d but the snapshot covers only %d", path, base, covered)
	}
	seq, cleanLen := base, int64(logHeaderLen)
	for {
		var ops []core.Op
		var n int
		if seq < covered {
			n, err = skipUnit(br)
		} else {
			var enc []byte
			ops, enc, err = readUnit(br)
			n = len(enc)
		}
		if err != nil {
			// io.EOF, or a torn or corrupt tail: everything before it was
			// applied; the tail is cut off below.
			break
		}
		seq++
		cleanLen += int64(n)
		if seq <= covered {
			continue
		}
		if err := j.DB.store.Apply(ops, nil); err != nil {
			return fmt.Errorf("lazyxml: replaying record %d: %w", seq, err)
		}
		j.replayed += int64(n)
	}
	if seq < covered {
		return j.resetLog(covered)
	}
	j.seq, j.base, j.logged = seq, base, j.replayed
	// Cut a torn tail off before appending: otherwise the next append
	// would land after the garbage and be unreachable by future replays
	// (and the byte offset of record k would stop matching its encoding).
	if fi, err := j.fs.Stat(path); err == nil && fi.Size() > cleanLen {
		if err := j.fs.Truncate(path, cleanLen); err != nil {
			return err
		}
	}
	j.wal, err = j.fs.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	return err
}

// resetLog replaces journal.wal with an empty log whose header names
// base, and reopens it for appending. The file is written whole and
// renamed into place, so at every instant journal.wal is either the old
// log or the new one — never a log without its base. With sync-on-ack
// the directory is fsynced after the rename: a rename the disk has not
// recorded would let a power loss resurrect the old log underneath
// writes already acknowledged against the new one.
func (j *JournaledDB) resetLog(base int64) error {
	path := filepath.Join(j.dir, journalName)
	if err := j.fs.WriteFile(path+".tmp", encodeLogHeader(base), 0o644); err != nil {
		return err
	}
	if err := j.fs.Rename(path+".tmp", path); err != nil {
		return err
	}
	// From here the old handle points at an unlinked file: no append
	// through it could ever be replayed, so any failure poisons the journal.
	var err error
	if j.sync {
		err = syncDir(j.fs, j.dir)
	}
	var wal faultline.File
	if err == nil {
		wal, err = j.fs.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	}
	if err != nil {
		j.failed = fmt.Errorf("lazyxml: replacing the journal: %w", err)
		return err
	}
	if j.wal != nil {
		j.wal.Close()
	}
	j.wal, j.base = wal, base
	return nil
}

func syncDir(fs faultline.FS, dir string) error {
	d, err := fs.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// encodeLogHeader renders journal.wal's fixed-size header: magic, base
// sequence, crc32 of both.
func encodeLogHeader(base int64) []byte {
	buf := binary.BigEndian.AppendUint64([]byte(logMagic), uint64(base))
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

func readLogHeader(r io.Reader) (base int64, err error) {
	hdr := make([]byte, logHeaderLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, fmt.Errorf("short journal header: %w", err)
	}
	body := hdr[:logHeaderLen-4]
	if string(body[:len(logMagic)]) != logMagic || binary.BigEndian.Uint32(hdr[logHeaderLen-4:]) != crc32.ChecksumIEEE(body) {
		return 0, fmt.Errorf("corrupt journal header %q", hdr)
	}
	return int64(binary.BigEndian.Uint64(body[len(logMagic):])), nil
}

// encodeUnit renders a record: the op count, each op (kind, then gp,
// length and fragment, or sid and name), crc32 of all of it.
func encodeUnit(ops []core.Op) []byte { return appendCRC(unitPayload(ops)) }

// appendCRC closes a checksummed encoding with the crc32 of buf.
func appendCRC(buf []byte) []byte {
	return binary.AppendUvarint(buf, uint64(crc32.ChecksumIEEE(buf)))
}

func unitPayload(ops []core.Op) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(ops)))
	for _, op := range ops {
		buf = append(buf, byte(op.Kind))
		switch op.Kind {
		case core.OpInsert, core.OpRemove:
			l := op.L
			if op.Kind == core.OpInsert {
				l = len(op.Frag)
			}
			buf = binary.AppendVarint(buf, int64(op.GP))
			buf = binary.AppendVarint(buf, int64(l))
			buf = append(buf, op.Frag...)
		case core.OpNamePut, core.OpNameDel:
			buf = appendNameEntry(buf, op.SID, op.Name)
		}
	}
	return buf
}

// appendNameEntry renders one (sid, name) pair: the body of a name
// record and the unit of the snapshot's name map.
func appendNameEntry(buf []byte, sid SID, name string) []byte {
	buf = binary.AppendVarint(buf, int64(sid))
	buf = binary.AppendUvarint(buf, uint64(len(name)))
	return append(buf, name...)
}

func readNameEntry(br recordReader) (SID, string, error) {
	sid, err := binary.ReadVarint(br)
	if err != nil {
		return 0, "", fmt.Errorf("torn sid")
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil || nameLen > 1<<16 {
		return 0, "", fmt.Errorf("torn or corrupt name length")
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return 0, "", fmt.Errorf("torn name")
	}
	return SID(sid), string(name), nil
}

// recordReader is what readUnit parses from: a buffered file, or a
// replicated record's bytes.
type recordReader interface {
	io.Reader
	io.ByteReader
}

// readUnit parses one record and returns its unit with its canonical
// encoding. Any short or corrupt read is an error the caller treats as
// the end of the clean log; io.EOF means the log ended on a record
// boundary. Variable-length fields are read as the bytes arrive, so a
// forged length or count cannot make it allocate more than the input
// holds.
func readUnit(br recordReader) (ops []core.Op, enc []byte, err error) {
	n, err := binary.ReadUvarint(br)
	if err == io.EOF {
		return nil, nil, io.EOF
	}
	if err != nil || n == 0 || n > maxUnitOps {
		return nil, nil, fmt.Errorf("torn or corrupt op count")
	}
	for i := uint64(0); i < n; i++ {
		op, err := readOp(br)
		if err != nil {
			return nil, nil, err
		}
		ops = append(ops, op)
	}
	sum, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, nil, fmt.Errorf("torn checksum")
	}
	payload := unitPayload(ops)
	if sum != uint64(crc32.ChecksumIEEE(payload)) {
		return nil, nil, fmt.Errorf("checksum mismatch")
	}
	return ops, binary.AppendUvarint(payload, sum), nil
}

// skipUnit reads past one record and returns the length of its canonical
// encoding, as readUnit's enc. It fails wherever readUnit fails on the
// same bytes — the record's fields are checked the same way and its
// checksum is taken over the same canonical encoding — but it builds no
// ops: each varint is re-encoded into a small buffer for the checksum,
// and fragment bytes go to it straight from the read buffer. Replay uses
// it for the records a snapshot already covers.
func skipUnit(br *bufio.Reader) (int, error) {
	var crc uint32
	n := 0
	var scratch [binary.MaxVarintLen64]byte
	sum := func(b []byte) {
		crc = crc32.Update(crc, crc32.IEEETable, b)
		n += len(b)
	}
	count, err := binary.ReadUvarint(br)
	if err == io.EOF {
		return 0, io.EOF
	}
	if err != nil || count == 0 || count > maxUnitOps {
		return 0, fmt.Errorf("torn or corrupt op count")
	}
	sum(binary.AppendUvarint(scratch[:0], count))
	for i := uint64(0); i < count; i++ {
		kind, err := br.ReadByte()
		if err != nil {
			return 0, fmt.Errorf("torn op")
		}
		sum(append(scratch[:0], kind))
		switch core.OpKind(kind) {
		case core.OpInsert, core.OpRemove:
			gp, err := binary.ReadVarint(br)
			if err != nil {
				return 0, fmt.Errorf("torn gp")
			}
			l, err := binary.ReadVarint(br)
			if err != nil {
				return 0, fmt.Errorf("torn length")
			}
			if gp < 0 || l < 0 || l > 1<<30 {
				return 0, fmt.Errorf("corrupt op header")
			}
			sum(binary.AppendVarint(scratch[:0], gp))
			sum(binary.AppendVarint(scratch[:0], l))
			if core.OpKind(kind) == core.OpInsert {
				if err := sumNext(br, int(l), sum); err != nil {
					return 0, fmt.Errorf("torn fragment")
				}
			}
		case core.OpNamePut, core.OpNameDel:
			sid, err := binary.ReadVarint(br)
			if err != nil {
				return 0, fmt.Errorf("torn sid")
			}
			nameLen, err := binary.ReadUvarint(br)
			if err != nil || nameLen > 1<<16 {
				return 0, fmt.Errorf("torn or corrupt name length")
			}
			sum(binary.AppendVarint(scratch[:0], sid))
			sum(binary.AppendUvarint(scratch[:0], nameLen))
			if err := sumNext(br, int(nameLen), sum); err != nil {
				return 0, fmt.Errorf("torn name")
			}
		default:
			return 0, fmt.Errorf("unknown op %d", kind)
		}
	}
	want, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, fmt.Errorf("torn checksum")
	}
	if want != uint64(crc) {
		return 0, fmt.Errorf("checksum mismatch")
	}
	return n + len(binary.AppendUvarint(scratch[:0], want)), nil
}

// sumNext hands the next l bytes of br to sum, a buffer at a time, and
// consumes them.
func sumNext(br *bufio.Reader, l int, sum func([]byte)) error {
	for l > 0 {
		b, err := br.Peek(min(l, br.Size()))
		sum(b)
		br.Discard(len(b))
		l -= len(b)
		if err != nil && l > 0 {
			return err
		}
	}
	return nil
}

// readOp parses one op of a unit.
func readOp(br recordReader) (op core.Op, err error) {
	kind, err := br.ReadByte()
	if err != nil {
		return op, fmt.Errorf("torn op")
	}
	op.Kind = core.OpKind(kind)
	switch op.Kind {
	case core.OpInsert, core.OpRemove:
		gp, err := binary.ReadVarint(br)
		if err != nil {
			return op, fmt.Errorf("torn gp")
		}
		l, err := binary.ReadVarint(br)
		if err != nil {
			return op, fmt.Errorf("torn length")
		}
		if gp < 0 || l < 0 || l > 1<<30 {
			return op, fmt.Errorf("corrupt op header")
		}
		op.GP = int(gp)
		if op.Kind == core.OpRemove {
			op.L = int(l)
			return op, nil
		}
		var frag bytes.Buffer
		if _, err := io.CopyN(&frag, br, l); err != nil {
			return op, fmt.Errorf("torn fragment")
		}
		op.Frag = frag.Bytes()
	case core.OpNamePut, core.OpNameDel:
		if op.SID, op.Name, err = readNameEntry(br); err != nil {
			return op, err
		}
	default:
		return op, fmt.Errorf("unknown op %d", kind)
	}
	return op, nil
}

// decodeUnit parses a record that arrived as bytes (a replicated record
// off the wire). data must be exactly one record in its canonical
// encoding, so what a follower appends is byte-identical to what it was
// sent.
func decodeUnit(data []byte) ([]core.Op, error) {
	ops, enc, err := readUnit(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(enc, data) {
		return nil, fmt.Errorf("trailing or non-canonical bytes")
	}
	return ops, nil
}

// encodeSnapshotHeader renders what leads snapshot.lxml, ahead of the
// store snapshot: magic, the sequence covered, the name map as a count
// and (sid, name) pairs in name order, crc32 of all of it.
func encodeSnapshotHeader(seq int64, docs map[string]SID) []byte {
	names := make([]string, 0, len(docs))
	for name := range docs {
		names = append(names, name)
	}
	sort.Strings(names)
	buf := []byte(snapshotMagic)
	buf = binary.AppendUvarint(buf, uint64(seq))
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, name := range names {
		buf = appendNameEntry(buf, docs[name], name)
	}
	return appendCRC(buf)
}

// readSnapshotHeader parses encodeSnapshotHeader's output, leaving br at
// the store snapshot. A re-seed receives these bytes from the network, so
// what it consumed must be exactly the canonical encoding of what it
// decoded, checksum included: a long-form varint or a duplicate or
// unsorted name is refused like a bad checksum, and an accepted header
// re-encodes to itself. Names are read as their bytes arrive, so a
// forged count or length cannot make it allocate past the input plus
// one name.
func readSnapshotHeader(br recordReader) (seq int64, docs map[string]SID, err error) {
	rr := &recordingReader{r: br}
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(rr, magic); err != nil || string(magic) != snapshotMagic {
		return 0, nil, fmt.Errorf("bad snapshot magic %q", magic)
	}
	useq, err := binary.ReadUvarint(rr)
	if err != nil {
		return 0, nil, fmt.Errorf("corrupt snapshot header: %w", err)
	}
	count, err := binary.ReadUvarint(rr)
	if err != nil {
		return 0, nil, fmt.Errorf("corrupt snapshot header: %w", err)
	}
	docs = map[string]SID{}
	for i := uint64(0); i < count; i++ {
		sid, name, err := readNameEntry(rr)
		if err != nil {
			return 0, nil, fmt.Errorf("corrupt snapshot name map: %w", err)
		}
		docs[name] = sid
	}
	if _, err := binary.ReadUvarint(rr); err != nil {
		return 0, nil, fmt.Errorf("corrupt snapshot header checksum: %w", err)
	}
	if !bytes.Equal(rr.buf, encodeSnapshotHeader(int64(useq), docs)) {
		return 0, nil, fmt.Errorf("snapshot header checksum mismatch")
	}
	return int64(useq), docs, nil
}

// recordingReader keeps a copy of every byte read through it.
type recordingReader struct {
	r   recordReader
	buf []byte
}

func (rr *recordingReader) Read(p []byte) (int, error) {
	n, err := rr.r.Read(p)
	rr.buf = append(rr.buf, p[:n]...)
	return n, err
}

func (rr *recordingReader) ReadByte() (byte, error) {
	b, err := rr.r.ReadByte()
	if err == nil {
		rr.buf = append(rr.buf, b)
	}
	return b, err
}

// append writes a unit's record to the log and returns it, for advance
// to count once the store shows the unit. It runs inside Apply, after
// the unit's check and before it touches the store, under the shard's
// write lock, so the record order is the apply order. While a staging
// window is open the record is buffered in pending instead (and nil
// returned), and flushStaged writes the batch — byte-identical to a
// record-at-a-time execution. A failed write or sync poisons the log:
// the file may hold all, part or none of a record the store never
// applied, and a later record would replay on a different state.
func (j *JournaledDB) append(ops []core.Op) ([]byte, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.failed != nil {
		return nil, j.failed
	}
	if j.wal == nil {
		return nil, errClosed
	}
	enc := encodeUnit(ops)
	if j.staging {
		j.pending = append(j.pending, enc)
		return nil, nil
	}
	_, err := j.wal.Write(enc)
	if err == nil && j.sync {
		err = j.wal.Sync()
	}
	if err != nil {
		j.failed = fmt.Errorf("lazyxml: journal write failed, journal poisoned: %w", err)
		return nil, err
	}
	return enc, nil
}

// advance gives records already in the log their sequence numbers and
// feeds them to the replication tap, in order. It runs once the store
// shows their units, so a reader that waits for a sequence and then
// reads finds the units applied.
func (j *JournaledDB) advance(recs ...[]byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, rec := range recs {
		j.seq++
		j.logged += int64(len(rec))
		if j.tap != nil {
			j.tap(j.seq, rec)
		}
	}
}

// flushStaged closes the staging window and makes the batch durable —
// one Write of the concatenated records, one Sync when the journal is
// sync-on-ack — and returns the records for advance. If they cannot be
// made durable the journal is poisoned: the store already applied the
// staged units, so further appends would let the WAL diverge from what a
// reopen can replay.
func (j *JournaledDB) flushStaged() ([][]byte, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	pending := j.pending
	j.pending, j.staging = nil, false
	if len(pending) == 0 || j.failed != nil {
		return nil, j.failed
	}
	err := errClosed
	if j.wal != nil {
		if _, err = j.wal.Write(bytes.Join(pending, nil)); err == nil && j.sync {
			err = j.wal.Sync()
		}
	}
	if err != nil {
		j.failed = fmt.Errorf("lazyxml: group-commit flush failed, journal poisoned: %w", err)
		return nil, err
	}
	return pending, nil
}

// Insert inserts a fragment at global offset gp through the write path.
func (j *JournaledDB) Insert(gp int, fragment []byte) (SID, error) {
	return j.sh.insert(func() (int, error) { return gp, nil }, fragment)
}

// Append inserts a fragment at the end of the database.
func (j *JournaledDB) Append(fragment []byte) (SID, error) {
	return j.sh.insert(func() (int, error) { return j.DB.Len(), nil }, fragment)
}

// Remove removes the range [gp, gp+l).
func (j *JournaledDB) Remove(gp, l int) error {
	return j.sh.remove(func() (int, int, error) { return gp, l, nil })
}

// RemoveElementAt removes the element starting at gp.
func (j *JournaledDB) RemoveElementAt(gp int) error {
	return j.sh.remove(func() (int, int, error) {
		l, err := j.DB.ElementExtentAt(gp)
		return gp, l, err
	})
}

// Compact folds the log into a snapshot (see compact).
func (j *JournaledDB) Compact() error { return j.sh.Compact() }

// Close stops the commit lane and closes the log; the DB stays usable in
// memory, but updates fail.
func (j *JournaledDB) Close() error { return j.sh.Close() }

// compact folds the journal into a fresh snapshot: the covered sequence,
// the name map and the store state are written to snapshot.lxml
// (atomically, via rename), the journal is replaced by an empty one
// based at the current sequence, and the replication horizon advances to
// it — subscribers further behind must re-seed from a snapshot. The
// snapshot rename is the one commit point: before it the old snapshot
// and the whole log stand; after it the new snapshot says which of the
// log's records it already holds, whether or not the log was replaced.
// The caller holds the shard's write lock: no unit is half applied. A
// checkpoint still being written covers no more than this snapshot, so
// its rename is dropped (snapMu).
func (j *JournaledDB) compact() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	// After a failed log write memory and the WAL disagree; a snapshot of
	// memory would make unacknowledged writes durable.
	if j.failed != nil {
		return j.failed
	}
	if j.wal == nil {
		return errClosed
	}
	v := j.DB.store.AcquireView()
	tmp, size, err := j.stageSnapshot(j.seq, v, nil)
	v.Release()
	if err != nil {
		return err
	}
	j.snapMu.Lock()
	defer j.snapMu.Unlock()
	if err := j.installSnapshot(tmp, j.seq, size, nil); err != nil {
		return err
	}
	j.logged = 0
	return j.resetLog(j.seq)
}

// writeSnapshot writes snapshot.lxml's encoding of v at seq to w: the
// header (magic, seq, the view's name map), then the view's store state.
// It is the one snapshot writer; Compact, checkpoints and re-seed
// capture all call it with a view captured under the shard's write lock,
// and it takes no lock itself.
func writeSnapshot(w io.Writer, seq int64, v *core.View) error {
	if _, err := w.Write(encodeSnapshotHeader(seq, v.NameMap())); err != nil {
		return err
	}
	return v.Snapshot(w)
}

// snapshotTemps numbers this process's snapshot temp files.
var snapshotTemps atomic.Int64

// stageSnapshot writes the snapshot of v at seq to a temp file of its own
// in the journal's directory and fsyncs it, returning the file's path and
// size. The name carries the process id and a per-process serial, so two
// backends on one directory (a killed daemon's and its successor's)
// never write one file. On error the temp file is removed. hook, when
// set, is called at each boundary (see ckHook).
func (j *JournaledDB) stageSnapshot(seq int64, v *core.View, hook func(string)) (tmp string, size int64, err error) {
	tmp = fmt.Sprintf("%s.%d-%d.tmp", filepath.Join(j.dir, snapshotName), os.Getpid(), snapshotTemps.Add(1))
	callHook(hook, "create")
	f, err := j.fs.Create(tmp)
	if err != nil {
		return "", 0, err
	}
	if err = writeSnapshot(f, seq, v); err == nil {
		size, err = f.Seek(0, io.SeekCurrent)
	}
	if err == nil {
		callHook(hook, "sync")
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		j.fs.Remove(tmp)
		return "", 0, err
	}
	return tmp, size, nil
}

// installSnapshot renames a staged snapshot covering seq into place.
// With sync-on-ack the directory is fsynced too, so the rename is on disk
// before anything done after it — a log based above what any snapshot on
// disk covers must never exist. The caller holds snapMu.
func (j *JournaledDB) installSnapshot(tmp string, seq, size int64, hook func(string)) error {
	if err := j.fs.Rename(tmp, filepath.Join(j.dir, snapshotName)); err != nil {
		j.fs.Remove(tmp)
		return err
	}
	j.snapSeq = seq
	j.snapBytes.Store(size)
	if !j.sync {
		return nil
	}
	callHook(hook, "syncdir")
	return syncDir(j.fs, j.dir)
}

func callHook(hook func(string), stage string) {
	if hook != nil {
		hook(stage)
	}
}

// removeStaleSnapshots deletes snapshot temp files left in dir by a
// writer that died before its rename. A live writer's temp file removed
// here (a killed daemon's, still running beside its successor) fails
// that writer's rename: a checkpoint is lost, never torn.
func removeStaleSnapshots(fs faultline.FS, dir string) error {
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, snapshotName+".") && strings.HasSuffix(name, ".tmp") {
			if err := fs.Remove(filepath.Join(dir, name)); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkpointBudget is how many log bytes above the newest snapshot start
// a checkpoint: max(ckMin, a quarter of that snapshot's size).
func (j *JournaledDB) checkpointBudget() int64 {
	return max(j.ckMin, j.snapBytes.Load()/4)
}

// beginCheckpoint decides, after a commit, whether a checkpoint starts:
// the log holds more than the budget above the newest snapshot, none is
// in flight, the journal is open and not poisoned (memory ahead of the
// log must never reach a snapshot), and no staging window is open. If
// so it returns the sequence the checkpoint covers and the channel its
// writer closes, and restarts the byte count: a checkpoint that fails
// is retried a budget later. The caller holds the shard's write lock,
// so the store shows exactly the units up to seq.
func (j *JournaledDB) beginCheckpoint() (seq int64, done chan struct{}, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.ckBusy || j.failed != nil || j.wal == nil || j.staging || j.logged <= j.checkpointBudget() {
		return 0, nil, false
	}
	j.ckBusy, j.logged = true, 0
	j.ckDone = make(chan struct{})
	return j.seq, j.ckDone, true
}

// writeCheckpoint is the checkpoint writer: it serializes the view
// pinned at seq into a temp file, fsyncs it and, unless a snapshot at
// least as new is already in place (a Compact ran meanwhile), renames it
// into place and syncs the directory. No lock is held while it writes;
// the log is left as it is, so the replication horizon does not move.
// A failure leaves the old snapshot and the whole log standing.
func (j *JournaledDB) writeCheckpoint(seq int64, v *core.View, done chan struct{}) {
	defer close(done)
	tmp, size, err := j.stageSnapshot(seq, v, j.ckHook)
	v.Release()
	if err == nil {
		callHook(j.ckHook, "rename")
		j.snapMu.Lock()
		if seq > j.snapSeq {
			if err = j.installSnapshot(tmp, seq, size, j.ckHook); err == nil {
				j.checkpoints.Add(1)
			}
		} else {
			j.fs.Remove(tmp)
		}
		j.snapMu.Unlock()
	}
	if err != nil {
		j.ckErrors.Add(1)
	}
	j.mu.Lock()
	j.ckBusy = false
	j.mu.Unlock()
}

// checkpointStats reports the journal's checkpoints since open: how many
// were renamed into place and how many failed, and the log bytes above
// the snapshot that open replayed (set before the journal is shared).
func (j *JournaledDB) checkpointStats() (written, failed, replayed int64) {
	return j.checkpoints.Load(), j.ckErrors.Load(), j.replayed
}

// closeLog flushes and closes the log file, then waits for a checkpoint
// writer still running: once the log is closed no new one starts.
func (j *JournaledDB) closeLog() error {
	j.mu.Lock()
	var err error
	if j.wal != nil {
		err = j.wal.Sync()
		if cerr := j.wal.Close(); err == nil {
			err = cerr
		}
		j.wal = nil
	}
	ck := j.ckDone
	j.mu.Unlock()
	if ck != nil {
		<-ck
	}
	return err
}

// ValidateFragment checks that a fragment is a well-formed XML segment
// (exactly what Insert requires) and returns its element count.
func ValidateFragment(fragment []byte) (int, error) {
	d, err := xmltree.ParseFragment(fragment)
	if err != nil {
		return 0, err
	}
	return d.Len(), nil
}
