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
	"sync"
	"time"

	"repro/internal/faultline"
	"repro/internal/xmltree"
)

// JournaledDB is a DB with durable updates: every Insert/Remove and every
// name op is appended to a write-ahead journal before being applied, and Compact
// folds the journal into a snapshot. Opening the same directory again
// restores the snapshot and replays the journal, so the database — the
// update log included — survives restarts without the "maintenance
// hours" rebuild.
//
// Layout (DESIGN.md §8): <dir>/journal.wal is the one log — a header
// naming the sequence of the record just before its first one, then typed
// records — and <dir>/snapshot.lxml (may be absent) holds the sequence it
// covers, the name map and the full store state. A record's sequence is
// its position after the header's base, so the log numbers itself; open
// applies only records above the snapshot's covered sequence. A torn
// tail record (crash mid-write) is detected by checksum and cut off.
type JournaledDB struct {
	*DB
	dir  string
	fs   faultline.FS
	wal  faultline.File
	sync bool

	// Replication state. Every append gets the next monotonic sequence
	// number; base is the sequence of the record just before the first
	// one still in journal.wal — the value in the file's header, and the
	// horizon: the lowest sequence a subscriber may resume from (records
	// at or below it exist only folded into a snapshot). mu serializes
	// appends, compaction and WAL reads so the record order on disk is
	// the sequence order.
	mu   sync.Mutex
	seq  int64
	base int64
	tap  func(seq int64, rec []byte)

	// Group commit (DESIGN.md §15). With groupCommit set, the
	// shard routes writes through its commit lane
	// whose leader opens a staging window: appends land in pending instead
	// of the file, and flushStaged writes the whole batch with one Write
	// and one Sync before any waiter is acked. window is how long the lane
	// leader waits for more writers before draining. failed is the poison
	// set by a batch flush that could not make its records durable: the
	// in-memory store is then ahead of the WAL, so every later append is
	// refused rather than diverging further.
	groupCommit bool
	window      time.Duration
	staging     bool
	pending     [][]byte
	failed      error
}

const (
	journalName  = "journal.wal"
	snapshotName = "snapshot.lxml"

	logMagic      = "LXWL2"
	logHeaderLen  = len(logMagic) + 8 + 4
	snapshotMagic = "LXSS1"

	opInsert  byte = 1
	opRemove  byte = 2
	opNamePut byte = 3
	opNameDel byte = 4
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
// (LXWL2, LXSS1) — such as one written in the older two-log layout — is
// refused rather than read as an empty database.
func OpenJournal(dir string, mode Mode, dbOpts []Option, jOpts ...JournalOption) (*JournaledDB, error) {
	j := &JournaledDB{dir: dir}
	for _, o := range jOpts {
		o(j)
	}
	if j.fs == nil {
		j.fs = faultline.OS
	}
	if err := j.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	covered, err := j.loadSnapshot(mode, dbOpts)
	if err != nil {
		return nil, err
	}
	if err := j.replay(covered); err != nil {
		return nil, err
	}
	// A name whose segment no longer exists is the crash window between a
	// document's removal record and its name record; drop it so the
	// database always reopens consistent.
	for name, sid := range j.DB.store.NameMap() {
		if _, _, ok := j.DB.store.SegmentSpan(sid); !ok {
			j.DB.store.DeleteName(name)
		}
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
	for name, sid := range docs {
		j.DB.store.PutName(name, sid)
	}
	return covered, nil
}

// replay opens journal.wal, applies its records above covered to the
// restored store and name map, stopping cleanly at a torn tail, and
// leaves the file open for appending. The sequence comes from the file
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
		rec, enc, err := readRecord(br)
		if err != nil {
			// io.EOF, or a torn or corrupt tail: everything before it was
			// applied; the tail is cut off below.
			break
		}
		seq++
		cleanLen += int64(len(enc))
		if seq <= covered {
			continue
		}
		switch rec.op {
		case opInsert:
			if _, err := j.DB.Insert(rec.gp, rec.frag); err != nil {
				return fmt.Errorf("lazyxml: replaying insert at %d: %w", rec.gp, err)
			}
		case opRemove:
			if err := j.DB.Remove(rec.gp, rec.l); err != nil {
				return fmt.Errorf("lazyxml: replaying remove [%d,%d): %w", rec.gp, rec.gp+rec.l, err)
			}
		case opNamePut:
			j.DB.store.PutName(rec.name, rec.sid)
		case opNameDel:
			j.DB.store.DeleteName(rec.name)
		}
	}
	if seq < covered {
		return j.resetLog(covered)
	}
	j.seq, j.base = seq, base
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

// walRecord is one typed log record. Segment ops (insert, remove) use
// gp, l and frag; name ops (put, delete) use sid and name.
type walRecord struct {
	op   byte
	gp   int
	l    int
	frag []byte
	sid  SID
	name string
}

// encodeRecord renders a record: op, its fields (gp, l, frag for a
// segment op; sid, name for a name op), crc32 of all of it.
func encodeRecord(rec walRecord) []byte { return appendCRC(recordPayload(rec)) }

// appendCRC closes a checksummed encoding with the crc32 of buf.
func appendCRC(buf []byte) []byte {
	return binary.AppendUvarint(buf, uint64(crc32.ChecksumIEEE(buf)))
}

func recordPayload(rec walRecord) []byte {
	buf := []byte{rec.op}
	switch rec.op {
	case opInsert, opRemove:
		buf = binary.AppendVarint(buf, int64(rec.gp))
		buf = binary.AppendVarint(buf, int64(rec.l))
		if rec.op == opInsert {
			buf = append(buf, rec.frag...)
		}
	case opNamePut, opNameDel:
		buf = appendNameEntry(buf, rec.sid, rec.name)
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

// recordReader is what readRecord parses from: a buffered file, or a
// replicated record's bytes.
type recordReader interface {
	io.Reader
	io.ByteReader
}

// readRecord parses one record and returns it with its canonical
// encoding. Any short or corrupt read is an error the caller treats as
// the end of the clean log; io.EOF means the log ended on a record
// boundary. Variable-length fields are read as the bytes arrive, so a
// forged length cannot make it allocate more than the input holds.
func readRecord(br recordReader) (rec walRecord, enc []byte, err error) {
	if rec.op, err = br.ReadByte(); err != nil {
		return rec, nil, io.EOF
	}
	switch rec.op {
	case opInsert, opRemove:
		gp, err := binary.ReadVarint(br)
		if err != nil {
			return rec, nil, fmt.Errorf("torn gp")
		}
		l, err := binary.ReadVarint(br)
		if err != nil {
			return rec, nil, fmt.Errorf("torn length")
		}
		if gp < 0 || l < 0 || l > 1<<30 {
			return rec, nil, fmt.Errorf("corrupt record header")
		}
		rec.gp, rec.l = int(gp), int(l)
		if rec.op == opInsert {
			var frag bytes.Buffer
			if _, err := io.CopyN(&frag, br, l); err != nil {
				return rec, nil, fmt.Errorf("torn fragment")
			}
			rec.frag = frag.Bytes()
		}
	case opNamePut, opNameDel:
		if rec.sid, rec.name, err = readNameEntry(br); err != nil {
			return rec, nil, err
		}
	default:
		return rec, nil, fmt.Errorf("unknown op %d", rec.op)
	}
	sum, err := binary.ReadUvarint(br)
	if err != nil {
		return rec, nil, fmt.Errorf("torn checksum")
	}
	payload := recordPayload(rec)
	if sum != uint64(crc32.ChecksumIEEE(payload)) {
		return rec, nil, fmt.Errorf("checksum mismatch")
	}
	return rec, binary.AppendUvarint(payload, sum), nil
}

// decodeRecord parses a record that arrived as bytes (a replicated
// record off the wire). data must be exactly one record in its canonical
// encoding, so what a follower appends is byte-identical to what it was
// sent.
func decodeRecord(data []byte) (walRecord, error) {
	rec, enc, err := readRecord(bytes.NewReader(data))
	if err != nil {
		return rec, err
	}
	if !bytes.Equal(enc, data) {
		return rec, fmt.Errorf("trailing or non-canonical bytes")
	}
	return rec, nil
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

// append writes a record to the journal (before the in-memory apply —
// write-ahead), assigns it the next sequence number and feeds the
// replication tap. The mutex makes the on-disk record order the
// sequence order even under concurrent writers.
//
// While a group-commit staging window is open the record is buffered in
// pending instead: the batch leader applies ops under the collection
// lock, so the buffer order is the apply order, and flushStaged later
// writes the concatenation, assigns sequence numbers and fires the tap
// in exactly that order — the WAL ends up byte-identical to a
// record-at-a-time execution.
func (j *JournaledDB) append(rec walRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.failed != nil {
		return j.failed
	}
	if j.wal == nil {
		return errClosed
	}
	enc := encodeRecord(rec)
	if j.staging {
		j.pending = append(j.pending, enc)
		return nil
	}
	if _, err := j.wal.Write(enc); err != nil {
		return err
	}
	if j.sync {
		if err := j.wal.Sync(); err != nil {
			return err
		}
	}
	j.seq++
	if j.tap != nil {
		j.tap(j.seq, enc)
	}
	return nil
}

// beginStage opens a staging window: until flushStaged, appends buffer
// in memory. Only a staged commit calls it, under the shard's cmu.
func (j *JournaledDB) beginStage() {
	j.mu.Lock()
	j.staging = true
	j.mu.Unlock()
}

// flushStaged closes the staging window and makes the batch durable:
// one Write of the concatenated records, one Sync (when the journal is
// sync-on-ack), then sequence numbers and replication taps in buffer
// order. If the records cannot be made durable the journal is poisoned —
// the in-memory store already applied the staged ops, so accepting
// further appends would let the WAL diverge from what a reopen can
// replay.
func (j *JournaledDB) flushStaged() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	pending := j.pending
	j.pending, j.staging = nil, false
	if len(pending) == 0 || j.failed != nil {
		return j.failed
	}
	err := errClosed
	if j.wal != nil {
		if _, err = j.wal.Write(bytes.Join(pending, nil)); err == nil && j.sync {
			err = j.wal.Sync()
		}
	}
	if err != nil {
		j.failed = fmt.Errorf("lazyxml: group-commit flush failed, journal poisoned: %w", err)
		return err
	}
	for _, enc := range pending {
		j.seq++
		if j.tap != nil {
			j.tap(j.seq, enc)
		}
	}
	return nil
}

// poisonErr reports the journal's sticky failure, if any.
func (j *JournaledDB) poisonErr() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.failed
}

// Insert journals and applies a segment insertion.
func (j *JournaledDB) Insert(gp int, fragment []byte) (SID, error) {
	// Validate before journaling so a bad fragment never pollutes the WAL.
	if _, err := ValidateFragment(fragment); err != nil {
		return 0, err
	}
	if err := j.append(walRecord{op: opInsert, gp: gp, l: len(fragment), frag: fragment}); err != nil {
		return 0, err
	}
	return j.DB.Insert(gp, fragment)
}

// Append journals and applies an insertion at the end of the document.
func (j *JournaledDB) Append(fragment []byte) (SID, error) {
	return j.Insert(j.DB.Len(), fragment)
}

// Remove journals and applies a range removal.
func (j *JournaledDB) Remove(gp, l int) error {
	if err := j.append(walRecord{op: opRemove, gp: gp, l: l}); err != nil {
		return err
	}
	return j.DB.Remove(gp, l)
}

// putName journals and applies a name binding.
func (j *JournaledDB) putName(name string, sid SID) error {
	if err := j.append(walRecord{op: opNamePut, sid: sid, name: name}); err != nil {
		return err
	}
	return j.DB.putName(name, sid)
}

// deleteName journals and applies a name removal.
func (j *JournaledDB) deleteName(name string, sid SID) error {
	if err := j.append(walRecord{op: opNameDel, sid: sid, name: name}); err != nil {
		return err
	}
	return j.DB.deleteName(name, sid)
}

// RemoveElementAt removes (journaled) the element starting at gp.
func (j *JournaledDB) RemoveElementAt(gp int) error {
	l, err := j.DB.ElementExtentAt(gp)
	if err != nil {
		return err
	}
	return j.Remove(gp, l)
}

// Compact folds the journal into a fresh snapshot: the covered sequence,
// the name map and the store state are written to snapshot.lxml
// (atomically, via rename), the journal is replaced by an empty one
// based at the current sequence, and the replication horizon advances to
// it — subscribers further behind must re-seed from a snapshot. The
// snapshot rename is the one commit point: before it the old snapshot
// and the whole log stand; after it the new snapshot says which of the
// log's records it already holds, whether or not the log was replaced.
func (j *JournaledDB) Compact() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.staging || len(j.pending) > 0 {
		// A snapshot taken now would fold in staged-but-unflushed ops that
		// the pending records would then replay a second time. A staged
		// commit holds cmu throughout, and the shard's Compact takes it, so
		// this only guards direct JournaledDB use.
		return fmt.Errorf("lazyxml: compact during an open group-commit batch")
	}
	// After a failed group-commit flush the in-memory state is ahead of
	// the WAL; folding it into a snapshot would make unacknowledged writes
	// durable.
	if j.failed != nil {
		return j.failed
	}
	if j.wal == nil {
		return errClosed
	}
	header := encodeSnapshotHeader(j.seq, j.DB.store.NameMap())
	if err := writeSnapshot(j.fs, j.dir, header, j.DB, j.sync); err != nil {
		return err
	}
	return j.resetLog(j.seq)
}

// writeSnapshot writes header and db's state to dir's snapshot.lxml:
// temp file, fsync, rename. With durable set the rename itself is
// fsynced too, so it is on disk before anything done after it — a log
// based above what any snapshot on disk covers must never exist.
func writeSnapshot(fs faultline.FS, dir string, header []byte, db *DB, durable bool) error {
	path := filepath.Join(dir, snapshotName)
	tmp := path + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err = f.Write(header); err == nil {
		err = db.Snapshot(f)
	}
	if err != nil {
		f.Close()
		fs.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fs.Rename(tmp, path); err != nil {
		return err
	}
	if !durable {
		return nil
	}
	return syncDir(fs, dir)
}

// Close flushes and closes the journal; the DB remains usable in memory
// but further journaled updates fail.
func (j *JournaledDB) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.wal == nil {
		return nil
	}
	err := j.wal.Sync()
	if cerr := j.wal.Close(); err == nil {
		err = cerr
	}
	j.wal = nil
	return err
}

// ValidateFragment checks that a fragment is a well-formed XML segment
// (exactly what Insert requires) and returns its element count. The
// journal uses it so a rejected fragment never reaches the WAL.
func ValidateFragment(fragment []byte) (int, error) {
	d, err := xmltree.ParseFragment(fragment)
	if err != nil {
		return 0, err
	}
	return d.Len(), nil
}
