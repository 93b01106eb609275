package lazyxml

// Replication support on the journal layer. The write-ahead journal is
// already a logical log of typed records — (op, gp, fragment) for segment
// updates, (op, sid, name) for name changes — exactly what a replica
// needs to reconstruct the super document and its name map without
// rebuilding the element index, so replication is WAL shipping: every
// append gets a monotonic per-shard sequence number, a follower resumes
// from the last sequence it durably applied, and the encoded record
// bytes themselves are the unit shipped (see internal/repl for the
// framing). One log, one sequence: a name record follows the segment
// record it refers to in the same stream, so shipping the stream in
// order never delivers a dangling name.
//
// Compaction moves the horizon. Compact folds the WAL into a snapshot
// and replaces it with an empty log based at the current sequence; the
// records below the new base are gone, and a subscriber behind it must
// re-seed from a snapshot rather than the log. The base lives in the log
// file's own header, so sequences survive restarts with no side file.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"path/filepath"
)

// ErrCompacted reports a replication read below the journal's horizon:
// the requested records were folded into a snapshot and no longer exist
// as log records. The subscriber must re-seed from a snapshot.
var ErrCompacted = errors.New("lazyxml: records compacted away; re-seed from a snapshot")

// ReplRecord is one journal record as shipped to a replica: its
// sequence number and its encoded bytes, byte-identical to the record
// in the WAL file.
type ReplRecord struct {
	Seq  int64
	Data []byte
}

// JournalCursor tracks a reader's position in the journal: Seq is the
// last sequence delivered (the next read returns Seq+1). The private
// fields cache the byte offset so sequential reads never rescan the
// file; a compaction invalidates the cache and the next read
// repositions by scanning.
type JournalCursor struct {
	Seq  int64
	off  int64
	base int64
	init bool
}

// ReplState returns the journal's current sequence (the last record
// ever appended) and its horizon (the lowest sequence a subscriber may
// resume from).
func (j *JournaledDB) ReplState() (seq, horizon int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq, j.base
}

// SetReplTap installs a callback invoked synchronously — in sequence
// order — after every durable journal append, and returns the sequence
// current at installation: records at or below it must be read from the
// WAL, records above it will reach the tap.
func (j *JournaledDB) SetReplTap(fn func(seq int64, rec []byte)) int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.tap = fn
	return j.seq
}

// ReadRecords reads up to max records after cur.Seq from the on-disk
// WAL, advancing the cursor. It returns nil, nil when the cursor is
// caught up, and ErrCompacted when the cursor fell behind the horizon.
// Records are returned with their exact WAL encoding.
func (j *JournaledDB) ReadRecords(cur *JournalCursor, max int) ([]ReplRecord, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if cur.Seq < j.base {
		return nil, ErrCompacted
	}
	if cur.Seq >= j.seq || max <= 0 {
		return nil, nil
	}
	f, err := j.fs.Open(filepath.Join(j.dir, journalName))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// Seek to the cached offset or, after a compaction or on a fresh
	// cursor, rescan from the header so the next record read is cur.Seq+1.
	skip := int64(0)
	if !cur.init || cur.base != j.base {
		cur.init, cur.base, cur.off = true, j.base, int64(logHeaderLen)
		skip = cur.Seq - j.base
	}
	if _, err := f.Seek(cur.off, io.SeekStart); err != nil {
		return nil, err
	}
	br := bufio.NewReader(f)
	out := make([]ReplRecord, 0, max)
	for len(out) < max && cur.Seq < j.seq {
		_, enc, err := readRecord(br)
		if err != nil {
			return nil, fmt.Errorf("lazyxml: journal ends before sequence %d: %v", cur.Seq+1, err)
		}
		cur.off += int64(len(enc))
		if skip > 0 {
			skip--
			continue
		}
		cur.Seq++
		out = append(out, ReplRecord{Seq: cur.Seq, Data: enc})
	}
	return out, nil
}

// applyRecords decodes a contiguous run of replicated records and
// applies it through the shard's own journal, so every record lands in
// the replica's WAL byte-identical and the replica's sequence advances
// in lockstep. A run of several is one staged commit: every record
// applies in order while its WAL encoding stages in memory, then the
// whole run lands with a single write and a single fsync, and one MVCC
// generation publishes for it — catch-up over N records pays one fsync,
// not N. On a mid-run apply error the applied prefix is still flushed —
// memory and WAL stay in step — and the error is returned. It returns
// the local sequence after the last applied record; a mismatch with the
// primary's means the streams diverged.
func (sh *shard) applyRecords(datas [][]byte) (int64, error) {
	recs := make([]walRecord, len(datas))
	for i, data := range datas {
		var err error
		if recs[i], err = decodeRecord(data); err != nil {
			return 0, fmt.Errorf("lazyxml: bad replicated record: %v", err)
		}
	}
	var err error
	run := func() {
		for _, rec := range recs {
			if err = sh.applyRecord(rec); err != nil {
				return
			}
		}
	}
	if len(recs) > 1 {
		if _, ferr := sh.stagedCommit(run); ferr != nil {
			return 0, ferr
		}
	} else {
		run()
	}
	if err != nil {
		return 0, err
	}
	seq, _ := sh.j.ReplState()
	return seq, nil
}

// applyRecord lands one decoded record in memory and in the journal
// through the engine, as the primary's shard did. The shard read lock
// puts the apply on the same side of captureSnapshot's write lock as
// every other mutation, so a re-seed capture on a cascading follower is
// still a consistent cut.
func (sh *shard) applyRecord(rec walRecord) error {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	var err error
	switch rec.op {
	case opInsert:
		_, err = sh.j.Insert(rec.gp, rec.frag)
	case opRemove:
		err = sh.j.Remove(rec.gp, rec.l)
	case opNamePut:
		err = sh.j.putName(rec.name, rec.sid)
	case opNameDel:
		err = sh.j.deleteName(rec.name, rec.sid)
	}
	return err
}

// ApplyRecords applies a contiguous run of replicated records to shard i
// (see shard.applyRecords). The shard's store holds the names, so a
// replicated document is reachable through the sharded surface as soon
// as its name record applies.
func (sc *ShardedCollection) ApplyRecords(i int, datas [][]byte) (int64, error) {
	sh, err := sc.journaledShard(i)
	if err != nil {
		return 0, err
	}
	return sh.applyRecords(datas)
}

// footprint reports the records currently sitting in the WAL file and
// their on-disk bytes — the denominator a compaction policy and a
// replication-lag readout need.
func (j *JournaledDB) footprint() (records, bytes int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if fi, err := j.fs.Stat(filepath.Join(j.dir, journalName)); err == nil {
		bytes = fi.Size() - int64(logHeaderLen)
	}
	return j.seq - j.base, bytes
}
