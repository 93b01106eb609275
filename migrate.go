package lazyxml

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
)

// migrateTwoLogLayout converts, once, a directory written before the two
// logs merged — segment records in a headerless journal.wal counted from
// journal.seq, name records in docs.wal counted from docs.seq, the name
// map in docs.snap, a bare store snapshot in snapshot.lxml — into the
// one-log layout. It reads the old files through the old decoders (this
// function is the only place they survive), writes one snapshot covering
// sequence old seq + old docSeq, and removes every old file; OpenJournal
// then finds a snapshot and no log and starts a fresh one based at the
// covered sequence, so a follower at an old position re-seeds.
//
// The snapshot rename is the commit point. Before it nothing old was
// touched and a re-run starts over; after it snapshot.lxml leads with
// the new magic and a re-run only finishes the removals.
func (j *JournaledDB) migrateTwoLogLayout(mode Mode, dbOpts []Option) error {
	const (
		docsWAL, docsSnap, docsSeq, journalSeq = "docs.wal", "docs.snap", "docs.seq", "journal.seq"
		docsMagic, seqMagic                    = "LXDC1", "LXSQ1"
	)
	at := func(name string) string { return filepath.Join(j.dir, name) }
	// head returns a file's first n bytes (fewer when it is shorter) and
	// whether it exists.
	head := func(name string, n int) (string, bool) {
		f, err := j.fs.Open(at(name))
		if err != nil {
			return "", false
		}
		defer f.Close()
		buf := make([]byte, n)
		n, _ = f.Read(buf)
		return string(buf[:n]), true
	}
	snapHead, haveSnap := head(snapshotName, len(snapshotMagic))
	logHead, haveLog := head(journalName, 1)
	newSnap := snapHead == snapshotMagic
	// The old log had no header: it is empty or starts with a segment op.
	oldLog := haveLog && (logHead == "" || logHead[0] == opInsert || logHead[0] == opRemove)
	old := haveSnap && !newSnap || oldLog
	for _, name := range []string{docsWAL, docsSnap, docsSeq, journalSeq} {
		if _, err := j.fs.Stat(at(name)); err == nil {
			old = true
		}
	}
	if !old {
		return nil
	}

	if !newSnap {
		// readFile reads an old file whole; absent reads as empty.
		readFile := func(name string) ([]byte, error) {
			raw, err := j.fs.ReadFile(at(name))
			if errors.Is(err, os.ErrNotExist) {
				return nil, nil
			}
			return raw, err
		}
		// base reads a sequence meta file; absent means zero.
		base := func(name string) (b int64, err error) {
			raw, err := readFile(name)
			if err != nil || raw == nil {
				return 0, err
			}
			if _, err := fmt.Sscanf(string(raw), seqMagic+" %d", &b); err != nil || b < 0 {
				return 0, fmt.Errorf("lazyxml: corrupt %s: %q", name, strings.TrimSpace(string(raw)))
			}
			return b, nil
		}
		// The store: the bare snapshot, then every clean segment record.
		db := Open(mode, dbOpts...)
		if haveSnap {
			f, err := j.fs.Open(at(snapshotName))
			if err != nil {
				return err
			}
			db, err = Restore(bufio.NewReader(f), dbOpts...)
			f.Close()
			if err != nil {
				return fmt.Errorf("lazyxml: migrating %s: %w", at(snapshotName), err)
			}
		}
		seq, err := base(journalSeq)
		if err != nil {
			return err
		}
		if haveLog {
			f, err := j.fs.Open(at(journalName))
			if err != nil {
				return err
			}
			defer f.Close()
			for br := bufio.NewReader(f); ; seq++ {
				rec, _, rerr := readRecord(br)
				if rerr != nil || rec.op > opRemove {
					break // clean end or torn tail
				}
				if rec.op == opInsert {
					_, err = db.Insert(rec.gp, rec.frag)
				} else {
					err = db.Remove(rec.gp, rec.l)
				}
				if err != nil {
					return fmt.Errorf("lazyxml: migrating %s: replaying record %d: %w", at(journalName), seq+1, err)
				}
			}
		}

		// The names: docs.snap's map (magic, count, entries, crc32), then
		// every clean docs.wal record (op 1 put / 2 delete, entry, crc32).
		// Both are made of the name entries the new layout kept.
		docs := map[string]SID{}
		raw, err := readFile(docsSnap)
		if err != nil {
			return err
		}
		if raw != nil {
			bad := fmt.Errorf("lazyxml: migrating %s: corrupt name snapshot", at(docsSnap))
			if !strings.HasPrefix(string(raw), docsMagic) {
				return bad
			}
			r := bytes.NewReader(raw[len(docsMagic):])
			count, err := binary.ReadUvarint(r)
			for ; err == nil && count > 0; count-- {
				var sid SID
				var name string
				sid, name, err = readNameEntry(r)
				docs[name] = sid
			}
			body := raw[:len(raw)-r.Len()]
			if sum, serr := binary.ReadUvarint(r); err != nil || serr != nil || uint32(sum) != crc32.ChecksumIEEE(body) {
				return bad
			}
		}
		docSeq, err := base(docsSeq)
		if err != nil {
			return err
		}
		if raw, err = readFile(docsWAL); err != nil {
			return err
		}
		for r := bytes.NewReader(raw); ; docSeq++ {
			start := len(raw) - r.Len()
			op, _ := r.ReadByte()
			sid, name, err := readNameEntry(r)
			payload := raw[start : len(raw)-r.Len()]
			sum, serr := binary.ReadUvarint(r)
			if op != 1 && op != 2 || err != nil || serr != nil || uint32(sum) != crc32.ChecksumIEEE(payload) {
				break // clean end or torn tail
			}
			if op == 1 {
				docs[name] = sid
			} else {
				delete(docs, name)
			}
		}

		if err := writeSnapshot(j.fs, j.dir, encodeSnapshotHeader(seq+docSeq, docs), db, j.sync); err != nil {
			return err
		}
	}

	stale := []string{docsWAL, docsSnap, docsSeq, journalSeq}
	if oldLog {
		stale = append(stale, journalName)
	}
	for _, name := range stale {
		if err := j.fs.Remove(at(name)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	return nil
}
