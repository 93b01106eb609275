package lazyxml

// Snapshot re-seed: how a follower that fell below the compaction
// horizon gets a new base. The records it needs were folded into the
// primary's snapshot and no longer exist as log records, so the primary
// serves the snapshot itself — the store state and name map captured at
// a known sequence, in snapshot.lxml's own encoding — and the follower
// installs it atomically in place of the stale shard, then resumes the
// record stream from the sequence the snapshot covers.
//
// Capture happens from the live in-memory state under the collection's
// write lock, never from the on-disk snapshot file: that file is only as
// new as the last Compact, and a re-seeded follower has no WAL to fill
// the gap with. A live capture costs one buffered snapshot encode.
//
// Install is a staged directory swap. The follower writes the incoming
// snapshot into <shard>.reseed/, marks it complete (reseed.ready), and
// only then swaps: shard → <shard>.reseed-old, staging → shard, marker
// removed, old removed. The reopened shard finds a snapshot and no log,
// and starts a fresh one based at the covered sequence. recoverReseed
// replays the swap on open, so a kill at any step either rolls it
// forward (marker present: staging was complete) or discards the partial
// staging — never a half-installed shard.

import (
	"bytes"
	"fmt"
	"path/filepath"

	"repro/internal/faultline"
)

const (
	reseedStagingSuffix = ".reseed"
	reseedOldSuffix     = ".reseed-old"
	reseedMarkerName    = "reseed.ready"
)

// ShardSnapshot is one shard's re-seed payload: a complete snapshot file
// (covered sequence, name map, store state) and the sequence it covers —
// the position the follower resumes the record stream from.
type ShardSnapshot struct {
	Seq  int64
	Snap []byte // snapshot.lxml encoding
}

// CaptureSnapshot renders the collection's current state as a re-seed
// payload. It holds the collection write lock, so the snapshot is a
// single consistent cut: every name in it refers to a segment in it, and
// streaming records after Seq reconstructs the primary exactly.
func (jc *JournaledCollection) CaptureSnapshot() (*ShardSnapshot, error) {
	jc.cmu.Lock()
	defer jc.cmu.Unlock()
	// A poisoned shard's memory is ahead of its WAL; a re-seed captured
	// from it would propagate unacknowledged writes.
	if err := jc.j.poisonErr(); err != nil {
		return nil, err
	}
	jc.mu.Lock()
	defer jc.mu.Unlock()
	seq, _ := jc.j.ReplState()
	snap := bytes.NewBuffer(encodeSnapshotHeader(seq, jc.db.store.NameMap()))
	if err := jc.db.Snapshot(snap); err != nil {
		return nil, err
	}
	return &ShardSnapshot{Seq: seq, Snap: snap.Bytes()}, nil
}

// CaptureShardSnapshot captures shard i's re-seed payload.
func (sc *ShardedCollection) CaptureShardSnapshot(i int) (*ShardSnapshot, error) {
	jc := sc.ShardJournal(i)
	if jc == nil {
		return nil, fmt.Errorf("lazyxml: no journaled shard %d", i)
	}
	return jc.CaptureSnapshot()
}

// InstallReseed replaces shard i's on-disk state with the snapshot and
// reopens it. The old shard directory is gone afterwards — the
// follower's own journal history below the snapshot is exactly what the
// horizon already made unreachable. Safe against a kill at any point:
// the swap is staged and recoverReseed finishes or discards it on the
// next open.
func (sc *ShardedCollection) InstallReseed(i int, snap *ShardSnapshot) error {
	if !sc.IsDurable() {
		return fmt.Errorf("lazyxml: re-seed requires a durable collection")
	}
	if i < 0 || i >= len(sc.shards) {
		return fmt.Errorf("lazyxml: no shard %d", i)
	}
	sdir := sc.shardDir(i)
	staging := sdir + reseedStagingSuffix
	old := sdir + reseedOldSuffix
	fs := sc.fs

	// Stage: a complete shard directory next to the real one. The
	// marker is written last, so its presence certifies every data file
	// before it landed in full.
	if err := fs.RemoveAll(staging); err != nil {
		return err
	}
	if err := fs.MkdirAll(staging, 0o755); err != nil {
		return err
	}
	if err := fs.WriteFile(filepath.Join(staging, snapshotName), snap.Snap, 0o644); err != nil {
		return err
	}
	if sdir == sc.dir {
		// Single-shard layout: the shard directory is the collection
		// root, so the epoch rides along or the swap would lose it.
		if err := writeEpoch(fs, staging, sc.Epoch()); err != nil {
			return err
		}
	}
	if err := fs.WriteFile(filepath.Join(staging, reseedMarkerName), []byte("ok\n"), 0o644); err != nil {
		return err
	}

	// Swap. The old shard's journal is closed first; a kill between
	// any two steps is recovered on the next open.
	sc.mu.Lock()
	oldJC := sc.jcs[i]
	sc.mu.Unlock()
	if oldJC != nil {
		if err := oldJC.Close(); err != nil {
			return err
		}
		// The old store is being replaced wholesale: unpublish its view so
		// no later acquisition resurrects pre-re-seed state. Outstanding
		// view holders keep their snapshot until they Release — they pin
		// memory, never correctness — while new readers route to the fresh
		// store the swap installs below.
		oldJC.DB().Store().InvalidateViews()
	}
	if err := fs.RemoveAll(old); err != nil {
		return err
	}
	if err := fs.Rename(sdir, old); err != nil {
		return err
	}
	if err := fs.Rename(staging, sdir); err != nil {
		return err
	}
	if err := fs.Remove(filepath.Join(sdir, reseedMarkerName)); err != nil {
		return err
	}
	if err := fs.RemoveAll(old); err != nil {
		return err
	}

	jc, err := OpenJournaledCollection(sdir, sc.mode, sc.dbOpts, sc.jOpts...)
	if err != nil {
		return fmt.Errorf("lazyxml: reopening re-seeded shard %d: %w", i, err)
	}
	sc.mu.Lock()
	sc.shards[i] = jc
	sc.jcs[i] = jc
	qp := sc.planner
	sc.mu.Unlock()
	if qp != nil {
		// The re-seeded shard is a fresh store with a fresh identity; the
		// old shard's cache entries are unreachable by key and age out.
		jc.EnablePlanner(qp)
	}
	return nil
}

// recoverReseed finishes or discards an interrupted re-seed swap before
// a shard directory is opened. The marker file is the commit point:
// staging with a marker rolls forward, staging without one is torn and
// discarded, a renamed-away shard with no complete staging rolls back.
func recoverReseed(fs faultline.FS, sdir string) error {
	staging := sdir + reseedStagingSuffix
	old := sdir + reseedOldSuffix
	exists := func(p string) bool { _, err := fs.Stat(p); return err == nil }

	if exists(filepath.Join(sdir, reseedMarkerName)) {
		// Killed after the staging dir became the shard: finish up.
		if err := fs.Remove(filepath.Join(sdir, reseedMarkerName)); err != nil {
			return err
		}
		return fs.RemoveAll(old)
	}
	if exists(filepath.Join(staging, reseedMarkerName)) {
		if !exists(sdir) {
			// Killed mid-swap with a complete staging: roll forward.
			if err := fs.Rename(staging, sdir); err != nil {
				return err
			}
			if err := fs.Remove(filepath.Join(sdir, reseedMarkerName)); err != nil {
				return err
			}
			return fs.RemoveAll(old)
		}
		// Complete staging but the swap never started: discard it; the
		// follower will request a fresh re-seed if it still needs one.
		return fs.RemoveAll(staging)
	}
	if exists(staging) {
		// Torn staging (no marker): discard.
		if err := fs.RemoveAll(staging); err != nil {
			return err
		}
	}
	if !exists(sdir) && exists(old) {
		// Shard renamed away but nothing complete to replace it: the
		// old state is still the real state.
		return fs.Rename(old, sdir)
	}
	return fs.RemoveAll(old)
}
