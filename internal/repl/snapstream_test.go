package repl

import (
	"context"
	"encoding/binary"
	"net"
	"strings"
	"testing"
	"time"

	lazyxml "repro"
)

// rawFrame is one frame a scripted primary sends.
type rawFrame struct {
	typ     byte
	payload []byte
}

func snapBegin(shard int, seq, n int64) rawFrame {
	return rawFrame{TypeSnapBegin, SnapBegin{Shard: shard, Seq: seq, Len: n}.encode()}
}

func snapChunk(shard, n int) rawFrame {
	return rawFrame{TypeSnapChunk, SnapChunk{Shard: shard, Data: make([]byte, n)}.encode()}
}

// rawSnapBegin lays out a SNAPBEGIN from raw uvarints, so a test can
// send values no int64 field can hold.
func rawSnapBegin(shard, seq, n uint64) rawFrame {
	p := binary.AppendUvarint(nil, shard)
	p = binary.AppendUvarint(p, seq)
	return rawFrame{TypeSnapBegin, binary.AppendUvarint(p, n)}
}

// scriptedPrimary accepts one connection, completes the handshake as a
// one-shard primary, reads the snapshot request, sends frames and then
// holds the connection open until the test ends: a follower that wants
// more than it was sent waits, it does not see a hang-up.
func scriptedPrimary(t *testing.T, frames []rawFrame) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	held := make(chan net.Conn, 1)
	t.Cleanup(func() {
		select {
		case c := <-held:
			c.Close()
		default:
		}
	})
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		held <- conn
		if WriteFrame(conn, TypeHello, Hello{Version: Version, Shards: 1}.encode()) != nil {
			return
		}
		for i := 0; i < 2; i++ { // HELLO, then SNAPREQUEST
			if _, _, err := ReadFrame(conn); err != nil {
				return
			}
		}
		for _, fr := range frames {
			if WriteFrame(conn, fr.typ, fr.payload) != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// TestReseedRejectsMalformedSnapshotStream scripts a primary that sends
// a bad re-seed stream and never closes it. The follower must refuse at
// the bad frame itself, long before its read deadline, and install
// nothing: an over-long chunk run is not buffered up to a SNAPEND that
// may never come.
func TestReseedRejectsMalformedSnapshotStream(t *testing.T) {
	for _, tc := range []struct {
		name   string
		frames []rawFrame
		want   string
	}{
		{"chunk run past length", []rawFrame{snapBegin(0, 5, 10), snapChunk(0, 4), snapChunk(0, 4), snapChunk(0, 4), snapChunk(0, 4)}, "overruns"},
		{"one chunk past length", []rawFrame{snapBegin(0, 5, 3), snapChunk(0, 4)}, "overruns"},
		{"negative sequence", []rawFrame{rawSnapBegin(0, 1<<63, 4)}, "overflows"},
		{"negative length", []rawFrame{rawSnapBegin(0, 5, 1<<64-1)}, "overflows"},
		{"short at end", []rawFrame{snapBegin(0, 5, 10), snapChunk(0, 4), {TypeSnapEnd, SnapEnd{}.encode()}}, "truncated"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr := scriptedPrimary(t, tc.frames)
			sc, err := lazyxml.OpenShardedCollection(t.TempDir(), 1, lazyxml.LD, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer sc.Close()
			f, err := NewFollower(sc, addr, FollowerConfig{HeartbeatTimeout: 10 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() { done <- f.reseed(ctx, addr, false) }()
			select {
			case err = <-done:
			case <-time.After(2 * time.Second):
				cancel()
				<-done
				t.Fatal("follower kept reading past the bad frame")
			}
			cancel()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("reseed = %v, want an error naming %q", err, tc.want)
			}
			if seq, _ := sc.ShardJournal(0).ReplState(); seq != 0 || sc.Len() != 0 {
				t.Fatalf("a refused stream installed state: seq %d, %d documents", seq, sc.Len())
			}
		})
	}
}

// FuzzSnapshotStream drives the re-seed reassembly with arbitrary frame
// sequences. Each frame is a type byte, a uvarint payload length and
// the payload. Whatever arrives, the reassembly never panics, never
// buffers more than the transfer's announced length, and only hands
// over a snapshot exactly that long.
func FuzzSnapshotStream(f *testing.F) {
	encode := func(frames ...rawFrame) []byte {
		var b []byte
		for _, fr := range frames {
			b = append(b, fr.typ)
			b = binary.AppendUvarint(b, uint64(len(fr.payload)))
			b = append(b, fr.payload...)
		}
		return b
	}
	end := func(shard int) rawFrame { return rawFrame{TypeSnapEnd, SnapEnd{Shard: shard}.encode()} }
	done := rawFrame{TypeSnapDone, nil}
	f.Add(encode(snapBegin(0, 7, 6), snapChunk(0, 4), snapChunk(0, 2), end(0), done))
	f.Add(encode(snapBegin(0, 1, 0), end(0), snapBegin(1, 9, 3), snapChunk(1, 3), end(1), done))
	f.Add(encode(snapBegin(0, 5, 10), snapChunk(0, 4), snapChunk(0, 4), snapChunk(0, 4), end(0)))
	f.Add(encode(rawSnapBegin(0, 1<<63, 4), snapChunk(0, 4), end(0)))
	f.Add(encode(snapChunk(1, 2), end(1), done))
	f.Fuzz(func(t *testing.T, data []byte) {
		st := snapStream{shards: 2}
		for len(data) > 0 {
			typ := data[0]
			n, k := binary.Uvarint(data[1:])
			if k <= 0 || n > uint64(len(data)-1-k) {
				return
			}
			payload := data[1+k : 1+k+int(n)]
			data = data[1+k+int(n):]
			var want int64 = -1
			if st.cur != nil {
				want = st.cur.Len
			}
			_, snap, done, err := st.next(typ, payload)
			if err != nil || done {
				return // the follower drops the connection here
			}
			if st.cur != nil && int64(len(st.buf)) > st.cur.Len {
				t.Fatalf("buffered %d bytes of a %d-byte snapshot", len(st.buf), st.cur.Len)
			}
			if snap != nil && int64(len(snap.Snap)) != want {
				t.Fatalf("handed over %d bytes of a %d-byte snapshot", len(snap.Snap), want)
			}
		}
	})
}
