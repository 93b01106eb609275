package repl

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func roundTrip(t *testing.T, typ byte, payload []byte) (byte, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, typ, payload); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	gtyp, gp, err := ReadFrame(&buf)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	return gtyp, gp
}

func TestReplFrameRoundTrip(t *testing.T) {
	hello := Hello{Version: Version, Shards: 4, Epoch: 3, Depth: 2}
	typ, p := roundTrip(t, TypeHello, hello.encode())
	if typ != TypeHello {
		t.Fatalf("type = %d", typ)
	}
	if got, err := decodeHello(p); err != nil || got != hello {
		t.Fatalf("hello = %+v, %v", got, err)
	}

	positions := []int64{7, 0, 1 << 40}
	_, p = roundTrip(t, TypeSubscribe, encodePositions(nil, positions))
	got, err := decodeSubscribe(p)
	if err != nil || len(got) != len(positions) {
		t.Fatalf("subscribe = %v, %v", got, err)
	}
	for i := range got {
		if got[i] != positions[i] {
			t.Fatalf("position %d = %+v, want %+v", i, got[i], positions[i])
		}
	}

	hb := Heartbeat{UnixMillis: 1722800000000, Positions: positions}
	_, p = roundTrip(t, TypeHeartbeat, hb.encode())
	ghb, err := decodeHeartbeat(p)
	if err != nil || ghb.UnixMillis != hb.UnixMillis || len(ghb.Positions) != 3 {
		t.Fatalf("heartbeat = %+v, %v", ghb, err)
	}

	ef := ErrorFrame{Code: ErrCodeSnapshot, Msg: "re-seed"}
	_, p = roundTrip(t, TypeError, ef.encode())
	if gef, err := decodeError(p); err != nil || gef != ef {
		t.Fatalf("error = %+v, %v", gef, err)
	}
}

func TestReplFrameTorn(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, TypeHeartbeat, Heartbeat{UnixMillis: 1}.encode()); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	// Cut the frame mid-payload: a read must fail loudly, not hand back
	// a short frame.
	_, _, err := ReadFrame(bytes.NewReader(whole[:len(whole)-1]))
	if err == nil || !strings.Contains(err.Error(), "torn frame") {
		t.Fatalf("torn payload: err = %v", err)
	}
	// Cut mid-header: plain io error (the peer hung up between frames).
	_, _, err = ReadFrame(bytes.NewReader(whole[:2]))
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("torn header: err = %v", err)
	}
	// A zero length is a protocol violation.
	_, _, err = ReadFrame(bytes.NewReader([]byte{0, 0, 0, 0}))
	if err == nil || !strings.Contains(err.Error(), "bad frame length") {
		t.Fatalf("zero length: err = %v", err)
	}
	// An absurd length is refused before any allocation.
	_, _, err = ReadFrame(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff}))
	if err == nil || !strings.Contains(err.Error(), "bad frame length") {
		t.Fatalf("oversize length: err = %v", err)
	}
}

func TestReplFrameCorruptPayloads(t *testing.T) {
	if _, err := decodeHello([]byte("XXXX\x01\x00")); err == nil {
		t.Fatal("bad hello magic accepted")
	}
	if _, err := decodeHello([]byte("LX")); err == nil {
		t.Fatal("truncated hello accepted")
	}
	if _, err := decodeSubscribe([]byte{2, 1}); err == nil {
		t.Fatal("truncated subscribe accepted")
	}
	sub := encodePositions(nil, []int64{1})
	if _, err := decodeSubscribe(append(sub, 0)); err == nil {
		t.Fatal("trailing bytes in subscribe accepted")
	}
	if _, err := decodeRecordBatch([]byte{0}); err == nil {
		t.Fatal("truncated record batch accepted")
	}
	// A HELLO of any other version decodes to its number alone, whatever
	// follows it — the refusal is by version, not by a parse error.
	for _, old := range [][]byte{
		append([]byte(helloMagic), 1, 2),       // v1: version, shards
		append([]byte(helloMagic), 5, 2, 0, 0), // v5: + epoch, depth
		append([]byte(helloMagic), 6, 2, 0, 0), // v6: records of one op each
		append([]byte(helloMagic), 8, 9, 9, 9, 9, 9),
	} {
		if h, err := decodeHello(old); err != nil || h.Version == Version {
			t.Fatalf("foreign-version hello % x = %+v, %v", old, h, err)
		}
	}
}

func TestReplRing(t *testing.T) {
	r := newRing(4)
	for s := int64(1); s <= 10; s++ {
		r.add(s, []byte{byte(s)})
	}
	// Window is (6, 10]: from=5 fell out.
	if _, ok := r.from(5, 10, 100); ok {
		t.Fatal("ring claims to cover an evicted position")
	}
	recs, ok := r.from(6, 10, 100)
	if !ok || len(recs) != 4 || recs[0].Seq != 7 || recs[3].Seq != 10 {
		t.Fatalf("from(6,10) = %v ok=%v", recs, ok)
	}
	// target clamps the window, max clamps the batch.
	recs, _ = r.from(6, 8, 100)
	if len(recs) != 2 || recs[1].Seq != 8 {
		t.Fatalf("from(6,8) = %v", recs)
	}
	recs, _ = r.from(6, 10, 1)
	if len(recs) != 1 || recs[0].Seq != 7 {
		t.Fatalf("from(6,10,max=1) = %v", recs)
	}
	// caught up: covered, empty.
	if recs, ok := r.from(10, 10, 100); !ok || len(recs) != 0 {
		t.Fatalf("caught up = %v ok=%v", recs, ok)
	}
	// A gap resets the window instead of serving a hole.
	r.add(20, []byte{20})
	if _, ok := r.from(9, 20, 100); ok {
		t.Fatal("ring claims to cover across a sequence gap")
	}
	if recs, ok := r.from(19, 20, 100); !ok || len(recs) != 1 || recs[0].Seq != 20 {
		t.Fatalf("post-gap from(19,20) = %v ok=%v", recs, ok)
	}
}
