package faultline

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestCrashAfter pins the crash-point contract the matrix tests build
// on: operations are counted 1-based over MUTATING ops only, the nth
// fails, and the filesystem is dead afterwards — reads included — while
// Close still works.
func TestCrashAfter(t *testing.T) {
	dir := t.TempDir()
	f := NewFaultFS(nil)

	// Reads and opens do not count toward the crash point.
	if err := f.WriteFile(filepath.Join(dir, "a"), []byte("one"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadFile(filepath.Join(dir, "a")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Stat(filepath.Join(dir, "a")); err != nil {
		t.Fatal(err)
	}
	if got := f.Mutations(); got != 1 {
		t.Fatalf("Mutations = %d after one WriteFile and two reads, want 1", got)
	}

	// Arm: the second mutating op from now fails.
	f.CrashAfter(f.Mutations() + 2)
	if err := f.WriteFile(filepath.Join(dir, "b"), []byte("two"), 0o644); err != nil {
		t.Fatalf("op before the crash point failed: %v", err)
	}
	err := f.WriteFile(filepath.Join(dir, "c"), []byte("three"), 0o644)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("crash-point op = %v, want ErrInjected", err)
	}
	if !f.Crashed() {
		t.Fatal("Crashed() false after the crash point fired")
	}
	// Dead process: nothing works anymore, not even reads.
	if _, err := f.ReadFile(filepath.Join(dir, "a")); !errors.Is(err, ErrInjected) {
		t.Fatalf("read after crash = %v, want ErrInjected", err)
	}
	if err := f.Rename(filepath.Join(dir, "a"), filepath.Join(dir, "z")); !errors.Is(err, ErrInjected) {
		t.Fatalf("rename after crash = %v, want ErrInjected", err)
	}
	// The bytes already on disk survive for the next (clean) open.
	if data, err := os.ReadFile(filepath.Join(dir, "b")); err != nil || string(data) != "two" {
		t.Fatalf("pre-crash write lost: %q, %v", data, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "c")); !os.IsNotExist(err) {
		t.Fatalf("crashed WriteFile left the file behind: %v", err)
	}
}

// TestCrashAfterFileHandle walks the handle path: Write and Sync through
// an open File count as mutations and hit the crash point, Close always
// passes through.
func TestCrashAfterFileHandle(t *testing.T) {
	dir := t.TempDir()
	f := NewFaultFS(nil)
	fl, err := f.Create(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	// create=1; arm so the sync after the next write fails.
	f.CrashAfter(f.Mutations() + 2)
	if _, err := fl.Write([]byte("record-1")); err != nil {
		t.Fatal(err)
	}
	if err := fl.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("sync at the crash point = %v, want ErrInjected", err)
	}
	if _, err := fl.Write([]byte("record-2")); !errors.Is(err, ErrInjected) {
		t.Fatalf("write after crash = %v, want ErrInjected", err)
	}
	if err := fl.Close(); err != nil {
		t.Fatalf("Close must pass through even after a crash: %v", err)
	}
	if data, _ := os.ReadFile(filepath.Join(dir, "wal")); string(data) != "record-1" {
		t.Fatalf("surviving bytes = %q, want the pre-crash record", data)
	}
}

// TestTornWrites: at the crash point a Write persists roughly half its
// bytes — the torn tail the WAL's checksums must catch on reopen.
func TestTornWrites(t *testing.T) {
	dir := t.TempDir()
	f := NewFaultFS(nil)
	f.TornWrites()
	fl, err := f.Create(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	f.CrashAfter(f.Mutations() + 1)
	payload := []byte("0123456789")
	n, err := fl.Write(payload)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("torn write = %v, want ErrInjected", err)
	}
	if n != len(payload)/2 {
		t.Fatalf("torn write persisted %d bytes, want half (%d)", n, len(payload)/2)
	}
	fl.Close()
	if data, _ := os.ReadFile(filepath.Join(dir, "wal")); string(data) != "01234" {
		t.Fatalf("on disk after tear: %q, want the first half", data)
	}
}

// TestFailOp: a targeted fault fires on the (skip+1)-th matching call
// only, does not execute the operation, and does not kill the FS.
func TestFailOp(t *testing.T) {
	dir := t.TempDir()
	f := NewFaultFS(nil)
	boom := errors.New("disk full")
	f.FailOp(OpWriteFile, "target", boom, 1) // skip one matching call

	other := filepath.Join(dir, "other")
	target := filepath.Join(dir, "target")
	if err := f.WriteFile(other, []byte("x"), 0o644); err != nil {
		t.Fatalf("non-matching path failed: %v", err)
	}
	// Only the file name is matched: a directory named after the target
	// (a test's temp dir carries the subtest name) neither fires the fault
	// nor uses up its skip count.
	inside := filepath.Join(dir, "target.d", "other")
	if err := os.Mkdir(filepath.Dir(inside), 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := f.WriteFile(inside, []byte("x"), 0o644); err != nil {
			t.Fatalf("file under a directory named like the target failed: %v", err)
		}
	}
	if err := f.WriteFile(target, []byte("x"), 0o644); err != nil {
		t.Fatalf("skipped call failed: %v", err)
	}
	if err := f.WriteFile(target, []byte("y"), 0o644); !errors.Is(err, boom) {
		t.Fatalf("targeted call = %v, want the injected error", err)
	}
	// Fires once: the next matching call goes through, FS is alive.
	if err := f.WriteFile(target, []byte("z"), 0o644); err != nil {
		t.Fatalf("call after the one-shot fault failed: %v", err)
	}
	if f.Crashed() {
		t.Fatal("a targeted fault must not crash the filesystem")
	}
	if data, _ := os.ReadFile(target); string(data) != "z" {
		t.Fatalf("target holds %q, want the last successful write", data)
	}
}

// TestConnCutAfter: the wrapped connection lets exactly N bytes through,
// then closes mid-stream — the peer reads the prefix and then EOF.
func TestConnCutAfter(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	c := WrapConn(client)
	c.CutAfter(5)

	got := make(chan []byte, 1)
	go func() {
		buf := make([]byte, 64)
		total := 0
		for {
			server.SetReadDeadline(time.Now().Add(5 * time.Second))
			n, err := server.Read(buf[total:])
			total += n
			if err != nil {
				got <- buf[:total]
				return
			}
		}
	}()

	n, err := c.Write([]byte("0123456789"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("cut write = %v, want ErrInjected", err)
	}
	if n != 5 {
		t.Fatalf("cut write passed %d bytes, want 5", n)
	}
	if peer := <-got; string(peer) != "01234" {
		t.Fatalf("peer received %q, want the 5-byte prefix", peer)
	}
	// The connection is closed: further writes fail immediately.
	if _, err := c.Write([]byte("more")); err == nil {
		t.Fatal("write on a cut connection succeeded")
	}
}

// TestConnPassThroughAndSever: an unarmed Conn is transparent; Sever
// drops the stream at once.
func TestConnPassThroughAndSever(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	c := WrapConn(client)

	go func() {
		buf := make([]byte, 5)
		server.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := server.Read(buf); err == nil {
			server.Write(buf) // echo
		}
	}()
	if _, err := c.Write([]byte("hello")); err != nil {
		t.Fatalf("pass-through write: %v", err)
	}
	buf := make([]byte, 5)
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Read(buf); err != nil || string(buf) != "hello" {
		t.Fatalf("pass-through read = %q, %v", buf, err)
	}
	if err := c.Sever(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write([]byte("dead")); err == nil {
		t.Fatal("write after Sever succeeded")
	}
}

// TestListenerWrap: every accepted connection is observed by Wrap, and
// the faults it arms apply to that connection's stream.
func TestListenerWrap(t *testing.T) {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wrapped := 0
	ln := &Listener{Listener: raw, Wrap: func(c *Conn) net.Conn {
		wrapped++
		c.CutAfter(3)
		return c
	}}
	defer ln.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		conn.Write([]byte("0123456789")) // cut after 3
	}()

	client, err := net.Dial("tcp", raw.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	buf := make([]byte, 64)
	total := 0
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		n, err := client.Read(buf[total:])
		total += n
		if err != nil {
			break
		}
	}
	<-done
	if wrapped != 1 {
		t.Fatalf("Wrap observed %d connections, want 1", wrapped)
	}
	if string(buf[:total]) != "012" {
		t.Fatalf("client received %q through the cut listener, want \"012\"", buf[:total])
	}
}
