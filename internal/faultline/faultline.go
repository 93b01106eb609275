// Package faultline is the injectable fault layer of the durability and
// replication stacks. The journal code performs every file operation
// through the FS interface and the replication tests wrap connections in
// Conn, so a test can make exactly one fsync fail, tear exactly one
// write in half, kill the "process" after the Nth I/O operation, or cut
// a TCP stream mid-frame — deterministically, without root privileges or
// loop devices.
//
// The package deliberately models only what the stack above can react
// to: call-site errors, short writes and total loss of the process or
// the peer. It cannot simulate firmware-level reordering (a sector
// persisted out of write order despite an acknowledged fsync) or silent
// bit rot after a clean write — those need checksums at read time, which
// the WAL record format provides independently.
package faultline

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// ErrInjected is the error every injected fault returns, wrapped with
// the operation and path it hit, so tests can tell an injected failure
// from a real one.
var ErrInjected = errors.New("faultline: injected fault")

// File is the slice of *os.File the journal layer uses.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	Sync() error
	Truncate(size int64) error
}

// FS is the filesystem surface of the durability stack: every call the
// journal, the snapshot writer and the seq-meta persistence make. The
// operation names in fault specs match the method names, lowercased.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Open(name string) (File, error)
	Create(name string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	RemoveAll(path string) error
	Truncate(name string, size int64) error
	MkdirAll(path string, perm os.FileMode) error
	Stat(name string) (fs.FileInfo, error)
	ReadFile(name string) ([]byte, error)
	WriteFile(name string, data []byte, perm os.FileMode) error
	ReadDir(name string) ([]fs.DirEntry, error)
}

// OS is the real filesystem: the default FS everywhere.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) Open(name string) (File, error)         { return os.Open(name) }
func (osFS) Create(name string) (File, error)       { return os.Create(name) }
func (osFS) Rename(o, n string) error               { return os.Rename(o, n) }
func (osFS) Remove(name string) error               { return os.Remove(name) }
func (osFS) RemoveAll(path string) error            { return os.RemoveAll(path) }
func (osFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }
func (osFS) MkdirAll(path string, perm os.FileMode) error {
	return os.MkdirAll(path, perm)
}
func (osFS) Stat(name string) (fs.FileInfo, error) { return os.Stat(name) }
func (osFS) ReadFile(name string) ([]byte, error)  { return os.ReadFile(name) }
func (osFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	return os.WriteFile(name, data, perm)
}
func (osFS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }

// Mutating operations, in the vocabulary fault specs use. Read-only
// operations (open, stat, readfile) never count toward CrashAfter but do
// fail once the filesystem has "crashed" — a dead process reads nothing.
const (
	OpOpenFile  = "openfile"
	OpOpen      = "open"
	OpCreate    = "create"
	OpRename    = "rename"
	OpRemove    = "remove"
	OpTruncate  = "truncate"
	OpMkdirAll  = "mkdirall"
	OpStat      = "stat"
	OpReadFile  = "readfile"
	OpWriteFile = "writefile"
	OpReadDir   = "readdir"
	OpWrite     = "write" // File.Write through a handle
	OpSync      = "sync"  // File.Sync through a handle
)

// mutating reports whether an operation changes the disk — the ops a
// crash-point matrix walks.
func mutating(op string) bool {
	switch op {
	case OpCreate, OpRename, OpRemove, OpTruncate, OpWriteFile, OpWrite, OpSync:
		return true
	}
	return false
}

// FaultFS wraps an FS with a deterministic fault plan. Three mechanisms
// compose:
//
//   - CrashAfter(n): the first n-1 mutating operations succeed, the nth
//     fails, and every operation after it — reads included — fails too.
//     The simulated process is dead; only the bytes already on disk
//     survive for the next open (which uses a fresh, clean FS).
//   - TornWrites(): at the crash point, a File.Write persists roughly
//     half its bytes before failing — the classic torn tail.
//   - FailOp(op, substr, err, n): the nth call of op whose file name (the
//     path's last element) contains substr returns err without executing —
//     a local fault the caller is expected to surface, not a crash.
//
// All methods are safe for concurrent use.
type FaultFS struct {
	inner FS

	mu         sync.Mutex
	muts       int64 // mutating operations attempted so far
	crashAfter int64 // 0 = disabled; the crashAfter-th mutating op fails
	torn       bool
	crashed    bool
	faults     []*opFault
}

type opFault struct {
	op     string
	substr string
	err    error
	after  int // remaining matching calls that succeed before firing
	fired  bool
}

// NewFaultFS wraps inner (nil means the real filesystem).
func NewFaultFS(inner FS) *FaultFS {
	if inner == nil {
		inner = OS
	}
	return &FaultFS{inner: inner}
}

// CrashAfter arms the crash point: the nth mutating operation (1-based)
// fails and the filesystem is dead from then on. n <= 0 disarms.
func (f *FaultFS) CrashAfter(n int64) {
	f.mu.Lock()
	f.crashAfter = n
	f.mu.Unlock()
}

// TornWrites makes the crash point tear a File.Write in half instead of
// dropping it whole.
func (f *FaultFS) TornWrites() {
	f.mu.Lock()
	f.torn = true
	f.mu.Unlock()
}

// FailOp injects err into the (skip+1)-th call of op whose file name —
// the path's last element, so a directory that happens to be named after
// the target can never satisfy the fault — contains substr; the call does
// not execute. The fault fires once.
func (f *FaultFS) FailOp(op, substr string, err error, skip int) {
	f.mu.Lock()
	f.faults = append(f.faults, &opFault{op: op, substr: substr, err: err, after: skip})
	f.mu.Unlock()
}

// Crashed reports whether the crash point has fired.
func (f *FaultFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// Mutations returns how many mutating operations have been attempted —
// run a workload once fault-free to size the crash-point matrix.
func (f *FaultFS) Mutations() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.muts
}

// check gates one operation. It returns (tear, err): err non-nil means
// the operation must fail with it; tear means a write should persist a
// prefix first.
func (f *FaultFS) check(op, path string) (bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return false, fmt.Errorf("%w: %s %s after crash", ErrInjected, op, path)
	}
	for _, fl := range f.faults {
		if fl.fired || fl.op != op || !strings.Contains(filepath.Base(path), fl.substr) {
			continue
		}
		if fl.after > 0 {
			fl.after--
			continue
		}
		fl.fired = true
		return false, fmt.Errorf("%s %s: %w", op, path, fl.err)
	}
	if mutating(op) {
		f.muts++
		if f.crashAfter > 0 && f.muts >= f.crashAfter {
			f.crashed = true
			return f.torn && op == OpWrite, fmt.Errorf("%w: crash at %s %s (mutation %d)", ErrInjected, op, path, f.muts)
		}
	}
	return false, nil
}

func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if _, err := f.check(OpOpenFile, name); err != nil {
		return nil, err
	}
	fl, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, name: name, inner: fl}, nil
}

func (f *FaultFS) Open(name string) (File, error) {
	if _, err := f.check(OpOpen, name); err != nil {
		return nil, err
	}
	fl, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, name: name, inner: fl}, nil
}

func (f *FaultFS) Create(name string) (File, error) {
	if _, err := f.check(OpCreate, name); err != nil {
		return nil, err
	}
	fl, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, name: name, inner: fl}, nil
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	if _, err := f.check(OpRename, newpath); err != nil {
		return err
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *FaultFS) Remove(name string) error {
	if _, err := f.check(OpRemove, name); err != nil {
		return err
	}
	return f.inner.Remove(name)
}

func (f *FaultFS) RemoveAll(path string) error {
	if _, err := f.check(OpRemove, path); err != nil {
		return err
	}
	return f.inner.RemoveAll(path)
}

func (f *FaultFS) Truncate(name string, size int64) error {
	if _, err := f.check(OpTruncate, name); err != nil {
		return err
	}
	return f.inner.Truncate(name, size)
}

func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	if _, err := f.check(OpMkdirAll, path); err != nil {
		return err
	}
	return f.inner.MkdirAll(path, perm)
}

func (f *FaultFS) Stat(name string) (fs.FileInfo, error) {
	if _, err := f.check(OpStat, name); err != nil {
		return nil, err
	}
	return f.inner.Stat(name)
}

func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	if _, err := f.check(OpReadFile, name); err != nil {
		return nil, err
	}
	return f.inner.ReadFile(name)
}

func (f *FaultFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	if _, err := f.check(OpWriteFile, name); err != nil {
		return err
	}
	return f.inner.WriteFile(name, data, perm)
}

func (f *FaultFS) ReadDir(name string) ([]fs.DirEntry, error) {
	if _, err := f.check(OpReadDir, name); err != nil {
		return nil, err
	}
	return f.inner.ReadDir(name)
}

// faultFile routes Write/Sync/Truncate through the fault plan; reads and
// seeks only fail after a crash.
type faultFile struct {
	fs    *FaultFS
	name  string
	inner File
}

func (f *faultFile) Read(p []byte) (int, error) {
	if _, err := f.fs.check(OpReadFile, f.name); err != nil {
		return 0, err
	}
	return f.inner.Read(p)
}

func (f *faultFile) Write(p []byte) (int, error) {
	tear, err := f.fs.check(OpWrite, f.name)
	if err != nil {
		if tear && len(p) > 1 {
			n, _ := f.inner.Write(p[:len(p)/2])
			return n, err
		}
		return 0, err
	}
	return f.inner.Write(p)
}

func (f *faultFile) Seek(offset int64, whence int) (int64, error) {
	if _, err := f.fs.check(OpOpen, f.name); err != nil {
		return 0, err
	}
	return f.inner.Seek(offset, whence)
}

func (f *faultFile) Sync() error {
	if _, err := f.fs.check(OpSync, f.name); err != nil {
		return err
	}
	return f.inner.Sync()
}

func (f *faultFile) Truncate(size int64) error {
	if _, err := f.fs.check(OpTruncate, f.name); err != nil {
		return err
	}
	return f.inner.Truncate(size)
}

// Close always reaches the real file: a crashed process's descriptors
// are closed by the kernel regardless, and leaking them would fail tests
// for the wrong reason.
func (f *faultFile) Close() error { return f.inner.Close() }

// ---- network faults ----

// Conn wraps a net.Conn with deterministic stream faults for the
// replication protocol: delay each write, cut the stream after exactly N
// more bytes (mid-frame truncation), or sever it immediately.
type Conn struct {
	net.Conn

	mu       sync.Mutex
	delay    time.Duration
	cutArmed bool
	cutAfter int64 // bytes still allowed through before the cut
}

// WrapConn wraps c; the zero fault plan passes everything through.
func WrapConn(c net.Conn) *Conn { return &Conn{Conn: c} }

// Delay makes every subsequent Write sleep d first.
func (c *Conn) Delay(d time.Duration) {
	c.mu.Lock()
	c.delay = d
	c.mu.Unlock()
}

// CutAfter lets exactly n more bytes through, then closes the
// connection mid-stream — a frame caught across the boundary arrives
// torn at the peer.
func (c *Conn) CutAfter(n int64) {
	c.mu.Lock()
	c.cutArmed, c.cutAfter = true, n
	c.mu.Unlock()
}

// Sever closes the connection now.
func (c *Conn) Sever() error { return c.Conn.Close() }

func (c *Conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	delay := c.delay
	cut := c.cutArmed
	allowed := c.cutAfter
	c.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	if !cut {
		return c.Conn.Write(p)
	}
	if allowed <= 0 {
		c.Conn.Close()
		return 0, fmt.Errorf("%w: stream cut", ErrInjected)
	}
	n := len(p)
	if int64(n) > allowed {
		n = int(allowed)
	}
	wrote, err := c.Conn.Write(p[:n])
	c.mu.Lock()
	c.cutAfter -= int64(wrote)
	closeNow := c.cutAfter <= 0
	c.mu.Unlock()
	if err == nil && (closeNow || wrote < len(p)) {
		c.Conn.Close()
		err = fmt.Errorf("%w: stream cut after %d bytes", ErrInjected, wrote)
	}
	return wrote, err
}

// Listener wraps accepted connections so a test can arm faults on the
// server side of every stream. Wrap observes each connection as it is
// accepted; returning the connection unchanged (or wrapped further) is
// up to the callback.
type Listener struct {
	net.Listener
	Wrap func(*Conn) net.Conn
}

func (l *Listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	fc := WrapConn(c)
	if l.Wrap != nil {
		return l.Wrap(fc), nil
	}
	return fc, nil
}
