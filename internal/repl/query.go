package repl

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"time"

	lazyxml "repro"
)

// QueryClient runs streaming queries over the binary protocol:
// each Query sends one QUERY frame and returns a row iterator over the
// primary's ROW frames. Queries on one connection are sequential — the
// previous result must be read to its end (or the connection is marked
// broken) before the next Query.
type QueryClient struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	// active is the in-flight result; nil when the exchange is clean.
	active *QueryRows
	broken error
}

// DialQuery connects to a primary's replication listener and completes
// the handshake as a query client (shard count 0: no store of its own).
func DialQuery(addr string, timeout time.Duration) (*QueryClient, error) {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	c := &QueryClient{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 1<<16),
		bw:   bufio.NewWriterSize(conn, 1<<16),
	}
	conn.SetDeadline(time.Now().Add(timeout))
	typ, payload, err := ReadFrame(c.br)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("repl: reading server hello: %w", err)
	}
	if typ != TypeHello {
		conn.Close()
		return nil, fmt.Errorf("repl: expected HELLO, got frame type %d", typ)
	}
	h, err := decodeHello(payload)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if h.Version != Version {
		conn.Close()
		return nil, fmt.Errorf("repl: server speaks protocol %d, this build speaks %d", h.Version, Version)
	}
	if err := WriteFrame(c.bw, TypeHello, (Hello{Version: Version, Shards: 0}).encode()); err != nil {
		conn.Close()
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetDeadline(time.Time{})
	return c, nil
}

// Query starts one streaming query. Doc "" targets the whole collection;
// limit 0 is unlimited; budget 0 inherits the primary's cap (a non-zero
// budget can only lower it). The returned rows must be drained (Next
// until io.EOF or an error) before the next Query on this client.
func (c *QueryClient) Query(doc, path string, limit int, budget int64) (*QueryRows, error) {
	if c.broken != nil {
		return nil, c.broken
	}
	if c.active != nil && !c.active.done {
		return nil, fmt.Errorf("repl: previous query still streaming: drain it before the next")
	}
	if limit < 0 {
		limit = 0
	}
	if budget < 0 {
		budget = 0
	}
	q := Query{Doc: doc, Path: path, Limit: int64(limit), Budget: budget}
	if err := WriteFrame(c.bw, TypeQuery, q.encode()); err != nil {
		c.broken = err
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		c.broken = err
		return nil, err
	}
	c.active = &QueryRows{c: c}
	return c.active, nil
}

// Close closes the connection. An undrained result leaves in-flight ROW
// frames on the wire, which Close discards with the connection itself.
func (c *QueryClient) Close() error {
	if c.broken == nil {
		c.broken = fmt.Errorf("repl: query client closed")
	}
	return c.conn.Close()
}

// QueryRows iterates one query's ROW frames. After Next returns io.EOF,
// Count and Truncated report the trailer's summary.
type QueryRows struct {
	c         *QueryClient
	done      bool
	count     int64
	truncated bool
}

// Next returns the next match, io.EOF at a clean end of stream, or the
// error the primary reported mid-stream (a *QueryError carrying its
// frame code — ErrCodeBudget for budget kills).
func (r *QueryRows) Next() (lazyxml.Match, error) {
	var zero lazyxml.Match
	if r.done {
		return zero, io.EOF
	}
	if r.c.broken != nil {
		return zero, r.c.broken
	}
	typ, payload, err := ReadFrame(r.c.br)
	if err != nil {
		r.c.broken = err
		r.done = true
		return zero, err
	}
	switch typ {
	case TypeRow:
		m, err := decodeRow(payload)
		if err != nil {
			r.c.broken = err
			r.done = true
			return zero, err
		}
		r.count++
		return m, nil
	case TypeQueryEnd:
		end, err := decodeQueryEnd(payload)
		if err != nil {
			r.c.broken = err
			r.done = true
			return zero, err
		}
		r.done = true
		r.count = end.Count
		r.truncated = end.Truncated
		if end.Code != 0 {
			return zero, &QueryError{Code: end.Code, Msg: end.Msg}
		}
		return zero, io.EOF
	case TypeError:
		e, derr := decodeError(payload)
		r.done = true
		if derr != nil {
			r.c.broken = derr
			return zero, derr
		}
		r.c.broken = fmt.Errorf("repl: server error %d: %s", e.Code, e.Msg)
		return zero, r.c.broken
	default:
		r.c.broken = fmt.Errorf("repl: expected ROW or QUERYEND, got frame type %d", typ)
		r.done = true
		return zero, r.c.broken
	}
}

// Count is the number of rows the query delivered; valid once Next has
// returned io.EOF or an error.
func (r *QueryRows) Count() int64 { return r.count }

// Truncated reports whether the query's limit cut the result short;
// valid once Next has returned io.EOF.
func (r *QueryRows) Truncated() bool { return r.truncated }

// QueryError is a query-level failure reported by the primary in its
// QUERYEND frame. Budget kills carry Code == ErrCodeBudget.
type QueryError struct {
	Code uint64
	Msg  string
}

func (e *QueryError) Error() string {
	return fmt.Sprintf("repl: query failed (code %d): %s", e.Code, e.Msg)
}

// Budget reports whether the failure was a memory-budget kill.
func (e *QueryError) Budget() bool { return e.Code == ErrCodeBudget }
