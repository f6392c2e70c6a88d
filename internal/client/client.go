// Package client is the TIP client library — the Go analogue of the
// paper's TIP C and Java libraries. It speaks the TIP wire protocol to a
// TIP server and performs customised type mapping: values of TIP
// datatypes arrive as native temporal objects (temporal.Chronon,
// temporal.Element, ...), not strings, exactly as the TIP Browser maps
// JDBC results to TIP Java objects.
//
// The connection is lifecycle-aware: statements can carry a
// context.Context (cancellation is forwarded to the server as a
// MsgCancel frame), dial/read/write timeouts bound every wire
// operation, and an opt-in RetryPolicy transparently redials and
// retries idempotent statements with exponential backoff and jitter.
//
// A thin database/sql driver is also provided (see driver.go) for
// applications that prefer the standard interface; it maps TIP values to
// their literal text.
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tip/internal/blade"
	"tip/internal/exec"
	"tip/internal/obs"
	"tip/internal/protocol"
	"tip/internal/types"
)

// ErrConnClosed is the sticky state of a connection after Close or a
// transport failure (broken pipe, timeout, severed peer): every
// subsequent call fails with an error matching it. A RetryPolicy lifts
// the transport-failure case by redialling; an explicit Close is final.
var ErrConnClosed = errors.New("client: connection closed")

// cancelGrace bounds how long a context-cancelled statement waits for
// the server's acknowledgement before the client abandons the read and
// declares the connection broken.
const cancelGrace = 2 * time.Second

// Options configures a connection's lifecycle behaviour. The zero value
// preserves the historical behaviour: blocking dial, unbounded reads
// and writes, no retries.
type Options struct {
	// DialTimeout bounds connection establishment (0 = no bound).
	DialTimeout time.Duration
	// ReadTimeout bounds each wait for a server reply (0 = no bound).
	// It caps effective statement duration, so set it above the
	// server's statement timeout.
	ReadTimeout time.Duration
	// WriteTimeout bounds each frame write (0 = no bound).
	WriteTimeout time.Duration
	// Retry enables transparent retry of failed statements; see
	// RetryPolicy for what is eligible. Nil disables retries.
	Retry *RetryPolicy
	// Metrics receives the client's counters (client.retries); nil
	// uses a private registry, readable via Conn.Metrics.
	Metrics *obs.Registry
}

// Conn is one client connection. Statements are serialised internally;
// Cancel and Close may be called concurrently with a running statement.
type Conn struct {
	addr string
	reg  *blade.Registry
	opts Options

	mu sync.Mutex // serialises request/response exchanges

	// wmu guards frame writes and connection state, separately from mu,
	// so Cancel and Close can act while a statement is blocked reading
	// its reply under mu.
	wmu    sync.Mutex
	conn   net.Conn
	r      *bufio.Reader
	w      *bufio.Writer
	broken bool // transport failed; unusable until redialled
	closed bool // Close called; final

	metrics *obs.Registry
	retries *obs.Counter // client.retries
}

// Connect dials a TIP server with default Options. The registry must
// have the same blades registered as the server, so wire values decode
// to native objects.
func Connect(addr string, reg *blade.Registry) (*Conn, error) {
	return ConnectOpts(addr, reg, Options{})
}

// ConnectOpts dials a TIP server with explicit lifecycle options.
func ConnectOpts(addr string, reg *blade.Registry, opts Options) (*Conn, error) {
	c := &Conn{addr: addr, reg: reg, opts: opts, metrics: opts.Metrics}
	if c.metrics == nil {
		c.metrics = obs.NewRegistry()
	}
	c.retries = c.metrics.Counter("client.retries")
	nc, r, w, err := c.dial()
	if err != nil {
		return nil, err
	}
	c.conn, c.r, c.w = nc, r, w
	return c, nil
}

// Metrics exposes the client's metrics registry.
func (c *Conn) Metrics() *obs.Registry { return c.metrics }

// dial establishes and handshakes a fresh transport connection.
func (c *Conn) dial() (net.Conn, *bufio.Reader, *bufio.Writer, error) {
	var nc net.Conn
	var err error
	if c.opts.DialTimeout > 0 {
		nc, err = net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
	} else {
		nc, err = net.Dial("tcp", c.addr)
	}
	if err != nil {
		return nil, nil, nil, fmt.Errorf("client: %w", err)
	}
	r, w := bufio.NewReader(nc), bufio.NewWriter(nc)
	if err := handshake(nc, r, w, c.opts); err != nil {
		_ = nc.Close()
		return nil, nil, nil, err
	}
	return nc, r, w, nil
}

// handshake runs the hello/welcome exchange. The welcome read always
// has a deadline — a server (or load balancer) that accepts and then
// stalls must not hang the dial forever. A typed busy rejection from
// the server's connection limit surfaces as a *ServerError matching
// ErrBusy.
func handshake(nc net.Conn, r *bufio.Reader, w *bufio.Writer, opts Options) error {
	if opts.WriteTimeout > 0 {
		_ = nc.SetWriteDeadline(time.Now().Add(opts.WriteTimeout))
	}
	if err := protocol.WriteFrame(w, protocol.EncodeHello("tip-go-client")); err != nil {
		return fmt.Errorf("client: %w", err)
	}
	hd := opts.ReadTimeout
	if hd <= 0 {
		hd = 10 * time.Second
	}
	_ = nc.SetReadDeadline(time.Now().Add(hd))
	frame, err := protocol.ReadFrame(r)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	_ = nc.SetReadDeadline(time.Time{})
	_ = nc.SetWriteDeadline(time.Time{})
	if len(frame) == 0 {
		return fmt.Errorf("client: bad handshake")
	}
	switch frame[0] {
	case protocol.MsgWelcome:
		if _, err := protocol.DecodeString(frame[1:]); err != nil {
			return fmt.Errorf("client: %w", err)
		}
		return nil
	case protocol.MsgError:
		msg, code, derr := protocol.DecodeError(frame[1:])
		if derr != nil {
			return fmt.Errorf("client: %w", derr)
		}
		return &ServerError{Message: msg, Code: code}
	default:
		return fmt.Errorf("client: bad handshake")
	}
}

// stateErrLocked reports the sticky connection state; wmu must be held.
func (c *Conn) stateErrLocked() error {
	if c.closed || c.broken || c.conn == nil {
		return ErrConnClosed
	}
	return nil
}

// breakLocked marks the transport broken and tears it down; wmu held.
func (c *Conn) breakLocked() {
	if !c.broken {
		c.broken = true
		if c.conn != nil {
			_ = c.conn.Close()
		}
	}
}

// reconnect replaces a broken transport with a fresh dialled one. A
// closed connection stays closed.
func (c *Conn) reconnect() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.closed {
		return ErrConnClosed
	}
	if c.conn != nil {
		_ = c.conn.Close()
	}
	nc, r, w, err := c.dial()
	if err != nil {
		c.broken = true
		return err
	}
	c.conn, c.r, c.w = nc, r, w
	c.broken = false
	return nil
}

// exchange writes one frame and reads the reply. Transport failures
// mark the connection broken; the returned error then matches
// ErrConnClosed (and still carries the underlying cause).
func (c *Conn) exchange(payload []byte) ([]byte, error) {
	c.wmu.Lock()
	if err := c.stateErrLocked(); err != nil {
		c.wmu.Unlock()
		return nil, err
	}
	conn := c.conn
	if d := c.opts.WriteTimeout; d > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(d))
	}
	err := protocol.WriteFrame(c.w, payload)
	if err != nil {
		c.breakLocked()
		c.wmu.Unlock()
		return nil, fmt.Errorf("client: write: %w", errors.Join(ErrConnClosed, err))
	}
	if d := c.opts.ReadTimeout; d > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(d))
	} else {
		_ = conn.SetReadDeadline(time.Time{})
	}
	c.wmu.Unlock()
	frame, err := protocol.ReadFrame(c.r)
	if err != nil {
		c.wmu.Lock()
		c.breakLocked()
		c.wmu.Unlock()
		return nil, fmt.Errorf("client: read: %w", errors.Join(ErrConnClosed, err))
	}
	return frame, nil
}

// Exec sends one SQL statement with optional named parameters and returns
// the decoded result. Server-side errors come back as *ServerError.
func (c *Conn) Exec(sql string, params map[string]types.Value) (*exec.Result, error) {
	return c.ExecContext(context.Background(), sql, params)
}

// ExecContext is Exec with cooperative cancellation: when ctx is
// cancelled mid-statement the client sends a MsgCancel frame and the
// server aborts the statement; ExecContext then returns ctx's error and
// the connection stays usable. If the server fails to acknowledge
// within a grace period the connection is declared broken instead.
func (c *Conn) ExecContext(ctx context.Context, sql string, params map[string]types.Value) (*exec.Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	policy := c.opts.Retry
	for attempt := 0; ; attempt++ {
		res, err := c.execOnce(ctx, sql, params)
		if err == nil {
			return res, nil
		}
		if ctx.Err() != nil || policy == nil || !policy.retryable(sql, err) || attempt+1 >= policy.attempts() {
			return nil, err
		}
		c.retries.Inc()
		if serr := sleepCtx(ctx, policy.Backoff(attempt+1)); serr != nil {
			return nil, err
		}
		if errors.Is(err, ErrConnClosed) {
			if rerr := c.reconnect(); rerr != nil && errors.Is(rerr, ErrConnClosed) {
				return nil, err // explicitly closed: stop retrying
			}
		}
	}
}

// execOnce runs one attempt of a statement; mu must be held.
func (c *Conn) execOnce(ctx context.Context, sql string, params map[string]types.Value) (*exec.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Redialling before the statement is sent is always safe, even for
	// writes — nothing is in flight yet.
	c.wmu.Lock()
	needRedial := c.broken && !c.closed && c.opts.Retry != nil
	c.wmu.Unlock()
	if needRedial {
		if err := c.reconnect(); err != nil {
			return nil, fmt.Errorf("client: reconnect: %w", errors.Join(ErrConnClosed, err))
		}
	}

	// Watch ctx for the duration of the exchange: on cancellation, tell
	// the server, then bound the pending reply read so a dead server
	// cannot hold us past the grace period.
	var cancelled atomic.Bool
	var stop chan struct{}
	if ctx.Done() != nil {
		stop = make(chan struct{})
		go func() {
			select {
			case <-ctx.Done():
				cancelled.Store(true)
				_ = c.Cancel()
				c.wmu.Lock()
				if c.conn != nil && !c.closed {
					_ = c.conn.SetReadDeadline(time.Now().Add(cancelGrace))
				}
				c.wmu.Unlock()
			case <-stop:
			}
		}()
	}
	frame, err := c.exchange(protocol.EncodeQuery(protocol.Query{SQL: sql, Params: params}))
	if stop != nil {
		close(stop)
	}
	if err != nil {
		if cancelled.Load() && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, err
	}
	if len(frame) == 0 {
		return nil, fmt.Errorf("client: empty frame")
	}
	switch frame[0] {
	case protocol.MsgResult:
		res, err := protocol.DecodeResult(c.reg, frame[1:])
		if err != nil {
			return nil, fmt.Errorf("client: %w", err)
		}
		return res, nil
	case protocol.MsgError:
		msg, code, derr := protocol.DecodeError(frame[1:])
		if derr != nil {
			return nil, fmt.Errorf("client: %w", derr)
		}
		if code == protocol.ErrCodeCancelled && cancelled.Load() && ctx.Err() != nil {
			// Our own cancel, acknowledged: report it as the ctx error.
			return nil, ctx.Err()
		}
		return nil, &ServerError{Message: msg, Code: code}
	default:
		return nil, fmt.Errorf("client: unexpected message kind %d", frame[0])
	}
}

// Cancel asks the server to abort the connection's in-flight statement
// (or, if none is running, its next one). Safe to call from any
// goroutine while another is blocked in Exec.
func (c *Conn) Cancel() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.stateErrLocked(); err != nil {
		return err
	}
	if d := c.opts.WriteTimeout; d > 0 {
		_ = c.conn.SetWriteDeadline(time.Now().Add(d))
	}
	if err := protocol.WriteFrame(c.w, []byte{protocol.MsgCancel}); err != nil {
		c.breakLocked()
		return fmt.Errorf("client: cancel: %w", errors.Join(ErrConnClosed, err))
	}
	return nil
}

// ReplStatus asks the server for its replication position: role
// (primary or replica), the WAL seq it has flushed (primary) or applied
// (replica), and the primary runID that seq belongs to. Routers use it
// to bound read staleness.
func (c *Conn) ReplStatus() (protocol.ReplStatus, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	frame, err := c.exchange(protocol.EncodeReplStatusRequest())
	if err != nil {
		return protocol.ReplStatus{}, err
	}
	if len(frame) == 0 {
		return protocol.ReplStatus{}, fmt.Errorf("client: empty frame")
	}
	switch frame[0] {
	case protocol.MsgReplStatus:
		st, err := protocol.DecodeReplStatus(frame[1:])
		if err != nil {
			return protocol.ReplStatus{}, fmt.Errorf("client: %w", err)
		}
		return st, nil
	case protocol.MsgError:
		msg, code, derr := protocol.DecodeError(frame[1:])
		if derr != nil {
			return protocol.ReplStatus{}, fmt.Errorf("client: %w", derr)
		}
		return protocol.ReplStatus{}, &ServerError{Message: msg, Code: code}
	default:
		return protocol.ReplStatus{}, fmt.Errorf("client: unexpected reply to status request")
	}
}

// Stats requests the server's metrics snapshot (engine counters,
// histograms and connection-layer totals).
func (c *Conn) Stats() (obs.Snapshot, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	frame, err := c.exchange([]byte{protocol.MsgStats})
	if err != nil {
		return nil, err
	}
	if len(frame) == 0 || frame[0] != protocol.MsgStats {
		return nil, fmt.Errorf("client: unexpected reply to stats request")
	}
	snap, err := protocol.DecodeStats(frame[1:])
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	return snap, nil
}

// Close sends a quit and closes the connection. Idempotent: repeated
// calls return nil. Subsequent statements fail with ErrConnClosed.
func (c *Conn) Close() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if c.conn == nil || c.broken {
		return nil
	}
	_ = c.conn.SetWriteDeadline(time.Now().Add(time.Second))
	_ = protocol.WriteFrame(c.w, []byte{protocol.MsgQuit})
	return c.conn.Close()
}

// sleepCtx sleeps for d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// ServerError is an error reported by the server (a SQL error, a
// cancelled or timed-out statement, or an admission-control rejection —
// not a transport failure); the connection remains usable. Use
// errors.Is against the sentinels below (ErrCancelled, ErrTimeout,
// ErrBusy, ErrShutdown, ErrReadOnly, ErrResource, ErrConflict) to
// classify it.
type ServerError struct {
	Message string
	Code    byte // protocol.ErrCode*
}

func (e *ServerError) Error() string { return e.Message }

// Sentinel targets for classifying a *ServerError with errors.Is.
var (
	// ErrCancelled matches a statement aborted by MsgCancel.
	ErrCancelled = errors.New("client: statement cancelled")
	// ErrTimeout matches a statement aborted by the statement timeout.
	ErrTimeout = errors.New("client: statement timeout exceeded")
	// ErrBusy matches admission-control rejections (connection limit or
	// load shedding); the statement never ran, so retrying is safe.
	ErrBusy = errors.New("client: server busy")
	// ErrShutdown matches statements rejected because the server is
	// draining.
	ErrShutdown = errors.New("client: server shutting down")
	// ErrReadOnly matches writes rejected by a read-only replica; send
	// them to the primary instead (a Router does this automatically).
	ErrReadOnly = errors.New("client: server is a read-only replica")
	// ErrResource matches statements rejected or aborted by resource
	// governance: shed under memory pressure, over the statement memory
	// budget, or a result too large for one response frame. No change
	// was applied, so retrying (after backoff) is safe.
	ErrResource = errors.New("client: resource limit exceeded")
	// ErrConflict matches a transaction (or autocommit statement) the
	// server aborted on a lock or read conflict. Nothing of it was
	// applied and the session has no open transaction any more, so
	// rerunning the whole transaction from BEGIN is safe. RetryPolicy
	// does not retry it: repeating only the failed statement would run
	// it outside the aborted transaction.
	ErrConflict = errors.New("client: transaction conflict; rerun the transaction")
)

// Is classifies the error code against the sentinel targets.
func (e *ServerError) Is(target error) bool {
	switch target {
	case ErrCancelled:
		return e.Code == protocol.ErrCodeCancelled
	case ErrTimeout:
		return e.Code == protocol.ErrCodeTimeout
	case ErrBusy:
		return e.Code == protocol.ErrCodeBusy
	case ErrShutdown:
		return e.Code == protocol.ErrCodeShutdown
	case ErrReadOnly:
		return e.Code == protocol.ErrCodeReadOnly
	case ErrResource:
		return e.Code == protocol.ErrCodeResource
	case ErrConflict:
		return e.Code == protocol.ErrCodeConflict
	}
	return false
}
