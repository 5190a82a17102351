package elide

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"sgxelide/internal/obs"
	"sgxelide/internal/sgx"
)

// MaxFrame bounds a single frame's payload, enforced on both the read and
// the write side so a corrupted length header cannot make either end
// allocate unboundedly or stream garbage.
const MaxFrame = 64 << 20

// Response frames carry a one-byte status prefix so a refusal is a
// first-class protocol event, distinct from any payload (including a
// legitimate zero-length response).
const (
	statusOK         = 0 // rest of the frame is the response payload
	statusErr        = 1 // rest of the frame is a UTF-8 error message
	statusOverloaded = 2 // u32 retry-after millis + UTF-8 reason (backpressure)
)

// framePool recycles the scratch buffers the frame writers assemble small
// frames in. Capacity is capped at pooledFrame so a one-off huge frame
// does not pin megabytes in the pool; typical protocol frames (handshake
// replies, channel requests, meta) are well under it.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}

// pooledFrame is the largest total frame (header included) assembled in a
// pooled buffer and written in one syscall; larger payloads are written
// directly after a pooled header so the pool never holds huge buffers.
const pooledFrame = 64 << 10

// writeWireFrame writes one length-prefixed frame: an optional status
// byte (status < 0 omits it) followed by body. Small frames are assembled
// in a pooled buffer and hit the socket in a single write with zero
// allocations; large bodies get a pooled header write followed by the
// body itself, so the secret payload is never copied.
func writeWireFrame(w io.Writer, status int, body []byte) error {
	plen := len(body)
	if status >= 0 {
		plen++
	}
	if plen > MaxFrame {
		return fmt.Errorf("%w (%d bytes on write)", ErrFrameTooLarge, plen)
	}
	bp := framePool.Get().(*[]byte)
	buf := (*bp)[:0]
	buf = binary.LittleEndian.AppendUint32(buf, uint32(plen))
	if status >= 0 {
		buf = append(buf, byte(status))
	}
	var err error
	if 4+plen <= pooledFrame {
		buf = append(buf, body...)
		_, err = w.Write(buf)
	} else {
		if _, err = w.Write(buf); err == nil {
			_, err = w.Write(body)
		}
	}
	if cap(buf) <= pooledFrame {
		*bp = buf[:0]
		framePool.Put(bp)
	}
	return err
}

// writeFrame writes one length-prefixed frame (no status byte — the
// request direction).
func writeFrame(w io.Writer, b []byte) error {
	return writeWireFrame(w, -1, b)
}

// frameStep bounds how far a frame reader's buffer runs ahead of the
// bytes that actually arrived: a length header alone commits at most one
// step, however large a frame it announces.
const frameStep = 1 << 20

// readFrameInto reads one length-prefixed frame into buf, returning the
// payload slice aliasing buf. Feeding each call's return value back in
// amortizes the allocation to zero across a session's request loop; pass
// nil for fresh memory the caller may retain. Memory follows the bytes
// that arrive: each growth reserves at most one frameStep, or a quarter of
// what was already received, beyond it.
func readFrameInto(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 0, 64) // small frames fit in the header's allocation
	}
	hdr := buf[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr))
	if n > MaxFrame {
		return nil, fmt.Errorf("%w (%d bytes on read)", ErrFrameTooLarge, n)
	}
	buf = buf[:0]
	for len(buf) < n {
		if step := min(n-len(buf), max(frameStep, len(buf)/4)); cap(buf)-len(buf) < step {
			buf = append(make([]byte, 0, len(buf)+step), buf...)
		}
		got := len(buf)
		buf = buf[:min(n, cap(buf))]
		if _, err := io.ReadFull(r, buf[got:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF // the header promised more
			}
			return nil, err
		}
	}
	return buf, nil
}

// writeResponse writes an OK response frame (status prefix + payload).
func writeResponse(w io.Writer, b []byte) error {
	return writeWireFrame(w, statusOK, b)
}

// writeErrorFrame writes a refusal frame carrying the reason.
func writeErrorFrame(w io.Writer, msg string) error {
	const maxMsg = 1024 // cap the reason so errors can't balloon frames
	if len(msg) > maxMsg {
		msg = msg[:maxMsg]
	}
	return writeStringFrame(w, statusErr, nil, msg)
}

// writeOverloadFrame writes a backpressure frame: the retry-after hint in
// millis followed by the reason. The client surfaces it as an
// *OverloadedError. A positive sub-millisecond hint is clamped UP to 1ms,
// not truncated to 0: a zero hint tells the client "retry immediately",
// which in a hot loop defeats the backpressure the frame exists to apply.
func writeOverloadFrame(w io.Writer, retryAfter time.Duration, msg string) error {
	const maxMsg = 1024
	if len(msg) > maxMsg {
		msg = msg[:maxMsg]
	}
	ms := retryAfter.Milliseconds()
	if ms <= 0 {
		ms = 0
		if retryAfter > 0 {
			ms = 1
		}
	}
	var hint [4]byte
	binary.LittleEndian.PutUint32(hint[:], uint32(min(ms, int64(^uint32(0)))))
	return writeStringFrame(w, statusOverloaded, hint[:], msg)
}

// writeStringFrame assembles status || extra || msg in a pooled buffer —
// the error-direction twin of writeWireFrame that avoids a []byte(msg)
// conversion allocation.
func writeStringFrame(w io.Writer, status byte, extra []byte, msg string) error {
	bp := framePool.Get().(*[]byte)
	buf := (*bp)[:0]
	buf = binary.LittleEndian.AppendUint32(buf, uint32(1+len(extra)+len(msg)))
	buf = append(buf, status)
	buf = append(buf, extra...)
	buf = append(buf, msg...)
	_, err := w.Write(buf)
	if cap(buf) <= pooledFrame {
		*bp = buf[:0]
		framePool.Put(bp)
	}
	return err
}

// readResponse reads a status-prefixed response frame. A statusErr frame
// becomes a *RefusedError (matching ErrRefused); a statusOverloaded frame
// becomes an *OverloadedError (matching ErrOverloaded) carrying the
// server's retry-after hint. The returned payload is freshly allocated —
// ownership transfers to the caller.
func readResponse(r io.Reader) ([]byte, error) {
	frame, err := readFrameInto(r, nil)
	if err != nil {
		return nil, err
	}
	if len(frame) == 0 {
		return nil, fmt.Errorf("elide: malformed response frame (no status byte)")
	}
	switch frame[0] {
	case statusOK:
		return frame[1:], nil
	case statusErr:
		return nil, &RefusedError{Msg: string(frame[1:])}
	case statusOverloaded:
		if len(frame) < 5 {
			return nil, fmt.Errorf("elide: malformed overload frame (%d bytes)", len(frame))
		}
		ms := binary.LittleEndian.Uint32(frame[1:5])
		return nil, &OverloadedError{
			RetryAfter: time.Duration(ms) * time.Millisecond,
			Msg:        string(frame[5:]),
		}
	default:
		return nil, fmt.Errorf("elide: unknown response status %d", frame[0])
	}
}

// --- TCPClient ---

// clientOptions collects the functional options of NewTCPClient. The
// With* constructors live in options.go alongside the other families.
type clientOptions struct {
	dialTimeout    time.Duration
	requestTimeout time.Duration
	maxRetries     int
	backoffBase    time.Duration
	backoffCap     time.Duration
	proto          uint8
	metrics        *obs.Registry
	tracer         *obs.Tracer
	dial           func(ctx context.Context, addr string) (net.Conn, error)
}

// TCPClient reaches the authentication server over TCP. It dials lazily,
// applies per-operation deadlines, and retries transient connection
// failures with exponential backoff and jitter, transparently resuming
// the session on a fresh connection (the server resumes the session keyed
// by the client's quote-bound ephemeral key, so the channel key survives a
// reconnect).
//
// By default Attest asks the server to bundle the encrypted meta and data
// responses into its reply, and Request serves them from the local cache
// in protocol order without touching the wire — a whole restore in one
// network flight. The protocol's strict ordering makes the positional
// cache sound: the first channel request after an attest is always
// REQUEST_META, the second REQUEST_DATA (the same invariant the runtime's
// phase naming relies on). WithProtocolVersion(ProtoUnbundled) turns the
// bundle off.
//
// Build it with NewTCPClient; the zero value is not usable. A TCPClient is
// safe for concurrent use, though the restore protocol is sequential.
type TCPClient struct {
	addr string
	opt  clientOptions

	mu       sync.Mutex
	conn     net.Conn
	attested bool
	// handshake is the resume form of the handshake that last attested
	// successfully, resent on a fresh connection ahead of a retried
	// request.
	handshake *attestMsg
	// pending holds the encrypted channel responses a bundled attest
	// pre-fetched, served FIFO by Request. Cleared on every (re)attest.
	pending [][]byte
}

// NewTCPClient builds a client for the server at addr. No connection is
// made until the first Attest.
func NewTCPClient(addr string, opts ...ClientOption) *TCPClient {
	o := clientOptions{
		dialTimeout:    DefaultDialTimeout,
		requestTimeout: DefaultRequestTimeout,
		maxRetries:     DefaultRetryBudget,
		backoffBase:    DefaultBackoffBase,
		backoffCap:     DefaultBackoffCap,
		proto:          ProtoV1,
	}
	for _, fn := range opts {
		fn(&o)
	}
	if o.dial == nil {
		o.dial = func(ctx context.Context, addr string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	return &TCPClient{addr: addr, opt: o}
}

// Close tears down the current connection, if any.
func (c *TCPClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closeConnLocked()
}

func (c *TCPClient) closeConnLocked() error {
	var err error
	if c.conn != nil {
		err = c.conn.Close()
		c.conn = nil
	}
	return err
}

// ensureConnLocked dials if there is no live connection.
func (c *TCPClient) ensureConnLocked(ctx context.Context) error {
	if c.conn != nil {
		return nil
	}
	dctx, cancel := context.WithTimeout(ctx, c.opt.dialTimeout)
	defer cancel()
	conn, err := c.opt.dial(dctx, c.addr)
	if err != nil {
		return err
	}
	c.conn = conn
	c.opt.metrics.Counter("client.dials").Inc()
	return nil
}

// Attest implements SecretChannel: it performs the attestation handshake,
// retrying transient failures on fresh connections. Unless the client is
// unbundled, the handshake asks the server to bundle the meta and data
// responses into its reply, pre-filling the cache later Requests drain.
func (c *TCPClient) Attest(ctx context.Context, q *sgx.Quote, clientPub []byte) ([]byte, error) {
	var bundle byte
	if c.opt.proto >= ProtoV1 {
		bundle = bundleMeta | bundleData
	}
	return c.attest(ctx, q, clientPub, kindAttest, bundle)
}

// ResumeAttest runs the attestation handshake as a session resume: same
// wire exchange as Attest, but the resume kind tells the server "this
// client is mid-protocol — resume, don't restart". Two things follow: a
// resume-replicating server answers with the session's original channel
// key (locally cached or fetched from a fleet peer) rather than a fresh
// one, and no pre-fetched responses are bundled, so nothing can land at
// the wrong position in the already-running protocol. The failover layer
// uses this when it re-attests an established session on a new replica; a
// fresh restore wants Attest.
func (c *TCPClient) ResumeAttest(ctx context.Context, q *sgx.Quote, clientPub []byte) ([]byte, error) {
	c.opt.metrics.Counter("client.resume_attests").Inc()
	return c.attest(ctx, q, clientPub, kindResume, 0)
}

// attest is the shared handshake engine behind Attest and ResumeAttest.
func (c *TCPClient) attest(ctx context.Context, q *sgx.Quote, clientPub []byte, kind, bundle byte) ([]byte, error) {
	msg := &attestMsg{Quote: q, ClientPub: append([]byte(nil), clientPub...), Kind: kind, Bundle: bundle}
	// Stamp the restore trace so the server's session spans join it; the
	// resume on reconnects reuses these IDs, keeping the resumed session in
	// the same trace.
	if sp := obs.SpanFromContext(ctx); sp != nil {
		msg.TraceID, msg.SpanID = sp.TraceID(), sp.ID()
	}
	replay := *msg
	replay.Kind, replay.Bundle = kindResume, 0
	defer c.opt.metrics.Observe("client.attest_ns", time.Now())
	return c.withRetry(ctx, "client.attest", func() ([]byte, error) {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.pending = nil // a (re)attestation restarts the protocol sequence
		// A connection carries one handshake: the server reads everything
		// after it as channel requests, so a re-attest needs a new one.
		_ = c.closeConnLocked()
		if err := c.ensureConnLocked(ctx); err != nil {
			return nil, err
		}
		c.setDeadlineLocked()
		if err := writeHandshake(c.conn, msg); err != nil {
			return nil, err
		}
		c.opt.metrics.Counter("client.flights").Inc()
		payload, err := readResponse(c.conn)
		if err != nil {
			return nil, err
		}
		pub, bundled, err := parseAttestReply(payload)
		if err != nil {
			return nil, err
		}
		c.attested = true
		c.handshake = &replay
		c.pending = bundled
		if len(bundled) > 0 {
			c.opt.metrics.Counter("client.bundled_attests").Inc()
		}
		return pub, nil
	})
}

// Request implements SecretChannel: one encrypted exchange on the
// attested channel. When the attest reply bundled the response it is
// served from the cache without touching the wire; otherwise it is one
// round trip. On a transient failure it reconnects and sends the session
// resume and the request back to back — one flight — so the server-side
// session and channel key carry over.
func (c *TCPClient) Request(ctx context.Context, enc []byte) ([]byte, error) {
	c.mu.Lock()
	if !c.attested {
		c.mu.Unlock()
		return nil, ErrNotAttested
	}
	if len(c.pending) > 0 {
		resp := c.pending[0]
		c.pending = c.pending[1:]
		c.mu.Unlock()
		c.opt.metrics.Counter("client.bundle_hits").Inc()
		obs.SpanFromContext(ctx).SetStr("transport", "bundled")
		return resp, nil
	}
	c.mu.Unlock()
	defer c.opt.metrics.Observe("client.request_ns", time.Now())
	return c.withRetry(ctx, "client.request", func() ([]byte, error) {
		c.mu.Lock()
		defer c.mu.Unlock()
		fresh := c.conn == nil
		if err := c.ensureConnLocked(ctx); err != nil {
			return nil, err
		}
		c.setDeadlineLocked()
		if fresh {
			if err := writeHandshake(c.conn, c.handshake); err != nil {
				return nil, err
			}
			c.opt.metrics.Counter("client.pipelined_resumes").Inc()
		}
		if err := writeFrame(c.conn, enc); err != nil {
			return nil, err
		}
		c.opt.metrics.Counter("client.flights").Inc()
		if fresh {
			if _, err := readResponse(c.conn); err != nil {
				return nil, err
			}
		}
		return readResponse(c.conn)
	})
}

// setDeadlineLocked arms the per-operation I/O deadline. A SetDeadline
// failure means the connection is already dead; the next read or write
// reports that with a more useful error than the deadline call would.
func (c *TCPClient) setDeadlineLocked() {
	if c.opt.requestTimeout > 0 {
		_ = c.conn.SetDeadline(time.Now().Add(c.opt.requestTimeout))
	}
}

// withRetry runs op, retrying transient failures with exponential backoff
// and jitter until the budget is spent, then reports ErrServerUnavailable.
// A server overload answer is also retried — honoring the server's
// retry-after hint when it exceeds the backoff — but when the budget runs
// out it surfaces as the typed *OverloadedError, not as unavailability:
// the server is alive, it just said "not now". The whole operation is one
// span (parented to the context's span when present), with an "attempt"
// child per try so a trace shows the retry history, not just the final
// outcome.
func (c *TCPClient) withRetry(ctx context.Context, metric string, op func() ([]byte, error)) (out []byte, err error) {
	span := obs.SpanFromContext(ctx).Child(metric)
	if span == nil {
		span = c.opt.tracer.Start(metric)
	}
	tried := 0
	defer func() {
		span.SetInt("attempts", int64(tried))
		span.SetError(err)
		span.End()
	}()
	var last error
	var overloadDelay time.Duration
	attempts := c.opt.maxRetries + 1
	for attempt := 0; attempt < attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if attempt > 0 {
			c.opt.metrics.Counter(metric + "_retries").Inc()
			delay := c.backoff(attempt - 1)
			if overloadDelay > delay {
				delay = overloadDelay
			}
			overloadDelay = 0
			if err := sleepCtx(ctx, delay); err != nil {
				return nil, err
			}
		}
		tried++
		asp := span.Child("attempt")
		out, err := op()
		if err == nil {
			asp.End()
			return out, nil
		}
		asp.SetError(err)
		asp.End()
		// A dead connection must not be reused by the next attempt (or a
		// later Request); drop it before classifying the error. The close
		// error is irrelevant next to the op error being handled.
		c.mu.Lock()
		_ = c.closeConnLocked()
		c.mu.Unlock()
		var oe *OverloadedError
		if errors.As(err, &oe) {
			c.opt.metrics.Counter(metric + "_overloaded").Inc()
			overloadDelay = oe.RetryAfter
			if overloadDelay > c.opt.backoffCap {
				overloadDelay = c.opt.backoffCap
			}
			last = err
			continue
		}
		if !isTransient(err) {
			return nil, err
		}
		last = err
	}
	var oe *OverloadedError
	if errors.As(last, &oe) {
		return nil, last
	}
	c.opt.metrics.Counter(metric + "_unavailable").Inc()
	return nil, &unavailableError{attempts: attempts, last: last}
}

// backoff computes the jittered exponential delay for the given retry
// index: uniform in [base/2, base) * 2^i, clamped to the cap. The jitter
// comes from math/rand/v2's process-wide generator, which is safe for
// concurrent use without a lock — backoffs from parallel requests on one
// client must neither race on a shared rand.Rand nor contend on the
// client mutex that the in-flight operation holds.
func (c *TCPClient) backoff(i int) time.Duration {
	d := c.opt.backoffBase << uint(i)
	if d > c.opt.backoffCap || d <= 0 {
		d = c.opt.backoffCap
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + rand.N(half)
}

// sleepCtx sleeps d or returns early with the context's error.
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
