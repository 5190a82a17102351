package elide

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"sgxelide/internal/obs"
	"sgxelide/internal/sgx"
)

// Breaker states of one endpoint (the classic three-state circuit
// breaker): Closed admits traffic, Open rejects it until a cooldown
// passes, HalfOpen admits a single probe whose outcome decides between
// the other two.
const (
	BreakerClosed int32 = iota
	BreakerOpen
	BreakerHalfOpen
)

// healthAlpha is the smoothing factor of an endpoint's success and
// latency EWMAs (larger = faster reaction to recent outcomes).
const healthAlpha = 0.3

// Endpoint is one replicated authentication server in an EndpointPool:
// its address plus the local view of its health — a circuit breaker and
// success/latency EWMAs. All state is caller-local (each user machine
// tracks its own breakers, as it must: it only sees its own traffic).
type Endpoint struct {
	Addr  string
	index int

	mu          sync.Mutex
	state       int32
	consecFails int
	openedAt    time.Time
	probing     bool // a half-open probe is in flight

	// health is an EWMA of the success indicator (1 success, 0 failure),
	// starting optimistic at 1; latency is an EWMA of operation time in
	// nanoseconds. Together they rank endpoints: highest health wins,
	// latency breaks ties.
	health  float64
	latency float64
}

// State returns the endpoint's current breaker state.
func (e *Endpoint) State() int32 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.state
}

// Health returns the endpoint's success EWMA in [0, 1].
func (e *Endpoint) Health() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.health
}

// poolOptions collects the failover policy knobs. The With* constructors
// live in options.go alongside the other families.
type poolOptions struct {
	failThreshold int           // consecutive failures that trip the breaker
	cooldown      time.Duration // open → half-open delay
	metrics       *obs.Registry
	audit         *obs.AuditLog
	clientOpts    []ClientOption
	newClient     func(addr string) SecretChannel
	now           func() time.Time
	retry         retryPolicy // read from clientOpts; one attempt is one pass
}

// EndpointPool tracks a replicated authentication-server set: which
// endpoints exist, how healthy each looks from here, and which breaker
// admits traffic right now. The configured addresses are seeds:
// SyncMembership (or a WatchMembership loop) asks the fleet for its
// current member list and grows/shrinks the pool to match.
type EndpointPool struct {
	opt   poolOptions
	trips func() // metrics hook

	mu        sync.RWMutex
	endpoints []*Endpoint
	byAddr    map[string]*Endpoint
	nextIndex int // monotonic: a re-added endpoint gets a fresh metric index
}

// NewEndpointPool builds a pool over the given addresses.
func NewEndpointPool(addrs []string, opts ...FailoverOption) *EndpointPool {
	o := poolOptions{
		failThreshold: DefaultBreakerThreshold,
		cooldown:      DefaultBreakerCooldown,
		now:           time.Now,
	}
	for _, fn := range opts {
		fn(&o)
	}
	co := newClientOptions(o.clientOpts)
	o.retry = co.retry
	if o.newClient == nil {
		co.retry.budget = 0 // the pool's passes are the retries
		o.newClient = func(addr string) SecretChannel {
			return &TCPClient{addr: addr, opt: co}
		}
	}
	p := &EndpointPool{opt: o, byAddr: make(map[string]*Endpoint)}
	for _, a := range addrs {
		if _, dup := p.byAddr[a]; dup {
			continue
		}
		e := &Endpoint{Addr: a, index: p.nextIndex, health: 1}
		p.nextIndex++
		p.endpoints = append(p.endpoints, e)
		p.byAddr[a] = e
	}
	return p
}

// Endpoints returns a snapshot of the pool's endpoints (for diagnostics).
func (p *EndpointPool) Endpoints() []*Endpoint {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return append([]*Endpoint(nil), p.endpoints...)
}

// has reports whether addr is currently in the pool.
func (p *EndpointPool) has(addr string) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	_, ok := p.byAddr[addr]
	return ok
}

// pick chooses the best endpoint the breakers admit, skipping excluded
// ones: closed endpoints ranked by health EWMA (latency EWMA breaking
// ties), then — only if no closed endpoint is available — an open
// endpoint whose cooldown has elapsed, transitioned to half-open for a
// single probe. Returns nil when every endpoint is excluded or open.
func (p *EndpointPool) pick(exclude map[*Endpoint]bool) *Endpoint {
	var best *Endpoint
	var bestHealth, bestLatency float64
	now := p.opt.now()
	endpoints := p.Endpoints()
	for _, e := range endpoints {
		if exclude[e] {
			continue
		}
		e.mu.Lock()
		if e.state != BreakerClosed {
			e.mu.Unlock()
			continue
		}
		h, l := e.health, e.latency
		e.mu.Unlock()
		if best == nil || h > bestHealth || (h == bestHealth && l < bestLatency) {
			best, bestHealth, bestLatency = e, h, l
		}
	}
	if best != nil {
		return best
	}
	// No closed endpoint: allow one half-open probe on a cooled-down one.
	for _, e := range endpoints {
		if exclude[e] {
			continue
		}
		e.mu.Lock()
		switch e.state {
		case BreakerOpen:
			if now.Sub(e.openedAt) >= p.opt.cooldown {
				e.state = BreakerHalfOpen
				e.probing = true
				e.mu.Unlock()
				p.count("failover.probes")
				return e
			}
		case BreakerHalfOpen:
			if !e.probing {
				e.probing = true
				e.mu.Unlock()
				p.count("failover.probes")
				return e
			}
		}
		e.mu.Unlock()
	}
	return nil
}

// record feeds one operation's outcome into the endpoint's health view
// and drives the breaker state machine.
func (p *EndpointPool) record(e *Endpoint, ok bool, dur time.Duration) {
	a := healthAlpha
	e.mu.Lock()
	if ok {
		e.consecFails = 0
		e.health = a*1 + (1-a)*e.health
		e.latency = a*float64(dur.Nanoseconds()) + (1-a)*e.latency
		if e.state != BreakerClosed {
			e.state = BreakerClosed
			e.probing = false
			e.mu.Unlock()
			p.count("failover.breaker_closes")
			p.opt.audit.Emit(obs.AuditEvent{Type: obs.AuditBreakerClose, Endpoint: e.Addr, Detail: "probe succeeded"})
			p.count(fmt.Sprintf("failover.ok.ep_%d", e.index))
			return
		}
		e.mu.Unlock()
		p.count(fmt.Sprintf("failover.ok.ep_%d", e.index))
		return
	}
	e.consecFails++
	fails := e.consecFails
	e.health = (1 - a) * e.health
	tripped := false
	switch e.state {
	case BreakerHalfOpen:
		// Failed probe: straight back to open, fresh cooldown.
		e.state = BreakerOpen
		e.openedAt = p.opt.now()
		e.probing = false
		tripped = true
	case BreakerClosed:
		if e.consecFails >= p.opt.failThreshold {
			e.state = BreakerOpen
			e.openedAt = p.opt.now()
			tripped = true
		}
	}
	e.mu.Unlock()
	p.count(fmt.Sprintf("failover.fail.ep_%d", e.index))
	if tripped {
		p.count("failover.breaker_trips")
		p.opt.audit.Emit(obs.AuditEvent{
			Type: obs.AuditBreakerOpen, Endpoint: e.Addr,
			Detail: fmt.Sprintf("%d consecutive failures", fails),
		})
	}
}

// count bumps a pool metric (nil-registry safe).
func (p *EndpointPool) count(name string) { p.opt.metrics.Counter(name).Inc() }

// settle records one endpoint try of a pass and reports whether it ends
// the pass: a success or a final answer does; a transient failure or an
// overload answer moves the pass on to the next endpoint. An endpoint that
// answered — even to refuse or to shed — is healthy for breaker purposes.
func (p *EndpointPool) settle(e *Endpoint, err error, start time.Time) bool {
	transient, shed := isTransient(err), errors.Is(err, ErrOverloaded)
	p.record(e, !transient, time.Since(start))
	if shed {
		p.count("failover.overloaded") // alive but shedding: a replica may have quota to spare
	}
	return !transient && !shed
}

// exhausted is the error of a pass that got no answer: the last endpoint's
// failure, or, when the breakers admitted no endpoint at all, an error
// naming them. Either is transient, so a spent budget reports it wrapped
// in ErrServerUnavailable.
func (p *EndpointPool) exhausted(last error) error {
	if errors.Is(last, ErrOverloaded) {
		return last
	}
	p.count("failover.exhausted")
	if last == nil {
		return fmt.Errorf("elide: no endpoint admitted: %v", p.HealthCheck())
	}
	return last
}

// HealthCheck reports the pool degraded while any endpoint's breaker is
// not admitting normal traffic — the /healthz readiness source for a
// process fronting a replicated server fleet.
func (p *EndpointPool) HealthCheck() error {
	var open []string
	for _, e := range p.Endpoints() {
		if e.State() != BreakerClosed {
			open = append(open, e.Addr)
		}
	}
	if len(open) > 0 {
		return fmt.Errorf("open circuit breakers: %v", open)
	}
	return nil
}

// SyncMembership asks the fleet for its current member list — walking
// the pool until some endpoint answers the membership query — and
// resizes the pool to match: members the mesh reports alive or suspect
// are (re)admitted, and every other endpoint, configured or learned, is
// dropped. Returns an error only when no endpoint answered (a server
// outside any fleet refuses the query); the pool is then left as it was.
func (p *EndpointPool) SyncMembership(ctx context.Context) error {
	var last error
	for _, e := range p.Endpoints() {
		c := p.opt.newClient(e.Addr)
		q, ok := c.(membershipQuerier)
		if !ok {
			_ = c.Close()
			return fmt.Errorf("elide: pool's channel implementation cannot query membership")
		}
		ms, err := q.Members(ctx)
		_ = c.Close()
		if err != nil {
			last = err
			continue
		}
		added, removed := p.applyMembers(ms)
		p.count("failover.membership_syncs")
		if len(added)+len(removed) > 0 {
			p.count("failover.membership_changes")
			p.opt.audit.Emit(obs.AuditEvent{
				Type: obs.AuditMemberJoin, Endpoint: e.Addr,
				Detail: fmt.Sprintf("pool resynced: +%d -%d endpoints", len(added), len(removed)),
			})
		}
		return nil
	}
	return fmt.Errorf("elide: no endpoint answered the membership query: %w", last)
}

// applyMembers applies one fleet view to the pool under the
// SyncMembership rules.
func (p *EndpointPool) applyMembers(ms []Member) (added, removed []string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	inFleet := make(map[string]bool, len(ms))
	for _, m := range ms {
		if m.Status == MemberDead {
			continue
		}
		inFleet[m.Addr] = true
		if _, ok := p.byAddr[m.Addr]; !ok {
			e := &Endpoint{Addr: m.Addr, index: p.nextIndex, health: 1}
			p.nextIndex++
			p.byAddr[m.Addr] = e
			p.endpoints = append(p.endpoints, e)
			added = append(added, m.Addr)
		}
	}
	var kept []*Endpoint
	for _, e := range p.endpoints {
		if !inFleet[e.Addr] {
			delete(p.byAddr, e.Addr)
			removed = append(removed, e.Addr)
			continue
		}
		kept = append(kept, e)
	}
	p.endpoints = kept
	p.opt.metrics.Gauge("failover.endpoints").Set(int64(len(kept)))
	return added, removed
}

// WatchMembership starts a background loop calling SyncMembership every
// interval (DefaultMembershipInterval when interval <= 0) until ctx
// ends. Sync failures are counted and retried next tick — a fleet that
// temporarily cannot answer leaves the pool as it was.
func (p *EndpointPool) WatchMembership(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = DefaultMembershipInterval
	}
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				if err := p.SyncMembership(ctx); err != nil {
					p.count("failover.membership_sync_errors")
				}
			}
		}
	}()
}

// FailoverClient exposes the SecretChannel surface over an EndpointPool
// of replicated authentication servers, and runs the retry policy over
// passes of the pool: one attempt tries each admitted endpoint once, so a
// dead endpoint costs one dial per pass, and none once its breaker opens.
// Attest tries endpoints in health order until one accepts; Request runs
// on the endpoint that attested and, when that endpoint dies mid-protocol,
// re-attests to a replica — sessions are per-server, so the replayed
// handshake either resumes the same channel (same server public key:
// carry on transparently) or lands on a different key, in which case the
// in-flight protocol run cannot continue and Request returns
// ErrSessionLost for the restore-level chain to retry from scratch.
//
// A FailoverClient is safe for concurrent use, though the restore
// protocol itself is sequential.
type FailoverClient struct {
	pool *EndpointPool

	mu        sync.Mutex
	clients   map[string]SecretChannel // per-endpoint, lazily built, reused
	cur       *Endpoint
	handshake *attestMsg // last successful handshake, replayed on switches
	serverPub []byte     // the public key the enclave's channel key is bound to
}

// NewFailoverClient builds a failover client over the given replica
// addresses.
func NewFailoverClient(addrs []string, opts ...FailoverOption) (*FailoverClient, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("elide: failover client needs at least one endpoint")
	}
	return &FailoverClient{
		pool:    NewEndpointPool(addrs, opts...),
		clients: make(map[string]SecretChannel),
	}, nil
}

// NewFailoverClientFromPool builds a failover client over an existing
// (possibly shared) pool. Sharing one pool across many clients on a
// machine pools their health observations: a replica that kills one
// client's connection is instantly suspect for every other client, and
// breaker state reflects the fleet's view rather than one session's.
func NewFailoverClientFromPool(pool *EndpointPool) *FailoverClient {
	return &FailoverClient{pool: pool, clients: make(map[string]SecretChannel)}
}

// Pool returns the underlying endpoint pool (for diagnostics and tests).
func (fc *FailoverClient) Pool() *EndpointPool { return fc.pool }

// Close implements SecretChannel: it closes every per-endpoint channel.
func (fc *FailoverClient) Close() error {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	var first error
	for _, c := range fc.clients {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// sessionResumer is the optional SecretChannel capability the failover
// layer prefers when it must re-attest an established session on a new
// replica: ResumeAttest sends a resume handshake (no bundle request), so
// a resume-replicating fleet hands back the original channel
// key and nothing lands at the wrong position in the mid-protocol stream.
// TCPClient implements it; a channel without it gets a plain Attest,
// which is correct but downgrades to session-lost when the replica
// cannot resume.
type sessionResumer interface {
	ResumeAttest(ctx context.Context, q *sgx.Quote, clientPub []byte) ([]byte, error)
}

// clientFor returns (building if needed) the channel for an endpoint.
// Channels cached for endpoints the membership layer has since removed
// are pruned here — except the current session's, which may legitimately
// outlive its endpoint's pool entry (an in-flight protocol run keeps its
// connection until it ends or fails over).
func (fc *FailoverClient) clientFor(e *Endpoint) SecretChannel {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	for addr, cached := range fc.clients {
		if addr == e.Addr || (fc.cur != nil && fc.cur.Addr == addr) {
			continue
		}
		if !fc.pool.has(addr) {
			_ = cached.Close()
			delete(fc.clients, addr)
		}
	}
	c, ok := fc.clients[e.Addr]
	if !ok {
		c = fc.pool.opt.newClient(e.Addr)
		fc.clients[e.Addr] = c
	}
	return c
}

// Attest implements SecretChannel under the pool's retry policy: each
// attempt tries every admitted endpoint once, in health order, until one
// accepts. A refusal (the server answered and said no) is terminal — a
// replica will refuse the same quote for the same reason.
func (fc *FailoverClient) Attest(ctx context.Context, q *sgx.Quote, clientPub []byte) ([]byte, error) {
	return fc.pool.opt.retry.run(ctx, nil, fc.pool.opt.metrics, "failover.attest", func(ctx context.Context) ([]byte, error) {
		return fc.attestPass(ctx, q, clientPub)
	})
}

// attestPass is one attempt of Attest: one try per admitted endpoint.
func (fc *FailoverClient) attestPass(ctx context.Context, q *sgx.Quote, clientPub []byte) ([]byte, error) {
	span := obs.SpanFromContext(ctx)
	tried := make(map[*Endpoint]bool)
	var last error
	for e := fc.pool.pick(tried); e != nil; e = fc.pool.pick(tried) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		tried[e] = true
		esp := span.Child("endpoint")
		esp.SetStr("addr", e.Addr)
		start := time.Now()
		pub, err := fc.clientFor(e).Attest(ctx, q, clientPub)
		esp.SetError(err)
		esp.End()
		if !fc.pool.settle(e, err, start) {
			last = err
			continue
		}
		if err != nil {
			return nil, err
		}
		fc.mu.Lock()
		// An attest that had to walk past dead endpoints, or that landed
		// somewhere other than the session's previous home, is a switch.
		if len(tried) > 1 || (fc.cur != nil && fc.cur != e) {
			fc.pool.count("failover.switches")
			fc.pool.opt.audit.Emit(obs.AuditEvent{
				Type: obs.AuditFailoverSwitch, Endpoint: e.Addr,
				TraceID: span.TraceID(), Detail: "attest walked the pool",
			})
		}
		fc.cur = e
		fc.handshake = &attestMsg{Quote: q, ClientPub: append([]byte(nil), clientPub...)}
		fc.serverPub = append([]byte(nil), pub...)
		fc.mu.Unlock()
		return pub, nil
	}
	return nil, fc.pool.exhausted(last)
}

// Request implements SecretChannel: one encrypted round trip, under the
// pool's retry policy. Each attempt first tries the endpoint that holds
// the session, while its breaker is closed; that client pipelines a
// session resume on a fresh connection. Then the request fails over: the
// stored handshake is re-attested on the next admitted replica and the
// returned server key compared against the one the enclave's channel key
// is bound to. Same key: the session resumed, the request runs there.
// Different key: the protocol run is unrecoverable mid-flight and
// ErrSessionLost is returned.
func (fc *FailoverClient) Request(ctx context.Context, enc []byte) ([]byte, error) {
	return fc.pool.opt.retry.run(ctx, nil, fc.pool.opt.metrics, "failover.request", func(ctx context.Context) ([]byte, error) {
		return fc.requestPass(ctx, enc)
	})
}

// requestPass is one attempt of Request.
func (fc *FailoverClient) requestPass(ctx context.Context, enc []byte) ([]byte, error) {
	fc.mu.Lock()
	cur, handshake, boundPub := fc.cur, fc.handshake, fc.serverPub
	fc.mu.Unlock()
	if cur == nil {
		return nil, ErrNotAttested
	}
	span := obs.SpanFromContext(ctx)
	tried := map[*Endpoint]bool{cur: true}
	var last error
	if cur.State() == BreakerClosed {
		start := time.Now()
		out, err := fc.clientFor(cur).Request(ctx, enc)
		if fc.pool.settle(cur, err, start) {
			return out, err
		}
		last = err
	}
	// Sessions are per-server, so each candidate replica must re-attest
	// first.
	for e := fc.pool.pick(tried); e != nil; e = fc.pool.pick(tried) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		tried[e] = true
		esp := span.Child("failover")
		esp.SetStr("addr", e.Addr)
		start := time.Now()
		out, err := fc.resumeOn(ctx, e, handshake, boundPub, enc, esp)
		esp.SetError(err)
		esp.End()
		if fc.pool.settle(e, err, start) {
			return out, err
		}
		last = err
	}
	return nil, fc.pool.exhausted(last)
}

// resumeOn re-attests the session's handshake on e and, when e answers
// with the key the enclave's channel is bound to, sends the request there.
func (fc *FailoverClient) resumeOn(ctx context.Context, e *Endpoint, handshake *attestMsg, boundPub, enc []byte, esp *obs.Span) ([]byte, error) {
	c := fc.clientFor(e)
	var pub []byte
	var err error
	if r, ok := c.(sessionResumer); ok {
		pub, err = r.ResumeAttest(ctx, handshake.Quote, handshake.ClientPub)
	} else {
		pub, err = c.Attest(ctx, handshake.Quote, handshake.ClientPub)
	}
	if err != nil {
		return nil, err
	}
	fc.pool.count("failover.switches")
	fc.pool.opt.audit.Emit(obs.AuditEvent{
		Type: obs.AuditFailoverSwitch, Endpoint: e.Addr,
		TraceID: esp.TraceID(), Detail: "mid-protocol re-attest",
	})
	fc.mu.Lock()
	fc.cur = e
	fc.serverPub = append([]byte(nil), pub...)
	fc.mu.Unlock()
	if !bytes.Equal(pub, boundPub) {
		// The replica established a *different* channel: the enclave's
		// key is bound to the dead server's key and cannot decrypt
		// anything this replica sends. The in-flight protocol run is
		// over; a fresh elide_restore will attest here directly.
		esp.SetStr("outcome", "session_lost")
		fc.pool.count("failover.session_lost")
		fc.pool.opt.audit.Emit(obs.AuditEvent{
			Type: obs.AuditSessionLost, Endpoint: e.Addr,
			TraceID: esp.TraceID(), Detail: "replica holds a different server identity",
		})
		return nil, ErrSessionLost
	}
	// Same server key (a replicated or persistent resume cache): the
	// channel survived the switch — finish the request here.
	esp.SetStr("outcome", "resumed")
	fc.pool.count("failover.session_resumed")
	return c.Request(ctx, enc)
}
