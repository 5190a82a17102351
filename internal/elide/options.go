package elide

import (
	"context"
	"net"
	"time"

	"sgxelide/internal/obs"
)

// This file is the single home of the package's functional options: the
// three families (ClientOption, ServerOption, FailoverOption) share their
// defaults and naming conventions here instead of drifting apart in three
// files. Conventions: With*Timeout for deadlines, WithRetry* for retry
// policy, With*Metrics / With*Tracer for observability wiring.

// Shared defaults of the transport and server policies. Exported so
// operators tuning one knob can express the others relative to the
// defaults instead of restating magic numbers.
const (
	// DefaultDialTimeout bounds one TCP connection attempt.
	DefaultDialTimeout = 5 * time.Second
	// DefaultRequestTimeout bounds one attest/request round trip.
	DefaultRequestTimeout = 30 * time.Second
	// DefaultRetryBudget is how many times a transient failure is retried
	// after the first attempt.
	DefaultRetryBudget = 3
	// DefaultBackoffBase is the base of the jittered exponential backoff
	// between retries.
	DefaultBackoffBase = 50 * time.Millisecond
	// DefaultBackoffCap clamps the exponential backoff.
	DefaultBackoffCap = 2 * time.Second
	// DefaultMaxSessions caps concurrent TCP sessions on the server.
	DefaultMaxSessions = 256
	// DefaultIOTimeout is the server's per-connection read/write deadline.
	DefaultIOTimeout = 30 * time.Second
	// DefaultDrainTimeout bounds the server's graceful-shutdown drain.
	DefaultDrainTimeout = 10 * time.Second
	// DefaultResumeCacheSize caps the server's session-resumption cache.
	DefaultResumeCacheSize = 1024
	// DefaultResumeTTL bounds how long a cached channel may be resumed;
	// past it a reconnecting client pays the full handshake again.
	DefaultResumeTTL = 15 * time.Minute
	// DefaultPeerOpTimeout bounds one replication-link operation (dial
	// excluded, see DefaultDialTimeout).
	DefaultPeerOpTimeout = 2 * time.Second
	// DefaultBreakerThreshold is how many consecutive failures trip an
	// endpoint's circuit breaker.
	DefaultBreakerThreshold = 3
	// DefaultBreakerCooldown is the open → half-open delay.
	DefaultBreakerCooldown = 5 * time.Second
	// DefaultGossipInterval is the membership probe/gossip round cadence.
	DefaultGossipInterval = time.Second
	// DefaultSuspectTimeout is how long a suspected member has to refute
	// the suspicion (directly or via gossip) before it is declared dead.
	DefaultSuspectTimeout = 5 * time.Second
	// DefaultMembershipInterval is the cadence at which a watching
	// EndpointPool re-queries the fleet for its current member set.
	DefaultMembershipInterval = 15 * time.Second
)

// --- ClientOption (TCPClient) ---

// ClientOption configures a TCPClient.
type ClientOption func(*clientOptions)

// WithDialTimeout bounds each connection attempt (default
// DefaultDialTimeout).
func WithDialTimeout(d time.Duration) ClientOption {
	return func(o *clientOptions) { o.dialTimeout = d }
}

// WithRequestTimeout bounds each attest/request round trip, including the
// reads and writes on the wire (default DefaultRequestTimeout).
func WithRequestTimeout(d time.Duration) ClientOption {
	return func(o *clientOptions) { o.requestTimeout = d }
}

// WithRetryBudget sets how many times a transient failure is retried after
// the first attempt (default DefaultRetryBudget; 0 disables retries).
func WithRetryBudget(n int) ClientOption {
	return func(o *clientOptions) { o.retry.budget = n }
}

// WithRetryBackoff sets the exponential backoff base and cap between
// retries (default DefaultBackoffBase, DefaultBackoffCap). Each retry
// sleeps a uniformly jittered duration in [base/2, base) * 2^attempt,
// clamped to cap.
func WithRetryBackoff(base, cap time.Duration) ClientOption {
	return func(o *clientOptions) { o.retry.base, o.retry.cap = base, cap }
}

// WithProtocolVersion sets what the client asks of the one wire protocol
// (default ProtoV1). At ProtoV1 the attestation handshake asks the server
// to bundle the encrypted meta and data responses into its reply,
// collapsing the restore's three round trips into one flight.
// ProtoUnbundled asks for no bundle: one flight per protocol step, the
// load benchmark's baseline.
func WithProtocolVersion(v uint8) ClientOption {
	return func(o *clientOptions) { o.proto = v }
}

// WithClientMetrics wires the client into an obs registry.
func WithClientMetrics(r *obs.Registry) ClientOption {
	return func(o *clientOptions) { o.metrics = r }
}

// WithClientTracer wires the client into an obs tracer: each Attest or
// Request becomes a span (with per-attempt children showing the retry
// history). When the caller's context already carries a span — the
// restore runtime passes its phase span down — the client parents to it
// and the tracer option is unnecessary.
func WithClientTracer(t *obs.Tracer) ClientOption {
	return func(o *clientOptions) { o.tracer = t }
}

// WithDialer replaces the TCP dialer — tests use this to inject faulty
// connections or in-memory pipes.
func WithDialer(dial func(ctx context.Context, addr string) (net.Conn, error)) ClientOption {
	return func(o *clientOptions) { o.dial = dial }
}

// --- ServerOption (Server) ---

// ServerOption configures a Server's serving policy beyond its CA and
// secret store.
type ServerOption func(*serverOptions)

// WithMaxSessions caps concurrent TCP sessions; further accepts block until
// a slot frees (default DefaultMaxSessions).
func WithMaxSessions(n int) ServerOption {
	return func(o *serverOptions) { o.maxSessions = n }
}

// WithIOTimeout sets the per-connection read/write deadline armed before
// every wire interaction (default DefaultIOTimeout). A session idle longer
// than this is dropped.
func WithIOTimeout(d time.Duration) ServerOption {
	return func(o *serverOptions) { o.ioTimeout = d }
}

// WithDrainTimeout bounds how long Serve waits for in-flight sessions
// after its context is cancelled before force-closing their connections
// (default DefaultDrainTimeout).
func WithDrainTimeout(d time.Duration) ServerOption {
	return func(o *serverOptions) { o.drain = d }
}

// WithResumeCacheSize caps the session-resumption cache (default
// DefaultResumeCacheSize entries; 0 disables resumption).
func WithResumeCacheSize(n int) ServerOption {
	return func(o *serverOptions) { o.resumeCap = n }
}

// WithResumeTTL bounds how long a cached channel may be resumed (default
// DefaultResumeTTL; d <= 0 disables expiry). Expiry is lazy: an entry
// past its TTL is dropped on lookup, audited as AuditResumeExpired, and
// the client re-attests in full — the revocation backstop for a
// compromised-then-revoked client that would otherwise stay hot in the
// LRU forever.
func WithResumeTTL(d time.Duration) ServerOption {
	return func(o *serverOptions) { o.resumeTTL = d }
}

// WithFleet makes this server a fleet member (DESIGN §14–15). fleetKey is
// the shared AES sealing key (16/24/32 bytes) under which resume records
// and membership cross the wire, so a node outside the fleet can neither
// read a channel key, forge a death certificate, nor enumerate the mesh.
// self is the address this server advertises — the one the other members
// dial back, not the listen wildcard. seeds are members to join through;
// one live seed is enough to learn the whole fleet. A member runs
// SWIM-style failure detection and anti-entropy over its peer links,
// pushes every fresh channel to each member not declared dead, and
// fetches from them on a replayed-handshake miss. An invalid key or an
// empty self is a construction error.
func WithFleet(fleetKey []byte, self string, seeds ...string) ServerOption {
	return func(o *serverOptions) {
		o.fleet = true
		o.fleetKey = append([]byte(nil), fleetKey...)
		o.self = self
		o.seeds = append([]string(nil), seeds...)
	}
}

// WithGossipInterval sets the membership probe/gossip round cadence
// (default DefaultGossipInterval).
func WithGossipInterval(d time.Duration) ServerOption {
	return func(o *serverOptions) { o.gossipInterval = d }
}

// WithSuspectTimeout sets how long a suspected member has to refute the
// suspicion before it is declared dead (default DefaultSuspectTimeout).
// Shorter detects failures faster but false-positives under load; the
// SWIM incarnation machinery makes a false positive self-healing, not
// fatal — the suspect refutes with a bumped incarnation on the next
// round.
func WithSuspectTimeout(d time.Duration) ServerOption {
	return func(o *serverOptions) { o.suspectTimeout = d }
}

// withPeerDialer replaces the fleet's peer dialer — an in-package test
// seam for tests that gate which peers can reach which or count links.
func withPeerDialer(dial func(addr string, timeout time.Duration) (net.Conn, error)) ServerOption {
	return func(o *serverOptions) { o.peerDial = dial }
}

// WithEnclaveRateLimit bounds fresh attestations per registered enclave
// with a token bucket: rps tokens per second, holding at most burst
// (default off; burst <= 0 defaults to one second's worth of rate). A client attesting past the bucket receives a typed
// overload answer (ErrOverloaded) carrying a retry-after hint instead of
// a refusal, so one noisy deployment's restore storm cannot starve the
// other enclaves the store serves. Session resumptions are not charged —
// a reconnecting client mid-protocol must not be pushed into a retry
// loop by its own enclave's quota.
func WithEnclaveRateLimit(rps float64, burst int) ServerOption {
	return func(o *serverOptions) { o.attestRate, o.attestBurst = rps, burst }
}

// WithEnclaveInflightLimit caps concurrently served channel requests per
// registered enclave (default off). Requests past the cap receive a typed
// overload answer (ErrOverloaded); other enclaves' sessions are
// unaffected. This bounds the serving work one enclave's fleet can pin,
// not its connection count — WithMaxSessions bounds that globally.
func WithEnclaveInflightLimit(n int) ServerOption {
	return func(o *serverOptions) { o.maxInflight = n }
}

// WithServerMetrics wires the server into an obs registry.
func WithServerMetrics(r *obs.Registry) ServerOption {
	return func(o *serverOptions) { o.metrics = r }
}

// WithServerTracer wires the server into an obs tracer: each TCP session
// becomes a span tree with a child per protocol phase — the server-side
// mirror of the client's restore pipeline. When the client's handshake
// carries trace context, the session span joins the client's restore
// trace instead of rooting its own, so merged exports render one
// cross-process tree.
func WithServerTracer(t *obs.Tracer) ServerOption {
	return func(o *serverOptions) { o.tracer = t }
}

// WithServerAudit wires the server into an audit log: every attestation
// verdict, resume-cache outcome, and QoS shed becomes a schema-versioned
// wide event carrying the session's trace ID.
func WithServerAudit(a *obs.AuditLog) ServerOption {
	return func(o *serverOptions) { o.audit = a }
}

// --- FailoverOption (FailoverClient / EndpointPool) ---

// FailoverOption configures a FailoverClient and its endpoint pool.
type FailoverOption func(*poolOptions)

// WithBreakerThreshold sets how many consecutive failures trip an
// endpoint's breaker open (default DefaultBreakerThreshold).
func WithBreakerThreshold(n int) FailoverOption {
	return func(o *poolOptions) { o.failThreshold = n }
}

// WithBreakerCooldown sets how long a tripped breaker stays open before a
// half-open probe is allowed (default DefaultBreakerCooldown).
func WithBreakerCooldown(d time.Duration) FailoverOption {
	return func(o *poolOptions) { o.cooldown = d }
}

// WithFailoverMetrics wires the pool into an obs registry: per-endpoint
// outcome counters plus pool-level failover/breaker counters.
func WithFailoverMetrics(r *obs.Registry) FailoverOption {
	return func(o *poolOptions) { o.metrics = r }
}

// WithFailoverAudit wires the pool into an audit log: breaker transitions,
// endpoint switches, and lost sessions become wide events (switches and
// losses carry the trace of the restore that hit them).
func WithFailoverAudit(a *obs.AuditLog) FailoverOption {
	return func(o *poolOptions) { o.audit = a }
}

// WithEndpointClientOptions passes options to every per-endpoint
// TCPClient the pool builds (timeouts, protocol version, dialer, ...). The
// retry options set the pool's own policy: one attempt is one pass over
// the pool, and the endpoint clients make one attempt each.
func WithEndpointClientOptions(opts ...ClientOption) FailoverOption {
	return func(o *poolOptions) { o.clientOpts = opts }
}

// WithClientFactory replaces the per-endpoint channel constructor (tests
// use this to wire in-process or fault-injecting clients).
func WithClientFactory(f func(addr string) SecretChannel) FailoverOption {
	return func(o *poolOptions) { o.newClient = f }
}
