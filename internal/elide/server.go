package elide

import (
	"bufio"
	"context"
	"crypto/ecdsa"
	"crypto/sha256"
	"crypto/subtle"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"sgxelide/internal/obs"
	"sgxelide/internal/sdk"
	"sgxelide/internal/sgx"
)

// ServerConfig configures a single-enclave authentication server (the
// paper's one-server-per-deployment shape). It is the compatibility layer
// over a one-entry SecretStore; multi-enclave deployments build the store
// directly and use NewMultiServer.
type ServerConfig struct {
	CAPub *ecdsa.PublicKey // pinned attestation root ("Intel")

	// ExpectedMrEnclave is the measurement of the *sanitized, signed*
	// enclave. Secrets are released only to an enclave that attests to
	// exactly this identity.
	ExpectedMrEnclave [32]byte

	// Meta is enclave.secret.meta (including the local-data decryption key
	// when the sanitizer encrypted the data).
	Meta *SecretMeta

	// SecretPlain is the plaintext secret data, served on REQUEST_DATA in
	// remote-data mode. May be nil in local-data mode.
	SecretPlain []byte
}

// serverOptions collects the functional options of NewServer. The With*
// constructors live in options.go alongside the other families.
type serverOptions struct {
	maxSessions int
	ioTimeout   time.Duration
	drain       time.Duration
	resumeCap   int
	attestRate  float64 // per-enclave attest tokens per second (0 = off)
	attestBurst int
	maxInflight int // per-enclave concurrent channel requests (0 = off)
	resumeTTL   time.Duration
	fleetKey    []byte   // shared fleet sealing key (enables replication)
	peers       []string // replication peers / gossip seeds
	metrics     *obs.Registry
	tracer      *obs.Tracer
	audit       *obs.AuditLog

	// Fleet membership (DESIGN §15).
	gossipSelf     string        // advertised address; non-empty enables gossip
	gossipInterval time.Duration // probe/gossip round cadence
	suspectTimeout time.Duration // suspicion → dead deadline
	peerDial       peerDialFunc  // test seam; nil = net.DialTimeout

	// onHandshake is a package-internal test seam, called with each
	// decoded handshake before attestation (robustness tests use it to
	// simulate a session that panics).
	onHandshake func(*attestMsg)
}

// Server is the SgxElide authentication server: it verifies a quote,
// resolves the attested measurement in its secret store, establishes an
// AES-GCM channel, and answers the paper's one-byte REQUEST_META /
// REQUEST_DATA protocol — for every sanitized enclave registered in the
// store, not just one.
type Server struct {
	caPub *ecdsa.PublicKey
	store *SecretStore
	opt   serverOptions

	// Session resumption: a client that reconnects mid-protocol replays
	// its attestation handshake; keying the established channel by the
	// quote-bound client ephemeral key lets the server hand back the same
	// channel key, so the enclave's derived key stays valid (the moral
	// equivalent of TLS session resumption). The cache is an in-process
	// LRU with lazy TTL expiry (resume.go). rep, when non-nil, replicates
	// records to fleet peers and fetches on resume misses (replication.go).
	resume *lruResumeStore
	rep    *resumeReplicator

	// gsp, when non-nil, is the SWIM membership layer (membership.go);
	// its probe loop starts with the first Serve and stops with that
	// Serve's context.
	gsp        *gossiper
	gossipOnce sync.Once

	// Per-enclave QoS state (token bucket + in-flight count), lazily
	// created per measurement when rate or in-flight limits are set.
	qosMu sync.Mutex
	qos   map[[32]byte]*qosState
}

// NewServer builds a single-enclave server: a one-entry store under the
// hood, releasing secrets only to cfg.ExpectedMrEnclave.
func NewServer(cfg ServerConfig, opts ...ServerOption) (*Server, error) {
	st := NewSecretStore()
	if _, err := st.Register(cfg.ExpectedMrEnclave, cfg.Meta, cfg.SecretPlain, ""); err != nil {
		return nil, err
	}
	return NewMultiServer(cfg.CAPub, st, opts...)
}

// NewMultiServer builds a server over an externally managed secret store.
// The store may be mutated while serving (Register/Remove/LoadDir/Watch);
// each attestation resolves the measurement at handshake time.
func NewMultiServer(caPub *ecdsa.PublicKey, store *SecretStore, opts ...ServerOption) (*Server, error) {
	if caPub == nil {
		return nil, fmt.Errorf("elide: server needs the attestation CA public key")
	}
	if store == nil {
		return nil, fmt.Errorf("elide: server needs a secret store")
	}
	o := serverOptions{
		maxSessions: DefaultMaxSessions,
		ioTimeout:   DefaultIOTimeout,
		drain:       DefaultDrainTimeout,
		resumeCap:   DefaultResumeCacheSize,
		resumeTTL:   DefaultResumeTTL,
	}
	for _, fn := range opts {
		fn(&o)
	}
	if o.attestRate > 0 && o.attestBurst <= 0 {
		// A bucket that can never hold a whole token admits nothing; give
		// an unset burst one second's worth of rate (at least 1).
		o.attestBurst = int(o.attestRate + 1)
	}
	if len(o.fleetKey) > 0 || len(o.peers) > 0 || o.gossipSelf != "" {
		if err := validFleetKey(o.fleetKey); err != nil {
			if o.gossipSelf != "" && len(o.fleetKey) == 0 {
				return nil, fmt.Errorf("elide: WithGossip requires the fleet key from WithResumeReplication")
			}
			return nil, err
		}
	}
	s := &Server{
		caPub:  caPub,
		store:  store,
		opt:    o,
		resume: newLRUResumeStore(o.resumeCap),
		qos:    make(map[[32]byte]*qosState),
	}
	if len(o.peers) > 0 || o.gossipSelf != "" {
		s.rep = newResumeReplicator(&o)
	}
	if o.gossipSelf != "" {
		s.gsp = newGossiper(o.gossipSelf, o.peers, s.rep, s.resume,
			o.fleetKey, o.gossipInterval, o.suspectTimeout, o.metrics, o.audit)
	}
	return s, nil
}

// Store returns the server's secret store (never nil), for runtime
// registration and removal of enclave identities.
func (s *Server) Store() *SecretStore { return s.store }

// Metrics returns the server's registry (nil when not configured).
func (s *Server) Metrics() *obs.Registry { return s.opt.metrics }

// Tracer returns the server's tracer (nil when not configured).
func (s *Server) Tracer() *obs.Tracer { return s.opt.tracer }

// Audit returns the server's audit log (nil when not configured).
func (s *Server) Audit() *obs.AuditLog { return s.opt.audit }

// Session is one client's attested channel with the server. The secret
// entry it serves is resolved from the attested quote's measurement, so
// one server process concurrently holds sessions for many distinct
// sanitized enclaves without any cross-talk.
type Session struct {
	srv        *Server
	channelKey []byte
	entry      *SecretEntry // resolved by Attest; nil before attestation
	span       *obs.Span    // session root span; nil without a tracer
	replay     bool         // handshake is a session resume (set by handleConn)
}

// audit emits one event stamped with this session's trace ID and (when
// resolved) enclave identity. Nil-audit safe.
func (ss *Session) audit(ev obs.AuditEvent) {
	if ss.srv.opt.audit == nil {
		return
	}
	ev.TraceID = ss.span.TraceID()
	if ev.Enclave == "" && ss.entry != nil {
		ev.Enclave = ss.entry.Label()
	}
	ss.srv.opt.audit.Emit(ev)
}

// quoteLabel is the short measurement label of a quote that may not
// resolve to any store entry (refused attests still get audited with the
// measurement that knocked).
func quoteLabel(q *sgx.Quote) string {
	if q == nil {
		return ""
	}
	return fmt.Sprintf("%x", q.MrEnclave[:4])
}

// NewSession starts an unattested session.
func (s *Server) NewSession() *Session { return &Session{srv: s} }

// Attest verifies the quote, resolves the attested measurement in the
// secret store, checks the channel binding, then completes the ECDH
// exchange, returning the server's public key. The resolved entry's
// secrets become available to this session only after success. A replayed
// handshake (same quote-bound client key) resumes the previously
// established channel rather than generating a fresh keypair, so
// reconnecting clients keep their channel key.
func (ss *Session) Attest(q *sgx.Quote, clientPub []byte) (pub []byte, err error) {
	s := ss.srv
	defer s.opt.metrics.Observe("server.attest_ns", time.Now())
	span := ss.span.Child("attest")
	defer func() {
		span.SetError(err)
		span.End()
	}()
	if err := sgx.VerifyQuote(s.caPub, q); err != nil {
		s.opt.metrics.Counter("server.attest_refused").Inc()
		ss.audit(obs.AuditEvent{Type: obs.AuditAttestRefused, Enclave: quoteLabel(q), Detail: "quote verification failed"})
		return nil, fmt.Errorf("elide server: %w", err)
	}
	entry, ok := s.store.Lookup(q.MrEnclave)
	if !ok {
		s.opt.metrics.Counter("server.attest_refused").Inc()
		ss.audit(obs.AuditEvent{Type: obs.AuditAttestRefused, Enclave: quoteLabel(q), Detail: "measurement not registered"})
		return nil, fmt.Errorf("elide server: enclave measurement %x is not the expected sanitized enclave", q.MrEnclave[:8])
	}
	// The report data binds the client's ephemeral key to the quote,
	// preventing a man-in-the-middle from substituting its own key. The
	// compare is constant-time: its outcome gates secret release, and a
	// byte-by-byte early exit would leak how much of a guessed binding
	// matched.
	binding := sha256.Sum256(clientPub)
	if subtle.ConstantTimeCompare(q.Data[:32], binding[:]) != 1 {
		s.opt.metrics.Counter("server.attest_refused").Inc()
		ss.audit(obs.AuditEvent{Type: obs.AuditAttestRefused, Enclave: entry.Label(), Detail: "channel key not bound to quote"})
		return nil, fmt.Errorf("elide server: channel key not bound to the quote")
	}
	ss.entry = entry
	span.SetStr("mrenclave", entry.Label())
	entry.attests.Add(1)
	if rec, ok, expired := s.resumeGet(binding); ok {
		ss.channelKey = rec.ChannelKey
		s.opt.metrics.Counter("server.attest_resumed").Inc()
		span.SetBool("resumed", true)
		ss.audit(obs.AuditEvent{Type: obs.AuditResumeHit})
		return rec.ServerPub, nil
	} else if expired {
		// The channel was cached but aged out: a revoked-then-reconnecting
		// client must pay the full handshake again. Security-relevant.
		s.opt.metrics.Counter("server.resume_expired").Inc()
		span.SetBool("resume_expired", true)
		ss.audit(obs.AuditEvent{Type: obs.AuditResumeExpired, Detail: "resume entry past its TTL"})
	}
	// A replayed handshake that misses locally is the one case where a
	// fresh key breaks a mid-protocol enclave — worth a synchronous peer
	// fetch. Like a local hit, a fetched resume stays exempt from the
	// attest rate limit (it happens before admitAttest).
	if ss.replay && s.rep != nil {
		if rec, ok := s.rep.fetch(binding); ok &&
			subtle.ConstantTimeCompare(rec.MrEnclave[:], q.MrEnclave[:]) == 1 {
			ss.channelKey = rec.ChannelKey
			s.resume.Put(rec) // adopt: later reconnects hit locally
			s.opt.metrics.Counter("server.attest_resumed").Inc()
			span.SetBool("resumed", true)
			span.SetBool("resume_fetched", true)
			ss.audit(obs.AuditEvent{Type: obs.AuditResumeHit, Detail: "fetched from fleet peer"})
			return rec.ServerPub, nil
		}
	}
	if ss.replay {
		// A replayed handshake that missed the cache (and the fleet) gets a
		// *fresh* channel key below; the client's enclave is mid-protocol on
		// the old key, so its run is about to break. Security-relevant.
		s.opt.metrics.Counter("server.resume_miss").Inc()
		span.SetBool("resume_miss", true)
		ss.audit(obs.AuditEvent{Type: obs.AuditResumeMiss, Detail: "session replay missed the resume cache"})
	}
	// Rate limiting charges only fresh attestations: a resumed handshake is
	// a reconnecting client mid-protocol, and throttling it would turn one
	// network blip into a retry storm.
	if oerr := s.admitAttest(entry); oerr != nil {
		span.SetBool("overloaded", true)
		ss.auditShed(oerr, "attest rate limit")
		return nil, oerr
	}
	priv, pub, err := sdk.GenerateECDHKeypair()
	if err != nil {
		return nil, err
	}
	key, err := sdk.DeriveChannelKey(priv, clientPub)
	if err != nil {
		return nil, err
	}
	ss.channelKey = key
	if rec, cached := s.resumePut(binding, pub, key, q.MrEnclave); cached && s.rep != nil {
		s.rep.broadcast(rec)
	}
	s.opt.metrics.Counter("server.attest_ok").Inc()
	s.opt.metrics.Counter("server.attest_ok.mr_" + entry.Label()).Inc()
	ss.audit(obs.AuditEvent{Type: obs.AuditAttestOK})
	return pub, nil
}

// auditShed records one QoS shed with its retry-after hint.
func (ss *Session) auditShed(err error, detail string) {
	var oe *OverloadedError
	ev := obs.AuditEvent{Type: obs.AuditQoSShed, Detail: detail}
	if errors.As(err, &oe) {
		ev.RetryAfterMS = oe.RetryAfter.Milliseconds()
	}
	ss.audit(ev)
}

// resumeGet resolves a cached channel for this client ephemeral key; a
// hit refreshes its recency in the LRU (a hot session must
// outlive cold ones), and expired reports a TTL lapse distinctly from a
// plain miss so Attest can audit it.
func (s *Server) resumeGet(binding [32]byte) (rec ResumeRecord, ok, expired bool) {
	return s.resume.Get(binding)
}

// resumePut caches an established channel, stamping the configured TTL,
// and reports whether it was cached (false when resumption is disabled —
// nothing to replicate either).
func (s *Server) resumePut(binding [32]byte, pub, channelKey []byte, mr [32]byte) (ResumeRecord, bool) {
	if s.opt.resumeCap <= 0 {
		return ResumeRecord{}, false
	}
	rec := ResumeRecord{
		Binding:    binding,
		ServerPub:  pub,
		ChannelKey: channelKey,
		MrEnclave:  mr,
	}
	if s.opt.resumeTTL > 0 {
		rec.ExpiresAt = time.Now().Add(s.opt.resumeTTL)
	}
	s.resume.Put(rec)
	return rec, true
}

// resumeLen reports the cache size (test seam; ResumeLen is the
// exported form, in membership.go).
func (s *Server) resumeLen() int { return s.resume.Len() }

// ReplicationHealth reports degraded while resume-replication pushes are
// being dropped (nil when replication is off or healthy) — wire it into
// the admin handler as a /healthz check.
func (s *Server) ReplicationHealth() error {
	if s.rep == nil {
		return nil
	}
	return s.rep.healthCheck()
}

// Request answers one encrypted request on the attested channel, serving
// only the secret entry resolved by this session's attestation. Requests
// past the enclave's in-flight cap (WithEnclaveInflightLimit) are shed
// with a typed overload answer instead of being served.
func (ss *Session) Request(enc []byte) (out []byte, err error) {
	s := ss.srv
	if ss.channelKey == nil {
		return nil, ErrNotAttested
	}
	release, oerr := s.admitInflight(ss.entry)
	if oerr != nil {
		ss.auditShed(oerr, "in-flight limit")
		return nil, oerr
	}
	defer release()
	defer s.opt.metrics.Observe("server.request_ns", time.Now())
	s.opt.metrics.Counter("server.requests").Inc()
	span := ss.span.Child("request")
	defer func() {
		span.SetError(err)
		span.End()
	}()
	span.SetStr("mrenclave", ss.entry.Label())
	req, err := sealDecrypt(ss.channelKey, enc)
	if err != nil {
		s.opt.metrics.Counter("server.request_errors").Inc()
		return nil, fmt.Errorf("elide server: bad request: %w", err)
	}
	if len(req) != 1 {
		s.opt.metrics.Counter("server.request_errors").Inc()
		return nil, fmt.Errorf("elide server: request must be one byte")
	}
	var resp []byte
	switch req[0] {
	case RequestMeta:
		span.SetStr("kind", "meta")
		resp = ss.serveMeta()
	case RequestData:
		span.SetStr("kind", "data")
		resp, err = ss.serveData()
		if err != nil {
			s.opt.metrics.Counter("server.request_errors").Inc()
			return nil, err
		}
		span.SetInt("bytes", int64(len(resp)))
	default:
		s.opt.metrics.Counter("server.request_errors").Inc()
		//elide:vet-ignore secretflow req[0] is the request opcode, not secret payload; the taint is an artifact of req coming from sealDecrypt
		return nil, fmt.Errorf("elide server: unknown request %d", req[0])
	}
	return sealEncrypt(ss.channelKey, resp)
}

// serveMeta produces the REQUEST_META payload and accounts the release.
func (ss *Session) serveMeta() []byte {
	ss.entry.metaServed.Add(1)
	ss.srv.opt.metrics.Counter("server.meta_served.mr_" + ss.entry.Label()).Inc()
	return ss.entry.Meta.Marshal()
}

// serveData produces the REQUEST_DATA payload and accounts the release.
func (ss *Session) serveData() ([]byte, error) {
	if ss.entry.SecretPlain == nil {
		return nil, fmt.Errorf("elide server: no remote data (local-data deployment)")
	}
	ss.entry.dataServed.Add(1)
	ss.srv.opt.metrics.Counter("server.data_served.mr_" + ss.entry.Label()).Inc()
	return ss.entry.SecretPlain, nil
}

// bundleReply assembles a bundled attestation reply: the channel public
// key followed by the encrypted channel responses the client asked for
// (see marshalAttestReply for the layout). The responses are the exact
// bytes a sequential REQUEST_META / REQUEST_DATA exchange would have
// produced — GCM framing on this channel does not depend on the request's
// IV, so precomputing them at attest time is sound, and the enclave
// cannot tell the difference. Serving work is charged against the
// enclave's in-flight cap like any channel request.
func (ss *Session) bundleReply(pub []byte, want byte) (out []byte, err error) {
	s := ss.srv
	release, oerr := s.admitInflight(ss.entry)
	if oerr != nil {
		ss.auditShed(oerr, "in-flight limit (bundle)")
		return nil, oerr
	}
	defer release()
	defer s.opt.metrics.Observe("server.bundle_ns", time.Now())
	span := ss.span.Child("bundle")
	defer func() {
		span.SetError(err)
		span.End()
	}()
	span.SetStr("mrenclave", ss.entry.Label())

	var encMeta, encData []byte
	if want&bundleMeta != 0 {
		msp := span.Child("request_meta")
		msp.SetStr("source", "bundle")
		encMeta, err = sealEncrypt(ss.channelKey, ss.serveMeta())
		msp.SetError(err)
		msp.End()
		if err != nil {
			return nil, err
		}
	}
	// Data is bundled only when this deployment serves remote data; a
	// local-data deployment's client falls back to its encrypted file, so
	// an empty slot is the correct answer, not an error.
	if want&bundleData != 0 && ss.entry.SecretPlain != nil {
		dsp := span.Child("request_data")
		dsp.SetStr("source", "bundle")
		var plain []byte
		plain, err = ss.serveData()
		if err == nil {
			dsp.SetInt("bytes", int64(len(plain)))
			encData, err = sealEncrypt(ss.channelKey, plain)
		}
		dsp.SetError(err)
		dsp.End()
		if err != nil {
			return nil, err
		}
	}
	ss.entry.bundles.Add(1)
	s.opt.metrics.Counter("server.bundles_served").Inc()
	s.opt.metrics.Counter("server.bundles_served.mr_" + ss.entry.Label()).Inc()

	return marshalAttestReply(pub, encMeta, encData), nil
}

// --- transport ---

// SecretChannel is how the untrusted runtime reaches the authentication
// server: either in-process (DirectClient) or over the wire (TCPClient,
// FailoverClient). It is the one interface the restore pipeline, the
// failover layer, and the bench harnesses program against, so in-process
// and wire clients are drop-in interchangeable.
//
// Attest runs the attestation handshake and returns the server's channel
// public key; Request performs one encrypted exchange on the attested
// channel; Close releases any transport resources (a no-op for
// in-process channels). Both calls respect context cancellation; wire
// implementations also apply their configured timeouts and retry policy.
type SecretChannel interface {
	Attest(ctx context.Context, q *sgx.Quote, clientPub []byte) ([]byte, error)
	Request(ctx context.Context, enc []byte) ([]byte, error)
	Close() error
}

// DirectClient runs the server in-process (and is also what the benchmarks
// use, mirroring the paper's same-machine socket setup with negligible
// network latency).
type DirectClient struct {
	Session *Session
}

// Attest implements SecretChannel. When the server has a tracer, the
// first attest opens the session span — parented into the caller's trace
// when the context carries a span, mirroring what a wire handshake's
// TraceID/SpanID fields do for handleConn.
func (c *DirectClient) Attest(ctx context.Context, q *sgx.Quote, clientPub []byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if c.Session.span == nil {
		caller := obs.SpanFromContext(ctx)
		c.Session.span = c.Session.srv.opt.tracer.StartRemote("session", caller.TraceID(), caller.ID())
		c.Session.span.SetStr("peer", "direct")
	}
	return c.Session.Attest(q, clientPub)
}

// Request implements SecretChannel.
func (c *DirectClient) Request(ctx context.Context, enc []byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return c.Session.Request(enc)
}

// Close implements SecretChannel; an in-process channel holds no
// transport state, but it does end the session span Attest opened.
func (c *DirectClient) Close() error {
	c.Session.span.End()
	return nil
}

// Serve accepts connections until ctx is cancelled or the listener fails.
// Each connection is one session: an attestation handshake followed by
// framed encrypted requests. Concurrency is bounded by WithMaxSessions;
// every read/write is bounded by WithIOTimeout; a panic in one session is
// contained to that connection.
//
// On cancellation Serve stops accepting, lets in-flight sessions finish
// their current exchange (up to WithDrainTimeout), then returns
// ErrServerClosed.
func (s *Server) Serve(ctx context.Context, l net.Listener) error {
	// The gossip loop lives exactly as long as the first Serve: fleet
	// probing makes no sense before the server can answer probes back.
	if s.gsp != nil {
		s.gossipOnce.Do(func() { go s.gsp.run(ctx) })
	}
	// Unblock Accept when the context ends.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			_ = l.Close() // best effort: only purpose is unblocking Accept
		case <-stop:
		}
	}()

	sem := make(chan struct{}, s.opt.maxSessions)
	var wg sync.WaitGroup
	var connMu sync.Mutex
	active := make(map[net.Conn]struct{})

	for {
		conn, err := l.Accept()
		if err != nil {
			if ctx.Err() != nil {
				// Graceful shutdown: drain in-flight sessions, then close
				// whatever is still running after the drain window.
				drained := make(chan struct{})
				go func() { wg.Wait(); close(drained) }()
				select {
				case <-drained:
				case <-time.After(s.opt.drain):
					connMu.Lock()
					for c := range active {
						_ = c.Close() // force-close past the drain deadline; conn state is moot
					}
					connMu.Unlock()
					wg.Wait()
				}
				return ErrServerClosed
			}
			wg.Wait()
			return err
		}
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			_ = conn.Close() // shedding during shutdown; nothing to do on error
			continue         // next Accept fails; the shutdown path above runs
		}
		connMu.Lock()
		active[conn] = struct{}{}
		connMu.Unlock()
		wg.Add(1)
		s.opt.metrics.Counter("server.sessions").Inc()
		s.opt.metrics.Gauge("server.active_sessions").Inc()
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			defer s.opt.metrics.Gauge("server.active_sessions").Dec()
			defer func() {
				connMu.Lock()
				delete(active, conn)
				connMu.Unlock()
				_ = conn.Close() // session is over either way
			}()
			defer func() {
				if r := recover(); r != nil {
					// One poisoned session must not take the server down.
					s.opt.metrics.Counter("server.panics").Inc()
					writeErrorFrame(conn, fmt.Sprintf("internal error: %v", r))
				}
			}()
			s.handleConn(ctx, conn)
		}()
	}
}

// handleConn speaks the TCP protocol for one connection: the handshake,
// then — for a client session — the attest reply (bundled when the client
// asked) and a request loop. Errors are reported to the peer as status
// frames; an attestation failure closes the session, a bad request or an
// overload answer does not. All reads go through one buffered reader: a
// resuming client puts its pending request on the wire right behind the
// handshake.
func (s *Server) handleConn(ctx context.Context, conn net.Conn) (err error) {
	ss := s.NewSession()
	br := bufio.NewReader(conn)
	s.armDeadline(conn)
	msg, err := readHandshake(br)
	if err != nil {
		if errors.Is(err, errBadHandshake) {
			_ = writeErrorFrame(conn, err.Error()) // the session ends either way
		}
		return err
	}
	switch msg.Kind {
	case kindMembers:
		return s.handleMembersQuery(conn)
	case kindPeerLink:
		return s.handlePeerConn(conn, br)
	}
	// The session span starts only after the handshake is decoded: a
	// tracing client's TraceID/SpanID parent it into the client's restore
	// trace, so the merged JSONL from both processes is one tree. A zero
	// TraceID (a caller not tracing) makes it a local root.
	ss.span = s.opt.tracer.StartRemote("session", msg.TraceID, msg.SpanID)
	ss.span.SetStr("peer", conn.RemoteAddr().String())
	defer func() {
		ss.span.SetError(err)
		ss.span.End()
	}()
	if s.opt.onHandshake != nil {
		s.opt.onHandshake(msg)
	}
	ss.replay = msg.Kind == kindResume
	pub, err := ss.Attest(msg.Quote, msg.ClientPub)
	if err != nil {
		s.armDeadline(conn)
		writeServerError(conn, err)
		return err
	}
	var reply []byte
	if msg.Bundle != 0 {
		reply, err = ss.bundleReply(pub, msg.Bundle)
		if err != nil {
			s.armDeadline(conn)
			writeServerError(conn, err)
			return err
		}
	} else {
		reply = marshalAttestReply(pub, nil, nil)
	}
	s.armDeadline(conn)
	if err := writeResponse(conn, reply); err != nil {
		return err
	}
	var scratch []byte // request-frame buffer, reused across the loop
	for {
		s.armDeadline(conn)
		req, err := readFrameInto(br, scratch)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		scratch = req
		resp, err := ss.Request(req)
		s.armDeadline(conn)
		if err != nil {
			// A refusal (or overload answer) is an answer, not a transport
			// failure: report it and keep the session open.
			if werr := writeServerError(conn, err); werr != nil {
				return werr
			}
			continue
		}
		if err := writeResponse(conn, resp); err != nil {
			return err
		}
		// Drain semantics: a cancelled context does not cut the session
		// off here — a restore in flight may need further requests and the
		// closed listener means it could not reconnect. Stragglers are
		// bounded by Serve's drain window, which force-closes connections.
	}
}

// writeServerError reports err to the peer with the right frame type: an
// overload answer carries its retry-after hint, anything else is a plain
// refusal.
func writeServerError(w io.Writer, err error) error {
	var oe *OverloadedError
	if errors.As(err, &oe) {
		return writeOverloadFrame(w, oe.RetryAfter, oe.Msg)
	}
	return writeErrorFrame(w, err.Error())
}

// armDeadline (re)sets the per-connection I/O deadline. A SetDeadline
// failure means the connection is already dead; the very next read or
// write surfaces that as its own error, so there is nothing to add here.
func (s *Server) armDeadline(conn net.Conn) {
	if s.opt.ioTimeout > 0 {
		_ = conn.SetDeadline(time.Now().Add(s.opt.ioTimeout))
	}
}
