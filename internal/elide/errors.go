package elide

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Sentinel errors of the authentication-server transport. All errors the
// transport returns match one of these with errors.Is, so callers can
// distinguish "the server said no" (give up) from "the server is
// unreachable" (maybe later) without string matching.
var (
	// ErrRefused: the server processed the message and refused it
	// (attestation failure, unknown request, ...). Never retried.
	ErrRefused = errors.New("elide: server refused")

	// ErrNotAttested: a Request was issued on a session whose attestation
	// has not succeeded.
	ErrNotAttested = errors.New("elide: request before attestation")

	// ErrFrameTooLarge: a frame exceeded MaxFrame on either side.
	ErrFrameTooLarge = errors.New("elide: frame exceeds maximum size")

	// ErrServerUnavailable: the client exhausted its retry budget on
	// transient (connection-level) failures.
	ErrServerUnavailable = errors.New("elide: authentication server unavailable")

	// ErrServerClosed: Serve returned because its context was cancelled;
	// in-flight sessions were drained first.
	ErrServerClosed = errors.New("elide: server closed")

	// ErrSealedCorrupt: the sealed blob exists but failed its GCM MAC (or
	// was truncated / produced a torn text). Reported by the trusted
	// restorer through the runtime's error ring; the restore falls back to
	// the network and re-seals a fresh blob.
	ErrSealedCorrupt = errors.New("elide: sealed secret blob is corrupt")

	// ErrTornRestore: the post-restore text digest did not match the
	// metadata's digest. The enclave returned RestoreErrTorn and did not
	// mark itself restored.
	ErrTornRestore = errors.New("elide: restored text failed digest verification")

	// ErrRemoteDataUnavailable: a hybrid deployment could not fetch the
	// secret data remotely and degraded to the encrypted local file.
	ErrRemoteDataUnavailable = errors.New("elide: remote data unavailable, degraded to local file")

	// ErrSessionLost: the server answering a session resume — a replica
	// after a failover, or the same server after it lost its session
	// cache — established a *different* channel key, so the enclave's
	// in-flight session cannot continue. Retryable at the restore level (a
	// fresh elide_restore re-attests from scratch), but terminal for the
	// current protocol run.
	ErrSessionLost = errors.New("elide: attested session lost: the resuming server holds a different key")

	// ErrRestoreFailed: a resilient restore exhausted its strategy chain.
	// Always carried by a *RestoreFailure with the enclave code and the
	// last transport error.
	ErrRestoreFailed = errors.New("elide: restore failed")

	// ErrOverloaded: the server shed the operation under per-enclave
	// backpressure (token-bucket rate limit or in-flight cap). Unlike
	// ErrRefused this is not a verdict on the request — the server is
	// healthy and the same request succeeds once pressure drops — and
	// unlike ErrServerUnavailable the server answered. Always carried by
	// an *OverloadedError with the server's retry-after hint.
	ErrOverloaded = errors.New("elide: server overloaded")
)

// RefusedError carries the server's reason alongside the ErrRefused
// identity: errors.Is(err, ErrRefused) is true for every RefusedError.
type RefusedError struct {
	Msg string // the server's error frame message
}

func (e *RefusedError) Error() string {
	if e.Msg == "" {
		return ErrRefused.Error()
	}
	return "elide: server refused: " + e.Msg
}

// Is makes errors.Is(err, ErrRefused) match.
func (e *RefusedError) Is(target error) bool { return target == ErrRefused }

// OverloadedError is the server's backpressure signal, carried in a
// statusOverloaded frame: the enclave it throttled and how long the
// client should wait before trying again. errors.Is(err, ErrOverloaded)
// is true for every OverloadedError, including after wrapping by the
// retry and failover layers.
type OverloadedError struct {
	RetryAfter time.Duration // server's hint; zero means "use your own backoff"
	Msg        string        // server's reason ("attest rate limit for enclave ...")
}

func (e *OverloadedError) Error() string {
	s := "elide: server overloaded"
	if e.Msg != "" {
		s += ": " + e.Msg
	}
	if e.RetryAfter > 0 {
		s += fmt.Sprintf(" (retry after %v)", e.RetryAfter)
	}
	return s
}

// Is makes errors.Is(err, ErrOverloaded) match.
func (e *OverloadedError) Is(target error) bool { return target == ErrOverloaded }

// unavailableError wraps the last transient failure once the retry budget
// is spent, matching ErrServerUnavailable. Only the retry policy builds it.
type unavailableError struct {
	attempts int
	last     error
}

func (e *unavailableError) Error() string {
	return fmt.Sprintf("elide: authentication server unavailable after %d attempts: %v", e.attempts, e.last)
}

func (e *unavailableError) Is(target error) bool { return target == ErrServerUnavailable }

func (e *unavailableError) Unwrap() error { return e.last }

// PhaseError tags an error recorded by the runtime with the protocol
// phase it occurred in ("attest", "request_meta", "request_data"), so the
// restore-level degradation chain can tell a terminal attest refusal
// (wrong identity — retrying cannot help) from a channel refusal (usually
// a stale session after a failover — a fresh protocol run can succeed).
type PhaseError struct {
	Phase string
	Err   error
}

func (e *PhaseError) Error() string { return "elide: " + e.Phase + ": " + e.Err.Error() }

func (e *PhaseError) Unwrap() error { return e.Err }

// isTransient reports whether an error is worth a reconnect-and-retry:
// connection-level failures, timeouts, and torn frames — but never a
// server refusal, a protocol-state error, a lost session, or a cancelled
// context.
func isTransient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrRefused) || errors.Is(err, ErrNotAttested) || errors.Is(err, ErrFrameTooLarge) {
		return false
	}
	// A lost session is over for this protocol run: retrying the request
	// on any endpoint sends it under a key the server does not hold. Only
	// a fresh run, which re-attests, recovers (RestoreResilient).
	if errors.Is(err, ErrSessionLost) {
		return false
	}
	// Overload is not transient in the reconnect sense: the server answered,
	// and hammering it again immediately is exactly what it asked us not to
	// do. The retry policy and the pool's pass special-case it (waiting out
	// the retry-after hint, trying another replica) before consulting this.
	if errors.Is(err, ErrOverloaded) {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	// Everything else on the TCP path — dial errors, resets, EOF from a
	// dropped connection, i/o timeouts, short frames, torn gob streams —
	// is transient: the handshake replay is idempotent (the server resumes
	// the session), so a reconnect can only help.
	return true
}
