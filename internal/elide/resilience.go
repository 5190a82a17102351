package elide

import (
	"context"
	"errors"
	"fmt"

	"sgxelide/internal/obs"
	"sgxelide/internal/sdk"
)

// restoreRuns bounds the protocol runs of one RestoreResilient.
const restoreRuns = 3

// RestoreOutcome reports how a resilient restore ended: the enclave code,
// which strategy in the degradation chain produced the bytes, how many
// protocol runs it took, and the typed events the runtime observed along
// the way (sealed-blob corruption, degradation to the local file, lost
// sessions) — a restore can succeed *and* have a story worth logging.
type RestoreOutcome struct {
	Code     uint64
	Source   string // "sealed", "server", or "local"
	Attempts int
	Events   []error
	// TraceIDs holds the trace of each protocol run, in attempt order
	// (zeros without a tracer). The last entry is the trace the flight
	// recorder dumps on a terminal failure.
	TraceIDs []uint64
}

// LastTraceID returns the trace of the final attempt (zero when untraced).
func (o *RestoreOutcome) LastTraceID() uint64 {
	if len(o.TraceIDs) == 0 {
		return 0
	}
	return o.TraceIDs[len(o.TraceIDs)-1]
}

// RestoreFailure is the error RestoreResilient returns when the strategy
// chain is exhausted; it matches ErrRestoreFailed and unwraps to the last
// typed event.
type RestoreFailure struct {
	Code     uint64 // last enclave return code (>= RestoreErrBase)
	Attempts int
	Last     error // last typed event from the runtime ring, if any
}

func (e *RestoreFailure) Error() string {
	s := fmt.Sprintf("elide: restore failed after %d attempts (code %d)", e.Attempts, e.Code)
	if e.Last != nil {
		s += ": " + e.Last.Error()
	}
	return s
}

func (e *RestoreFailure) Is(target error) bool { return target == ErrRestoreFailed }

func (e *RestoreFailure) Unwrap() error { return e.Last }

// RestoreResilient drives elide_restore through the degradation chain —
// sealed blob, then the authentication server (or pool), then in hybrid
// deployments the encrypted local file — rerunning the whole protocol, at
// once and up to restoreRuns times, only when a fresh run fixes the
// failure: a session lost mid-protocol, a stale-session refusal on the
// encrypted channel, or a torn apply. Everything else is final: an
// attestation refusal (the server examined the quote and said no), a
// cancelled context, and an unavailable or overloaded server, for which
// the channel has already spent its retry budget and waited out the
// server's hints.
//
// flags are the base elide_restore flags; FlagTrySealed is added when the
// file store holds a sealed blob. The strategy *ordering* lives in the
// enclave (trusted.go); this driver adds what the enclave cannot do for
// itself: classify why a run failed and decide whether another run is
// worth the wire traffic.
func RestoreResilient(ctx context.Context, encl *sdk.Enclave, rt *Runtime, flags uint64) (*RestoreOutcome, error) {
	if rt.Files != nil && len(rt.Files.Sealed) > 0 {
		flags |= FlagTrySealed
	}

	out := &RestoreOutcome{}
	var lastCode uint64
	var lastErr error
	for out.Attempts < restoreRuns {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		if out.Attempts > 0 {
			rt.Metrics.Counter("restore.retries").Inc()
		}
		mark := len(rt.Errs())
		out.Attempts++
		code, traceID, err := restoreTraced(encl, flags)
		out.TraceIDs = append(out.TraceIDs, traceID)
		events := rt.Errs()
		if mark < len(events) {
			events = events[mark:]
		} else {
			events = nil
		}
		out.Events = append(out.Events, events...)
		if err != nil {
			// The ecall itself failed (SDK-level): nothing ran, not retryable.
			rt.Audit.Emit(obs.AuditEvent{Type: obs.AuditRestoreFailed, TraceID: traceID, Detail: "ecall failed: " + err.Error()})
			return out, err
		}
		if code < RestoreErrBase {
			out.Code = code
			out.Source = restoreSource(code, events)
			rt.Metrics.Counter("restore.ok." + out.Source).Inc()
			rt.Audit.Emit(obs.AuditEvent{Type: obs.AuditRestoreOK, TraceID: traceID, Detail: out.Source, Code: int64(code)})
			return out, nil
		}
		lastCode = code
		lastErr = lastTyped(events)
		if !restoreRetryable(code, events) {
			break
		}
		rt.Audit.Emit(obs.AuditEvent{Type: obs.AuditRestoreRetry, TraceID: traceID, Detail: retryDetail(lastErr), Code: int64(code)})
	}
	rt.Metrics.Counter("restore.exhausted").Inc()
	out.Code = lastCode
	fail := &RestoreFailure{Code: lastCode, Attempts: out.Attempts, Last: lastErr}
	rt.Audit.Emit(obs.AuditEvent{Type: obs.AuditRestoreFailed, TraceID: out.LastTraceID(), Detail: retryDetail(lastErr), Code: int64(lastCode)})
	return out, fail
}

// retryDetail names the typed cause of a failed attempt for the audit
// stream without dragging full error chains (and whatever they wrap)
// across the telemetry boundary.
func retryDetail(err error) string {
	switch {
	case err == nil:
		return "enclave error code only"
	case errors.Is(err, ErrSessionLost):
		return "session lost"
	case errors.Is(err, ErrOverloaded):
		return "overloaded"
	case errors.Is(err, ErrTornRestore):
		return "torn restore"
	case errors.Is(err, ErrSealedCorrupt):
		return "sealed corrupt"
	case errors.Is(err, ErrServerUnavailable):
		return "server unavailable"
	case errors.Is(err, ErrRefused):
		return "refused"
	default:
		return "transport error"
	}
}

// restoreSource names the strategy that produced a successful restore's
// bytes. The enclave's code distinguishes sealed from protocol; within a
// protocol run, a ReportDegradedLocal event means the remote fetch failed
// and the encrypted local file supplied the data.
func restoreSource(code uint64, events []error) string {
	if code == RestoreOKSealed {
		return "sealed"
	}
	for _, e := range events {
		if errors.Is(e, ErrRemoteDataUnavailable) {
			return "local"
		}
	}
	return "server"
}

// restoreRetryable reports whether a failed protocol run is worth a fresh
// one, from the enclave code and the typed events the runtime recorded
// during it.
func restoreRetryable(code uint64, events []error) bool {
	// A torn apply left elide_restored clear; the next run redoes the whole
	// protocol, and a transient corruption (scribbled data ocall buffer)
	// will not repeat.
	if code == RestoreErrTorn {
		return true
	}
	for _, e := range events {
		// A fresh run re-attests, so it establishes the session a failover
		// or a server restart lost.
		if errors.Is(e, ErrSessionLost) {
			return true
		}
		// A refusal on the encrypted channel is almost always a stale
		// session (the endpoint changed under us); a fresh run attests to
		// the live endpoint directly. An attest-phase refusal is the
		// server's verdict on the quote: no rerun changes it.
		var pe *PhaseError
		if errors.As(e, &pe) && pe.Phase != "attest" && errors.Is(pe, ErrRefused) {
			return true
		}
	}
	return false
}

// lastTyped returns the newest event worth reporting (skipping the
// degradation notices that are context, not cause).
func lastTyped(events []error) error {
	for i := len(events) - 1; i >= 0; i-- {
		if !errors.Is(events[i], ErrRemoteDataUnavailable) {
			return events[i]
		}
	}
	return nil
}
