package elide

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestSentinelsSurviveWrapping is the regression net for the typed-error
// contract: every sentinel the restore stack matches with errors.Is must
// keep matching through each wrapping layer an error actually traverses —
// the transport's budget-exhaustion wrapper, the runtime's PhaseError,
// fmt.Errorf %w decoration, and the resilient driver's RestoreFailure.
// A layer that re-creates an error instead of wrapping it breaks the
// retry/failover classification silently; this test makes it loud.
func TestSentinelsSurviveWrapping(t *testing.T) {
	cases := []struct {
		name     string
		sentinel error
		carrier  error // the concrete error a layer actually produces
	}{
		{"refused", ErrRefused, &RefusedError{Msg: "measurement mismatch"}},
		{"session_lost", ErrSessionLost, ErrSessionLost},
		{"overloaded", ErrOverloaded, &OverloadedError{RetryAfter: 50 * time.Millisecond, Msg: "rate limit"}},
		{"unavailable", ErrServerUnavailable, &unavailableError{attempts: 3, last: errors.New("dial refused")}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wrappings := []struct {
				layer string
				err   error
			}{
				{"bare", tc.carrier},
				{"phase", &PhaseError{Phase: "request_meta", Err: tc.carrier}},
				{"fmt", fmt.Errorf("request_meta: %w", tc.carrier)},
				{"phase+fmt", fmt.Errorf("attempt 2: %w", &PhaseError{Phase: "attest", Err: tc.carrier})},
				{"restore_failure", &RestoreFailure{Code: RestoreErrBase, Attempts: 2,
					Last: &PhaseError{Phase: "attest", Err: tc.carrier}}},
			}
			for _, w := range wrappings {
				if !errors.Is(w.err, tc.sentinel) {
					t.Errorf("%s: errors.Is lost the %s sentinel: %v", w.layer, tc.name, w.err)
				}
			}
		})
	}
}

// TestOverloadedErrorAsThroughLayers: the retry-after hint must remain
// reachable with errors.As wherever the overload surfaces, because the
// failover pool and the retry loop both read it to pace themselves.
func TestOverloadedErrorAsThroughLayers(t *testing.T) {
	carrier := &OverloadedError{RetryAfter: 125 * time.Millisecond, Msg: "inflight cap"}
	layers := []error{
		carrier,
		&PhaseError{Phase: "request_data", Err: carrier},
		fmt.Errorf("run 3: %w", &PhaseError{Phase: "request_data", Err: carrier}),
		&RestoreFailure{Code: RestoreErrBase, Attempts: 1, Last: carrier},
	}
	for i, err := range layers {
		var oe *OverloadedError
		if !errors.As(err, &oe) {
			t.Errorf("layer %d: errors.As lost *OverloadedError: %v", i, err)
			continue
		}
		if oe.RetryAfter != 125*time.Millisecond {
			t.Errorf("layer %d: retry-after hint = %v, want 125ms", i, oe.RetryAfter)
		}
	}
}

// TestTransientClassification pins the retry-layer contract: an overload
// is NOT transient (blind immediate retry would worsen the overload) and
// is not rerun at the restore level either, because the channel's retry
// policy has already waited out the server's hints; a lost session is not
// transient, because retrying the request on a replica sends it under a
// key that replica does not hold.
func TestTransientClassification(t *testing.T) {
	oe := &OverloadedError{RetryAfter: time.Millisecond}
	if isTransient(oe) {
		t.Error("overload classified transient; the transport would hot-retry a shedding server")
	}
	if restoreRetryable(RestoreErrBase, []error{&PhaseError{Phase: "attest", Err: oe}}) {
		t.Error("overloaded protocol run classified retryable; RestoreResilient would rerun what the channel already waited out")
	}
	if isTransient(ErrSessionLost) {
		t.Error("lost session classified transient; the pool would retry the request under a stale key")
	}
	// The pre-existing classifications must not have moved.
	if restoreRetryable(RestoreErrBase, []error{&PhaseError{Phase: "attest", Err: &RefusedError{Msg: "no"}}}) {
		t.Error("an attest refusal became retryable")
	}
	if !restoreRetryable(RestoreErrBase, []error{ErrSessionLost}) {
		t.Error("a lost session became non-retryable")
	}
}
