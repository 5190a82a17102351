package elide

import (
	"context"
	"crypto/rand"
	"crypto/rsa"
	"fmt"

	"sgxelide/internal/edl"
	"sgxelide/internal/obs"
	"sgxelide/internal/sdk"
	"sgxelide/internal/sgx"
)

// BuildProtectedOptions configures the developer-side pipeline: compile the
// enclave with the SgxElide library, sanitize it, and sign the *sanitized*
// image (Figure 1's "Sanitized Enclave Generation").
type BuildProtectedOptions struct {
	Build    sdk.BuildConfig
	Sanitize SanitizeOptions
	AppEDL   string       // the application's own EDL (merged after elide's)
	Sources  []sdk.Source // the application's trusted sources

	// SignKey is the developer's enclave-signing key; generated (2048-bit
	// RSA) when nil.
	SignKey *rsa.PrivateKey
	// Whitelist defaults to GenerateWhitelist() when nil.
	Whitelist Whitelist
	// ProdID/SVN go into the SIGSTRUCT.
	ProdID, SVN uint16
}

// Protected is a built, sanitized, signed enclave plus its secrets — the
// developer's distributables. SanitizedELF + SigStruct (+ SecretData in
// local and hybrid mode) ship to users; Meta (+ the plaintext data in
// remote and hybrid mode, as serverData picks it) goes to the
// authentication server.
type Protected struct {
	PlainELF     []byte // pre-sanitization image (never shipped; kept for tests)
	SanitizedELF []byte
	SigStruct    *sgx.SigStruct
	Measurement  [32]byte // of the sanitized enclave
	Meta         *SecretMeta
	SecretData   []byte
	SecretPlain  []byte // hybrid mode: the plaintext copy the server serves
	Stats        SanitizeStats
	EDL          *edl.Interface
}

// BuildProtected runs the whole developer-side pipeline. The host supplies
// the platform used to predict the measurement (any SGX machine can do
// this; measurement does not depend on platform secrets).
func BuildProtected(h *sdk.Host, opts BuildProtectedOptions) (*Protected, error) {
	iface, err := MergeEDL(opts.AppEDL)
	if err != nil {
		return nil, err
	}
	sources := append(TrustedSources(), opts.Sources...)
	res, err := sdk.BuildEnclave(opts.Build, iface, sources...)
	if err != nil {
		return nil, fmt.Errorf("elide: building enclave: %w", err)
	}

	wl := opts.Whitelist
	if wl == nil {
		wl, err = GenerateWhitelist()
		if err != nil {
			return nil, err
		}
	}
	san, err := Sanitize(res.ELF, wl, opts.Sanitize)
	if err != nil {
		return nil, err
	}

	key := opts.SignKey
	if key == nil {
		key, err = rsa.GenerateKey(rand.Reader, 2048)
		if err != nil {
			return nil, err
		}
	}
	mr, err := sdk.MeasureELF(h, san.SanitizedELF)
	if err != nil {
		return nil, fmt.Errorf("elide: measuring sanitized enclave: %w", err)
	}
	ss, err := sgx.SignEnclave(key, mr, opts.ProdID, opts.SVN)
	if err != nil {
		return nil, err
	}

	return &Protected{
		PlainELF:     res.ELF,
		SanitizedELF: san.SanitizedELF,
		SigStruct:    ss,
		Measurement:  mr,
		Meta:         san.Meta,
		SecretData:   san.SecretData,
		SecretPlain:  san.SecretPlain,
		Stats:        san.Stats,
		EDL:          iface,
	}, nil
}

// serverData is the one place that decides which plaintext secret data
// the authentication server releases for this deployment: SecretData in
// remote-data mode, the SecretPlain copy in hybrid mode, and nil in
// local-data mode, where the server releases only the metadata and its key.
func (p *Protected) serverData() []byte {
	switch {
	case !p.Meta.Encrypted:
		return p.SecretData
	case p.Meta.Hybrid:
		return p.SecretPlain
	}
	return nil
}

// NewServerFor builds the authentication server for this deployment: a
// store holding its one entry, pinning the given attestation CA. Options
// configure the serving policy (session cap, timeouts, metrics).
func (p *Protected) NewServerFor(ca *sgx.CA, opts ...ServerOption) (*Server, error) {
	st := NewSecretStore()
	if _, err := st.Register(p.Measurement, p.Meta, p.serverData(), ""); err != nil {
		return nil, err
	}
	return NewMultiServer(ca.PublicKey(), st, opts...)
}

// LocalFiles returns the file store a user machine would hold: the
// encrypted secret data in local mode, nothing in remote mode.
func (p *Protected) LocalFiles() *FileStore {
	fs := &FileStore{}
	if p.Meta.Encrypted {
		fs.SecretData = append([]byte(nil), p.SecretData...)
	}
	return fs
}

// Launch loads the sanitized enclave on the user's machine and installs the
// SgxElide untrusted runtime. The caller then invokes the single required
// ecall: enclave.ECall("elide_restore", flags). It is the compatibility
// wrapper around LaunchContext with a background context.
func (p *Protected) Launch(h *sdk.Host, client SecretChannel, files *FileStore) (*sdk.Enclave, *Runtime, error) {
	return p.LaunchContext(context.Background(), h, client, files)
}

// LaunchContext is Launch with an explicit context: every server call the
// runtime makes on behalf of the enclave's ocalls (attestation, channel
// requests during elide_restore) is bounded by ctx.
func (p *Protected) LaunchContext(ctx context.Context, h *sdk.Host, client SecretChannel, files *FileStore) (*sdk.Enclave, *Runtime, error) {
	rt := &Runtime{Client: client, Files: files, Ctx: ctx, Metrics: h.Metrics}
	rt.Install(h)
	encl, err := h.CreateEnclave(p.SanitizedELF, p.SigStruct, p.EDL)
	if err != nil {
		return nil, nil, err
	}
	return encl, rt, nil
}

// Restore invokes the elide_restore ecall under a root trace span and
// completes the launch trace. The observable phases — attest,
// request_meta, request_data, decrypt, seal — are recorded live by the
// runtime's ocall handlers and the SDK's crypto intrinsics as the enclave
// drives the protocol; the self-modification itself (elide_apply's memcpy
// over the sanitized text) runs entirely inside the enclave between two
// observable events, so its "restore" span is synthesized afterwards from
// the surrounding boundaries. Tracing is wired through the Host; with no
// Host.Tracer this is exactly ECall("elide_restore", flags).
func Restore(encl *sdk.Enclave, flags uint64) (uint64, error) {
	code, _, err := restoreTraced(encl, flags)
	return code, err
}

// restoreTraced is Restore returning the trace ID of the run it recorded
// (zero without a tracer) — what the resilience driver and the flight
// recorder use to correlate one attempt with its spans and audit events.
func restoreTraced(encl *sdk.Enclave, flags uint64) (uint64, uint64, error) {
	root, endSpan := encl.Host.BeginSpan("elide_restore")
	root.SetInt("flags", int64(flags))
	code, err := encl.ECall("elide_restore", flags)
	root.SetInt("code", int64(code))
	root.SetError(err)
	endSpan()
	if err == nil && code < RestoreErrBase {
		// Only a successful restore actually ran the memcpy; a failure
		// (e.g. server unreachable) must not synthesize a phantom phase.
		synthesizeRestoreSpan(encl.Host.Tracer, root)
	}
	return code, root.TraceID(), err
}

// synthesizeRestoreSpan adds the enclave-internal "restore" phase to the
// trace rooted at root: it starts where the last data-producing event
// ended (the payload decrypt, or the data fetch) and ends where the seal
// sequence begins (its first encrypt) or where the restore ecall returned.
func synthesizeRestoreSpan(tr *obs.Tracer, root *obs.Span) {
	if tr == nil || root == nil {
		return
	}
	traceID := root.TraceID()
	var trace []obs.SpanRecord
	for _, r := range tr.Completed() {
		if r.TraceID == traceID {
			trace = append(trace, r)
		}
	}
	var start, end int64
	for _, r := range trace {
		switch r.Name {
		case "attest", "request_meta", "request_data", "read_sealed", "decrypt":
			if r.EndNS > start {
				start = r.EndNS
			}
		case "ecall:elide_restore":
			if r.EndNS > end {
				end = r.EndNS
			}
		}
	}
	if start == 0 || end <= start {
		return // nothing restored (failed early, or already restored)
	}
	for _, r := range trace {
		switch r.Name {
		case "seal", "encrypt":
			if r.StartNS >= start && r.StartNS < end {
				end = r.StartNS
			}
		}
	}
	tr.Add(obs.SpanRecord{
		TraceID:  traceID,
		ParentID: root.ID(),
		Name:     "restore",
		StartNS:  start,
		EndNS:    end,
	})
}
