// Package secrets declares what "secret" means to the elide-vet suite —
// the type/field/function patterns that seed taint — and implements the
// small intraprocedural taint tracker the constanttime and secretflow
// analyzers share (taint.go).
//
// The patterns are name-based rather than import-path-based on purpose:
// the analyzers must recognize the same shapes in their golden testdata
// packages (which re-declare miniature SecretMeta/AESGCMOpen lookalikes)
// as in the production tree, and SGXElide's secret-bearing identifiers
// are distinctive enough that names are a reliable signal here.
package secrets

import "regexp"

// FieldPattern marks struct fields as secret: Type matches the defining
// named type ("SecretMeta", or qualified "elide.SecretMeta" — the
// pattern is applied to both forms), Field matches the field name.
type FieldPattern struct {
	Type  *regexp.Regexp
	Field *regexp.Regexp
}

// FuncPattern marks a function or method whose result carries a secret.
// The pattern is applied to the callee's dotted name: "pkg.Func" for
// functions, "pkg.Recv.Method" for methods, and the bare name for
// package-local calls. Result selects which result is secret (-1 = all).
type FuncPattern struct {
	Func   *regexp.Regexp
	Result int
}

// SinkKind classifies how a secretflow sink leaks.
type SinkKind int

const (
	// SinkArgs: any secret-tainted argument leaks (logging, formatting,
	// error construction — the value ends up in operator-visible text).
	SinkArgs SinkKind = iota
	// SinkName: the secret leaks through the observability *name* space —
	// metric names, span attribute string values — which is exported in
	// plaintext to /metrics and trace files.
	SinkName
	// SinkAudit: the secret leaks into the security audit event stream —
	// AuditEvent fields are serialized verbatim to the /audit endpoint,
	// the -audit-file JSONL sink, and flight-recorder diagnostic bundles.
	SinkAudit
	// SinkWire: the value crosses the inter-server replication link.
	// Only fleet-key-wrapped blobs (wrapResumeRecord) may be passed —
	// a raw channel key or marshaled record here is a cleartext key on
	// the network.
	SinkWire
)

// SinkPattern marks a call as a secretflow sink.
type SinkPattern struct {
	Func *regexp.Regexp
	Kind SinkKind
}

// Config is the secrecy model the analyzers enforce. Compare* sources
// seed the constanttime analyzer (values whose comparison outcome gates
// or leaks secret state: keys, MACs, channel bindings, measurements);
// Flow* sources seed secretflow (values whose *bytes* must never reach
// logs, errors, or metrics: key material and secret plaintext — note
// measurements are compare-sensitive but deliberately not flow-secret,
// the per-enclave metric labels are built from them by design). Wipe*
// configures the wipe analyzer's sources and recognized zeroizers.
type Config struct {
	CompareFields []FieldPattern
	CompareFuncs  []FuncPattern
	CompareVars   []*regexp.Regexp

	FlowFields []FieldPattern
	FlowFuncs  []FuncPattern
	FlowVars   []*regexp.Regexp

	Sinks []SinkPattern

	// WipeSources are calls returning decrypted or derived secret buffers
	// that the caller owns and must zeroize on every exit path.
	WipeSources []FuncPattern
	// Wipers are the zeroization functions the wipe analyzer accepts
	// (matched like FuncPattern.Func). The clear() builtin and an
	// explicit for-range zeroing loop are always accepted.
	Wipers *regexp.Regexp

	// BoundaryTypes are struct types that cross the enclave/host or wire
	// boundary by layout (fixed marshaled images, attestation evidence):
	// padleak requires their layouts to carry no implicit padding even
	// when no gob/binary call site is visible in the analyzed package.
	BoundaryTypes *regexp.Regexp
}

// Default is the SGXElide secrecy model: the channel and seal keys, the
// GCM material in SecretMeta, quote binding data, secret plaintext, and
// the decrypt/derive helpers that produce them.
func Default() *Config {
	return &Config{
		CompareFields: []FieldPattern{
			// SecretMeta carries the local-data key and GCM material.
			{Type: re(`(^|\.)SecretMeta$`), Field: re(`^(Key|IV|MAC)$`)},
			// Attestation evidence: report data binds the channel key to the
			// quote (the PR 3 timing bug), MACs gate trust, measurements gate
			// secret release.
			{Type: re(`(^|\.)(Quote|Report)$`), Field: re(`^(Data|MAC)$`)},
			{Type: re(`(^|\.)(Quote|Report|SigStruct|SecretEntry)$`), Field: re(`^(MrEnclave|MrSigner|EnclaveHash)$`)},
			{Type: re(`(^|\.)Session$`), Field: re(`^channelKey$`)},
			{Type: re(`(^|\.)ResumeRecord$`), Field: re(`^ChannelKey$`)},
			{Type: re(`(^|\.)(SecretEntry|SanitizeResult|DeployedSecrets)$`), Field: re(`^SecretPlain$`)},
		},
		CompareFuncs: []FuncPattern{
			{Func: re(`(^|\.)(AESGCMOpen|ChannelOpen|sealDecrypt)$`), Result: 0},
			{Func: re(`(^|\.)DeriveChannelKey$`), Result: 0},
			{Func: re(`(^|\.)(sealKey|reportKey|launchKey)$`), Result: 0},
		},
		CompareVars: []*regexp.Regexp{
			re(`^(binding|channelKey|sealKey|mrenclave|mrEnclave)$`),
		},

		FlowFields: []FieldPattern{
			{Type: re(`(^|\.)SecretMeta$`), Field: re(`^Key$`)},
			{Type: re(`(^|\.)Session$`), Field: re(`^channelKey$`)},
			{Type: re(`(^|\.)ResumeRecord$`), Field: re(`^ChannelKey$`)},
			{Type: re(`(^|\.)(SecretEntry|SanitizeResult|DeployedSecrets)$`), Field: re(`^SecretPlain$`)},
		},
		FlowFuncs: []FuncPattern{
			{Func: re(`(^|\.)(AESGCMOpen|ChannelOpen|sealDecrypt)$`), Result: 0},
			{Func: re(`(^|\.)DeriveChannelKey$`), Result: 0},
			{Func: re(`(^|\.)(sealKey|reportKey|launchKey)$`), Result: 0},
			// The marshaled resume record embeds the channel key verbatim: it
			// exists only as the plaintext input to the fleet-key wrapping.
			{Func: re(`(^|\.)marshalResumeRecord$`), Result: 0},
		},
		FlowVars: []*regexp.Regexp{
			re(`^(channelKey|sealKey|secretPlain)$`),
		},

		Sinks: []SinkPattern{
			{Func: re(`^fmt\.(Print|Printf|Println|Sprint|Sprintf|Sprintln|Fprint|Fprintf|Fprintln|Errorf|Appendf?|Appendln)$`), Kind: SinkArgs},
			{Func: re(`^log\.(Print|Printf|Println|Fatal|Fatalf|Fatalln|Panic|Panicf|Panicln|Output)$`), Kind: SinkArgs},
			{Func: re(`^log\.Logger\.(Print|Printf|Println|Fatal|Fatalf|Fatalln|Panic|Panicf|Panicln|Output)$`), Kind: SinkArgs},
			{Func: re(`^(log/slog|slog)\.`), Kind: SinkArgs},
			{Func: re(`^errors\.New$`), Kind: SinkArgs},
			// Observability name space: metric names and span string attrs
			// are exported in plaintext (Prometheus text, trace JSONL).
			{Func: re(`(^|\.)Registry\.(Counter|Gauge|Observe)$`), Kind: SinkName},
			{Func: re(`(^|\.)Span\.(SetStr|SetAttr)$`), Kind: SinkName},
			{Func: re(`(^|\.)Tracer\.Start$`), Kind: SinkName},
			// Audit pipeline: events are serialized verbatim to /audit, the
			// -audit-file sink, and flight-recorder bundles — operator-visible
			// surfaces a secret must never reach.
			{Func: re(`(^|\.)AuditLog\.Emit$`), Kind: SinkAudit},
			// Inter-server resume replication: frames written here go onto
			// the network; only wrapped records may pass (DESIGN §14).
			{Func: re(`(^|\.)writePeerFrame$`), Kind: SinkWire},
		},

		WipeSources: []FuncPattern{
			{Func: re(`(^|\.)(AESGCMOpen|ChannelOpen|sealDecrypt)$`), Result: 0},
			{Func: re(`(^|\.)DeriveChannelKey$`), Result: 0},
			{Func: re(`(^|\.)marshalResumeRecord$`), Result: 0},
		},
		Wipers: re(`(^|\.)[Ww]ipe[A-Za-z0-9_]*$|(^|\.)[Zz]eroize$`),

		BoundaryTypes: re(`(^|\.)(SecretMeta|Quote|Report|SigStruct|attestMsg)$`),
	}
}

func re(s string) *regexp.Regexp { return regexp.MustCompile(s) }
