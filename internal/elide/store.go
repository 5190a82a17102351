package elide

import (
	"context"
	"crypto/ecdsa"
	"crypto/subtle"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sgxelide/internal/obs"
)

// SecretEntry is one registered sanitized-enclave identity and the secrets
// released to it: the metadata blob (with the local-data key when the
// sanitizer encrypted the data) and, in remote-data and hybrid mode, the
// plaintext secret bytes. Entries are immutable once registered — a
// re-registration replaces the entry wholesale (carrying the counters
// over), so sessions holding a resolved entry keep a consistent snapshot.
type SecretEntry struct {
	MrEnclave   [32]byte
	Meta        *SecretMeta
	SecretPlain []byte // nil in local-data mode
	Name        string // deployment name (directory-loaded entries: the subdir)

	label string // short hex measurement prefix used in metric names and spans
	dir   string // source subdir name when loaded by LoadDir ("" = manual)

	// Per-enclave release counters, written by sessions on the hot path.
	attests    atomic.Uint64
	metaServed atomic.Uint64
	dataServed atomic.Uint64
	bundles    atomic.Uint64 // ProtoV1 bundled attest replies served
}

// Label returns the short hex measurement prefix identifying this entry in
// metric names and trace attributes.
func (e *SecretEntry) Label() string { return e.label }

// MeasurementLabel is the short hex measurement prefix that names a
// deployment: its entry's Label, and the subdirectory of a deployments
// directory that elide-run -emit-server writes it to.
func MeasurementLabel(mr [32]byte) string { return hex.EncodeToString(mr[:4]) }

// EntryStats is a point-in-time view of one entry's release counters.
type EntryStats struct {
	Attests    uint64 `json:"attests"`
	MetaServed uint64 `json:"meta_served"`
	DataServed uint64 `json:"data_served"`
	Bundles    uint64 `json:"bundles"` // pipelined (single-flight) restores served
}

// Stats snapshots the entry's counters.
func (e *SecretEntry) Stats() EntryStats {
	return EntryStats{
		Attests:    e.attests.Load(),
		MetaServed: e.metaServed.Load(),
		DataServed: e.dataServed.Load(),
		Bundles:    e.bundles.Load(),
	}
}

// SecretStore is a concurrent map from enclave measurement to the secrets
// released to that identity. One store backs one authentication server,
// letting a single process serve any number of distinct sanitized enclave
// builds: Session.Attest resolves the entry from the attested quote's
// MRENCLAVE, and Session.Request serves only that entry.
//
// Entries can be registered and removed at runtime; LoadDir/Watch keep the
// store in sync with an on-disk directory of WriteServerFiles deployments
// without a server restart.
type SecretStore struct {
	mu      sync.RWMutex
	entries map[[32]byte]*SecretEntry

	// Directory-loading bookkeeping: the CA pinned by the first loaded
	// deployment (all deployments must agree) guards against accidentally
	// mixing attestation roots in one serving process.
	caPub   *ecdsa.PublicKey
	scanErr error         // outcome of the most recent LoadDir pass
	audit   *obs.AuditLog // optional: rescan failures become audit events
}

// NewSecretStore returns an empty store.
func NewSecretStore() *SecretStore {
	return &SecretStore{entries: make(map[[32]byte]*SecretEntry)}
}

// validateSecrets checks that a (meta, plain) pair holds everything a
// server releases in the meta's data mode.
func validateSecrets(meta *SecretMeta, plain []byte) error {
	if meta == nil {
		return fmt.Errorf("elide: server needs the secret metadata")
	}
	if !meta.Encrypted && plain == nil {
		return fmt.Errorf("elide: remote-data mode needs the plaintext secret data")
	}
	if meta.Hybrid && plain == nil {
		return fmt.Errorf("elide: hybrid mode needs the plaintext secret data on the server")
	}
	return nil
}

// newEntry validates the secrets a server releases to mr and wraps them in
// an unregistered entry.
func newEntry(mr [32]byte, meta *SecretMeta, plain []byte, name string) (*SecretEntry, error) {
	if err := validateSecrets(meta, plain); err != nil {
		return nil, err
	}
	return &SecretEntry{
		MrEnclave:   mr,
		Meta:        meta,
		SecretPlain: plain,
		Name:        name,
		label:       MeasurementLabel(mr),
	}, nil
}

// Register adds (or replaces) the entry for mr. On replacement the release
// counters carry over; sessions that already resolved the old entry keep
// serving its snapshot until they end. Returns the registered entry.
func (st *SecretStore) Register(mr [32]byte, meta *SecretMeta, plain []byte, name string) (*SecretEntry, error) {
	e, err := newEntry(mr, meta, plain, name)
	if err != nil {
		return nil, err
	}
	st.put(e)
	return e, nil
}

// put stores e under its measurement, carrying over the counters of the
// entry it replaces.
func (st *SecretStore) put(e *SecretEntry) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if old, ok := st.entries[e.MrEnclave]; ok {
		e.attests.Store(old.attests.Load())
		e.metaServed.Store(old.metaServed.Load())
		e.dataServed.Store(old.dataServed.Load())
		e.bundles.Store(old.bundles.Load())
	}
	st.entries[e.MrEnclave] = e
}

// Remove deletes the entry for mr, reporting whether it existed. In-flight
// sessions that already resolved the entry finish with it; new attestations
// for mr are refused.
func (st *SecretStore) Remove(mr [32]byte) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	_, ok := st.entries[mr]
	delete(st.entries, mr)
	return ok
}

// Lookup resolves the entry for an attested measurement.
func (st *SecretStore) Lookup(mr [32]byte) (*SecretEntry, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	e, ok := st.entries[mr]
	return e, ok
}

// Len counts registered entries.
func (st *SecretStore) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.entries)
}

// Entries snapshots all registered entries, sorted by measurement for
// deterministic listings.
func (st *SecretStore) Entries() []*SecretEntry {
	st.mu.RLock()
	out := make([]*SecretEntry, 0, len(st.entries))
	for _, e := range st.entries {
		out = append(out, e)
	}
	st.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		return string(out[i].MrEnclave[:]) < string(out[j].MrEnclave[:])
	})
	return out
}

// SetAuditLog wires rescan failures into an audit log: every deployment a
// LoadDir pass could not load (or a whole unreadable directory) becomes a
// store_rescan_failed event.
func (st *SecretStore) SetAuditLog(a *obs.AuditLog) {
	st.mu.Lock()
	st.audit = a
	st.mu.Unlock()
}

// HealthCheck reports the store degraded while its most recent directory
// scan failed (wholly or for individual deployments). A store that never
// dir-loads is always healthy.
func (st *SecretStore) HealthCheck() error {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.scanErr
}

// recordScan captures a pass's outcome for HealthCheck and the audit
// stream.
func (st *SecretStore) recordScan(rep DirReport, err error) {
	st.mu.Lock()
	audit := st.audit
	switch {
	case err != nil:
		st.scanErr = fmt.Errorf("deployments directory scan failed: %w", err)
	case len(rep.Failed) > 0:
		names := make([]string, 0, len(rep.Failed))
		for n := range rep.Failed {
			names = append(names, n)
		}
		sort.Strings(names)
		st.scanErr = fmt.Errorf("deployments failed to load: %v", names)
	default:
		st.scanErr = nil
	}
	st.mu.Unlock()
	if audit == nil {
		return
	}
	if err != nil {
		audit.Emit(obs.AuditEvent{Type: obs.AuditStoreRescanFailed, Detail: err.Error()})
		return
	}
	for name, ferr := range rep.Failed {
		audit.Emit(obs.AuditEvent{Type: obs.AuditStoreRescanFailed, Detail: name + ": " + ferr.Error()})
	}
}

// CA returns the attestation CA pinned by directory loading (nil until the
// first successful LoadDir).
func (st *SecretStore) CA() *ecdsa.PublicKey {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.caPub
}

// DirReport summarizes one LoadDir pass over a deployments directory.
type DirReport struct {
	Added   int // deployments registered for the first time
	Updated int // deployments whose measurement or secrets changed
	Removed int // directory-loaded entries whose subdir disappeared
	Failed  map[string]error
}

// Changed reports whether the pass modified the store.
func (r DirReport) Changed() bool { return r.Added+r.Updated+r.Removed > 0 }

func (r DirReport) String() string {
	s := fmt.Sprintf("added %d, updated %d, removed %d", r.Added, r.Updated, r.Removed)
	if len(r.Failed) > 0 {
		names := make([]string, 0, len(r.Failed))
		for n := range r.Failed {
			names = append(names, n)
		}
		sort.Strings(names)
		s += fmt.Sprintf(", failed %v", names)
	}
	return s
}

// LoadDir synchronizes the store with a deployments directory: every
// immediate subdirectory holding an enclave.mrenclave file is one
// deployment in the WriteServerFiles layout. New deployments are
// registered, changed ones replaced, and directory-loaded entries whose
// subdir vanished are removed (manually Registered entries are never
// touched). All deployments must pin the same attestation CA; the first
// one loaded pins it for the store's lifetime, and a mismatching
// deployment is reported in Failed and skipped.
func (st *SecretStore) LoadDir(dir string) (DirReport, error) {
	rep := DirReport{Failed: map[string]error{}}
	des, err := os.ReadDir(dir)
	if err != nil {
		st.recordScan(rep, err)
		return rep, err
	}
	seen := map[string][32]byte{} // subdir name -> measurement this pass
	for _, de := range des {
		if !de.IsDir() {
			continue
		}
		name := de.Name()
		sub := filepath.Join(dir, name)
		if _, err := os.Stat(filepath.Join(sub, FileMeasurement)); err != nil {
			continue // not a deployment subdir
		}
		caPub, e, err := loadDeployment(sub)
		if err != nil {
			rep.Failed[name] = err
			continue
		}
		if err := st.pinCA(caPub); err != nil {
			rep.Failed[name] = err
			continue
		}
		seen[name] = e.MrEnclave
		old, existed := st.Lookup(e.MrEnclave)
		if existed && old.dir == name && sameSecrets(old, e) {
			continue // unchanged
		}
		st.put(e)
		if existed {
			rep.Updated++
		} else {
			rep.Added++
		}
	}
	// Drop directory-loaded entries whose subdir is gone or now carries a
	// different measurement (a redeploy under the same name).
	for _, e := range st.Entries() {
		if e.dir == "" {
			continue
		}
		//elide:vet-ignore constanttime rescan compares two store-owned public measurements, no attacker-supplied guess
		if mr, ok := seen[e.dir]; !ok || mr != e.MrEnclave {
			if st.Remove(e.MrEnclave) {
				rep.Removed++
			}
		}
	}
	st.recordScan(rep, nil)
	return rep, nil
}

// pinCA pins the first attestation CA seen and rejects later mismatches.
func (st *SecretStore) pinCA(pub *ecdsa.PublicKey) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.caPub == nil {
		st.caPub = pub
		return nil
	}
	if !st.caPub.Equal(pub) {
		return fmt.Errorf("elide: deployment pins a different attestation CA than the store")
	}
	return nil
}

// sameSecrets reports whether two entries release the same secrets byte
// for byte (so an unchanged deployment is not churned on every scan). Both
// blobs carry key material, so the comparison is constant time.
func sameSecrets(a, b *SecretEntry) bool {
	return subtle.ConstantTimeCompare(a.Meta.Marshal(), b.Meta.Marshal()) == 1 &&
		subtle.ConstantTimeCompare(a.SecretPlain, b.SecretPlain) == 1
}

// Watch rescans dir every interval until ctx ends, so deployments added,
// changed, or removed on disk are picked up without a server restart.
// onChange, when non-nil, runs after every pass that modified the store;
// scan errors are reported through it as a report with Failed[dir] set.
func (st *SecretStore) Watch(ctx context.Context, dir string, interval time.Duration, onChange func(DirReport)) {
	if interval <= 0 {
		return
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			rep, err := st.LoadDir(dir)
			if err != nil {
				if rep.Failed == nil {
					rep.Failed = map[string]error{}
				}
				rep.Failed[dir] = err
			}
			if onChange != nil && (rep.Changed() || len(rep.Failed) > 0) {
				onChange(rep)
			}
		}
	}
}
