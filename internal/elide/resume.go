package elide

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"sgxelide/internal/sdk"
)

// Session resumption as a fleet-level resource. The server keys every
// established channel by the quote-bound client ephemeral key hash; a
// reconnecting client replays its handshake and gets the same channel key
// back, so the enclave's derived key stays valid across the reconnect.
// This file holds that cache, an in-process LRU, and defines the
// replicated record format: what one server may hand another so *any*
// replica can resume *any* client (see replication.go for the wire
// plumbing and DESIGN §14 for the threat model).

// ResumeRecord is one cached attested channel, the unit both the local
// store and the replication link deal in.
//
// SECURITY: ChannelKey is live AES channel key material. Inside a process
// it lives only in the store; on the inter-server link the whole record
// travels exclusively as a wrapResumeRecord blob — AES-GCM under the
// fleet sealing key — never as cleartext fields (elide-vet's secretflow
// model enforces this: writePeerFrame is a wire sink).
type ResumeRecord struct {
	Binding    [32]byte  // sha256 of the quote-bound client ephemeral pub
	ServerPub  []byte    // the server key the enclave's channel key is bound to
	ChannelKey []byte    // established AES channel key (secret)
	MrEnclave  [32]byte  // measurement the session attested as
	ExpiresAt  time.Time // zero = no expiry
}

// expired reports whether the record is past its TTL at now.
func (r ResumeRecord) expired(now time.Time) bool {
	return !r.ExpiresAt.IsZero() && now.After(r.ExpiresAt)
}

// lruResumeStore is the session-resumption cache behind the server,
// sized by WithResumeCacheSize: a true LRU (both a hit and a re-store
// refresh recency, so a hot resumed session cannot be evicted before
// cold ones) with lazy per-entry expiry. A fleet (WithFleet) replicates
// its records. Safe for concurrent use.
type lruResumeStore struct {
	mu      sync.Mutex
	cap     int
	entries map[[32]byte]*list.Element // value: *ResumeRecord
	order   *list.List                 // front = least recently used
	now     func() time.Time           // test seam
}

// newLRUResumeStore builds the store; cap <= 0 disables caching (Put is
// a no-op, Get always misses).
func newLRUResumeStore(cap int) *lruResumeStore {
	return &lruResumeStore{
		cap:     cap,
		entries: make(map[[32]byte]*list.Element),
		order:   list.New(),
		now:     time.Now,
	}
}

// Put caches (or refreshes) one established channel. The record's slices
// are copied: callers (and the wire unmarshaler) reuse their buffers.
func (s *lruResumeStore) Put(rec ResumeRecord) {
	if s.cap <= 0 {
		return
	}
	rec.ServerPub = append([]byte(nil), rec.ServerPub...)
	rec.ChannelKey = append([]byte(nil), rec.ChannelKey...)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[rec.Binding]; ok {
		// No wipe on refresh or eviction: Get hands out the stored slices,
		// and a live session may still be using the old key.
		*el.Value.(*ResumeRecord) = rec
		s.order.MoveToBack(el)
		return
	}
	for s.order.Len() >= s.cap {
		oldest := s.order.Front()
		delete(s.entries, oldest.Value.(*ResumeRecord).Binding)
		s.order.Remove(oldest)
	}
	s.entries[rec.Binding] = s.order.PushBack(&rec)
}

// Get resolves a client binding: a hit refreshes recency; an entry past
// its TTL is removed and reported as expired, not as a hit (the caller
// audits that distinctly from a plain miss).
func (s *lruResumeStore) Get(binding [32]byte) (ResumeRecord, bool, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[binding]
	if !ok {
		return ResumeRecord{}, false, false
	}
	rec := el.Value.(*ResumeRecord)
	if rec.expired(s.now()) {
		delete(s.entries, binding)
		s.order.Remove(el)
		return ResumeRecord{}, false, true
	}
	s.order.MoveToBack(el)
	return *rec, true, false
}

// Len reports the live entry count.
func (s *lruResumeStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Bindings is what anti-entropy (membership.go) keys on: a snapshot of
// the non-expired bindings held. Bindings are SHA-256 values, safe to
// compare against a peer's digest.
func (s *lruResumeStore) Bindings() [][32]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	out := make([][32]byte, 0, len(s.entries))
	for binding, el := range s.entries {
		if el.Value.(*ResumeRecord).expired(now) {
			continue
		}
		out = append(out, binding)
	}
	return out
}

// --- replicated record wire format ---

// resumeRecordVersion versions the marshaled record layout inside the
// fleet-key wrapping; unknown versions are rejected on open.
const resumeRecordVersion = 1

// resumeRecordMax bounds an unwrapped record so a hostile peer frame
// cannot claim absurd lengths (pub and key are length-prefixed u8s, so
// the real bound is small; this is belt and braces on the outer blob).
const resumeRecordMax = 1 + 32 + 32 + 8 + 1 + 255 + 1 + 255

// marshalResumeRecord lays the record out as
//
//	version(1) || binding(32) || mrenclave(32) || expires-unixnano(8 LE)
//	|| u8 pubLen || pub || u8 keyLen || key
//
// The returned buffer contains live channel-key bytes: callers own it and
// must wipe it (wrapResumeRecord does) — it exists only as the plaintext
// input to the fleet-key wrapping and must never be written anywhere.
func marshalResumeRecord(rec ResumeRecord) ([]byte, error) {
	if len(rec.ServerPub) > 255 || len(rec.ChannelKey) > 255 {
		return nil, fmt.Errorf("elide: resume record field too large")
	}
	var exp int64
	if !rec.ExpiresAt.IsZero() {
		exp = rec.ExpiresAt.UnixNano()
	}
	out := make([]byte, 0, 1+32+32+8+1+len(rec.ServerPub)+1+len(rec.ChannelKey))
	out = append(out, resumeRecordVersion)
	out = append(out, rec.Binding[:]...)
	out = append(out, rec.MrEnclave[:]...)
	out = binary.LittleEndian.AppendUint64(out, uint64(exp))
	out = append(out, byte(len(rec.ServerPub)))
	out = append(out, rec.ServerPub...)
	out = append(out, byte(len(rec.ChannelKey)))
	out = append(out, rec.ChannelKey...)
	return out, nil
}

// unmarshalResumeRecord reverses marshalResumeRecord, copying the
// variable-length fields out of b (the caller wipes b).
func unmarshalResumeRecord(b []byte) (ResumeRecord, error) {
	var rec ResumeRecord
	if len(b) < 1+32+32+8+2 {
		return rec, fmt.Errorf("elide: resume record too short (%d bytes)", len(b))
	}
	if b[0] != resumeRecordVersion {
		return rec, fmt.Errorf("elide: unknown resume record version %d", b[0])
	}
	b = b[1:]
	copy(rec.Binding[:], b[:32])
	copy(rec.MrEnclave[:], b[32:64])
	exp := int64(binary.LittleEndian.Uint64(b[64:72]))
	if exp != 0 {
		rec.ExpiresAt = time.Unix(0, exp)
	}
	b = b[72:]
	pubLen := int(b[0])
	if len(b) < 1+pubLen+1 {
		return ResumeRecord{}, fmt.Errorf("elide: truncated resume record pub")
	}
	rec.ServerPub = append([]byte(nil), b[1:1+pubLen]...)
	b = b[1+pubLen:]
	keyLen := int(b[0])
	if len(b) != 1+keyLen {
		return ResumeRecord{}, fmt.Errorf("elide: truncated resume record key")
	}
	rec.ChannelKey = append([]byte(nil), b[1:1+keyLen]...)
	return rec, nil
}

// wrapResumeRecord seals a record for the inter-server link: AES-GCM
// under the fleet sealing key, iv || mac || ct. The GCM MAC authenticates
// the whole record, so a peer frame forged or bit-flipped in transit
// fails to open; freshness is bounded by the in-record expiry, which is
// inside the sealed payload and cannot be extended by a replaying
// network. This is the ONLY form in which a channel key may cross the
// wire.
func wrapResumeRecord(fleetKey []byte, rec ResumeRecord) ([]byte, error) {
	plain, err := marshalResumeRecord(rec)
	if err != nil {
		return nil, err
	}
	blob, err := sealEncrypt(fleetKey, plain)
	sdk.Wipe(plain)
	return blob, err
}

// openResumeRecord reverses wrapResumeRecord, rejecting blobs that fail
// authentication, parse, or exceed the record size bound.
func openResumeRecord(fleetKey, blob []byte) (ResumeRecord, error) {
	if len(blob) > resumeRecordMax+sdk.GCMIVSize+sdk.GCMMACSize {
		return ResumeRecord{}, fmt.Errorf("elide: wrapped resume record too large (%d bytes)", len(blob))
	}
	plain, err := sealDecrypt(fleetKey, blob)
	if err != nil {
		return ResumeRecord{}, fmt.Errorf("elide: resume record failed authentication: %w", err)
	}
	rec, err := unmarshalResumeRecord(plain)
	sdk.Wipe(plain)
	return rec, err
}

// validFleetKey checks a fleet sealing key is a usable AES key size.
func validFleetKey(key []byte) error {
	switch len(key) {
	case 16, 24, 32:
		return nil
	}
	return fmt.Errorf("elide: fleet sealing key must be 16, 24, or 32 bytes (got %d)", len(key))
}
