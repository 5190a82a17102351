// Package elide implements SgxElide (CGO 2018): enclave code secrecy via
// self-modification.
//
// The package provides the three components of Figure 1 of the paper:
//
//   - Whitelist generation (whitelist.go): build a dummy enclave containing
//     only the SgxElide runtime and the SDK libraries it needs, and extract
//     its function symbols. These are the functions that must survive
//     sanitization in every protected enclave.
//   - The Sanitizer (sanitize.go): take a compiled, unsigned enclave ELF,
//     zero the body of every function not on the whitelist, set PF_W on the
//     text segment (SGXv1 cannot change page permissions at runtime), and
//     emit enclave.secret.meta + enclave.secret.data.
//   - The Runtime Restorer: trusted code (trusted.go, compiled into every
//     protected enclave) exposing the single ecall elide_restore, plus the
//     untrusted runtime (runtime.go) servicing its ocalls, plus the
//     developer-controlled authentication server (server.go).
package elide

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"

	"sgxelide/internal/sdk"
)

// Requests of the untrusted elide_server_request ocall (first argument).
const (
	ReqAttest  = 0 // payload: report(200) || client ECDH pub(32); reply: server pub(32)
	ReqChannel = 1 // payload: AES-GCM encrypted message on the attested channel
)

// Request bytes inside the encrypted channel (the paper's one-byte protocol).
const (
	RequestMeta = 1
	RequestData = 2
)

// Secret data formats.
const (
	FormatWholeText = 0 // data is the entire original text section (paper §5)
	FormatRanges    = 1 // data is (count, {off,len,bytes}...) records — the
	// space optimization the paper describes but does not implement
)

// elide_restore flags (the ecall's argument).
const (
	FlagTrySealed = 1 << 0 // attempt restore from the sealed file first
	FlagSealAfter = 1 << 1 // seal the secret after restoring (paper step 7)
)

// elide_restore return codes.
const (
	RestoreOKServer = 0   // restored via the authentication server
	RestoreOKSealed = 1   // restored from the sealed file, no network
	RestoreErrBase  = 100 // codes >= RestoreErrBase are failures (see trusted.go)

	// RestoreErrTorn: the post-restore text digest did not match the
	// metadata's digest — the memcpy wrote something other than the
	// original bytes (torn apply, or a server that released tampered
	// data). The enclave does not mark itself restored, so a retry
	// re-runs the whole protocol.
	RestoreErrTorn = 110
)

// Diagnostic codes of the elide_report ocall: the trusted restorer's way
// of telling the untrusted runtime *why* it degraded, beyond the single
// return code of elide_restore. The runtime maps these to typed errors in
// its error ring.
const (
	ReportSealedCorrupt = 1 // sealed blob failed its MAC / digest; falling back to the network
	ReportTornRestore   = 2 // post-restore digest mismatch (RestoreErrTorn follows)
	ReportDegradedLocal = 3 // remote data fetch failed; degrading to the encrypted local file
)

// MetaBlobSize is the serialized SecretMeta size (fixed layout, carried
// encrypted over the attested channel).
const MetaBlobSize = 101

// SecretMeta is the enclave.secret.meta content: everything the restorer
// needs. It must never ship with the enclave — it lives only on the
// authentication server (it may contain the decryption key).
type SecretMeta struct {
	DataLen       uint64 // plaintext secret data length
	RestoreOffset uint64 // offset of elide_restore from the text section start
	Encrypted     bool   // secret data is stored locally, AES-GCM encrypted
	Hybrid        bool   // data is both on the server and in the encrypted local file
	Format        byte   // FormatWholeText or FormatRanges
	Key           [16]byte
	IV            [12]byte
	MAC           [16]byte
	_             [1]byte // explicit padding: boundary structs carry no implicit holes

	// TextLen/TextDigest pin the expected post-restore text: the restorer
	// hashes the whole text section after the apply and refuses to report
	// success on a mismatch (torn-restore protection).
	TextLen    uint64
	TextDigest [32]byte
}

// Marshal serializes the meta blob in the wire/file layout:
//
//	0  dataLen u64        16 flags u8 (bit0 encrypted, bit1 ranges, bit2 hybrid)
//	8  restoreOffset u64  17 key[16]  33 iv[12]  45 mac[16]
//	61 textLen u64        69 textDigest[32]
func (m *SecretMeta) Marshal() []byte {
	out := make([]byte, MetaBlobSize)
	binary.LittleEndian.PutUint64(out[0:], m.DataLen)
	binary.LittleEndian.PutUint64(out[8:], m.RestoreOffset)
	var flags byte
	if m.Encrypted {
		flags |= 1
	}
	if m.Format == FormatRanges {
		flags |= 2
	}
	if m.Hybrid {
		flags |= 4
	}
	out[16] = flags
	copy(out[17:33], m.Key[:])
	copy(out[33:45], m.IV[:])
	copy(out[45:61], m.MAC[:])
	binary.LittleEndian.PutUint64(out[61:], m.TextLen)
	copy(out[69:101], m.TextDigest[:])
	return out
}

// UnmarshalMeta parses a meta blob. It refuses flags Marshal never writes:
// unknown bits 3–7, and hybrid without encrypted (Sanitize encrypts every
// hybrid build's local copy, and the enclave's local fallback would fetch
// from the server again).
func UnmarshalMeta(b []byte) (*SecretMeta, error) {
	if len(b) != MetaBlobSize {
		return nil, fmt.Errorf("elide: meta blob is %d bytes, want %d", len(b), MetaBlobSize)
	}
	if flags := b[16]; flags&^7 != 0 || (flags&4 != 0 && flags&1 == 0) {
		return nil, fmt.Errorf("elide: meta flags 0x%02x are not a valid data mode", flags)
	}
	m := &SecretMeta{
		DataLen:       binary.LittleEndian.Uint64(b[0:]),
		RestoreOffset: binary.LittleEndian.Uint64(b[8:]),
		Encrypted:     b[16]&1 != 0,
		Hybrid:        b[16]&4 != 0,
		TextLen:       binary.LittleEndian.Uint64(b[61:]),
	}
	if b[16]&2 != 0 {
		m.Format = FormatRanges
	}
	copy(m.Key[:], b[17:33])
	copy(m.IV[:], b[33:45])
	copy(m.MAC[:], b[45:61])
	copy(m.TextDigest[:], b[69:101])
	return m, nil
}

// sealEncrypt AES-GCM-encrypts plaintext under a fresh IV, returning
// iv || mac || ct (the framing used on the channel and in files).
func sealEncrypt(key, plaintext []byte) ([]byte, error) {
	iv := make([]byte, sdk.GCMIVSize)
	if _, err := rand.Read(iv); err != nil {
		return nil, err
	}
	ct, mac, err := sdk.AESGCMSeal(key, iv, plaintext)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(iv)+len(mac)+len(ct))
	out = append(out, iv...)
	out = append(out, mac...)
	out = append(out, ct...)
	return out, nil
}

// ChannelSeal encrypts one request or response for the attested channel:
// AES-GCM under the session's derived key, framed iv || mac || ct. It is
// what the trusted restorer does before every REQUEST_* — exported so
// protocol-level tooling (conformance tests, the load generator) can
// speak the channel without loading an enclave per session.
func ChannelSeal(key, plaintext []byte) ([]byte, error) {
	return sealEncrypt(key, plaintext)
}

// ChannelOpen reverses ChannelSeal.
func ChannelOpen(key, blob []byte) ([]byte, error) {
	return sealDecrypt(key, blob)
}

// sealDecrypt reverses sealEncrypt.
func sealDecrypt(key, blob []byte) ([]byte, error) {
	if len(blob) < sdk.GCMIVSize+sdk.GCMMACSize {
		return nil, fmt.Errorf("elide: encrypted blob too short")
	}
	iv := blob[:sdk.GCMIVSize]
	mac := blob[sdk.GCMIVSize : sdk.GCMIVSize+sdk.GCMMACSize]
	ct := blob[sdk.GCMIVSize+sdk.GCMMACSize:]
	return sdk.AESGCMOpen(key, iv, ct, mac)
}
