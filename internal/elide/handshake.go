package elide

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"sgxelide/internal/sgx"
)

// Wire protocol modes, chosen with WithProtocolVersion. There is one wire
// protocol; the modes differ only in whether an attest asks for a bundle.
const (
	// ProtoUnbundled asks for no bundle: one flight per protocol step,
	// three per restore — the load benchmark's baseline.
	ProtoUnbundled uint8 = 0
	// ProtoV1 is the wire version and the client default: the attest
	// reply bundles the encrypted meta and data responses, so a restore
	// is one flight.
	ProtoV1 uint8 = 1
)

// Handshake kinds. Only the client kinds carry a quote.
const (
	kindAttest   uint8 = 1 // client attestation; Bundle names the responses to pipeline
	kindResume   uint8 = 2 // client resuming an established session on a new connection
	kindPeerLink uint8 = 3 // fleet peer opening a replication link (replication.go)
	kindMembers  uint8 = 4 // client asking for the fleet member list (membership.go)
)

// Bundle request bits, in protocol order.
const (
	bundleMeta byte = 1 << 0 // REQUEST_META reply
	bundleData byte = 1 << 1 // REQUEST_DATA reply
)

const (
	handshakeHeader = 3 + 8 + 8                        // version, kind, bundle, trace ID, span ID
	quoteFixed      = 32 + 32 + 2 + sgx.ReportDataSize // MrEnclave, MrSigner, ProdID, report data
	// maxHandshake bounds a handshake payload: a client kind with all five
	// length-prefixed fields at 255 bytes. A larger length header is
	// refused before anything is allocated for it.
	maxHandshake = handshakeHeader + quoteFixed + 5*(1+255)
)

// errBadHandshake marks a handshake frame that arrived whole but does not
// decode; the server answers it with a refusal.
var errBadHandshake = errors.New("elide: malformed handshake")

// attestMsg is the handshake, the first frame on every connection (layout
// at appendHandshake). TraceID/SpanID parent the server's session span
// into the caller's trace (zero = not tracing); they are random
// tracer-local IDs and carry no secret material.
type attestMsg struct {
	Quote     *sgx.Quote // client kinds only
	ClientPub []byte     // client kinds only
	TraceID   uint64
	SpanID    uint64
	Kind      uint8
	Bundle    byte    // bundleMeta|bundleData, attest only
	_         [6]byte // explicit padding: boundary structs carry no implicit holes
}

func (m *attestMsg) hasQuote() bool { return m.Kind == kindAttest || m.Kind == kindResume }

// check refuses what the layout cannot carry: an unknown kind, reserved
// bundle bits, or a bundle on anything but an attest.
func (m *attestMsg) check() error {
	if m.Kind < kindAttest || m.Kind > kindMembers ||
		m.Bundle&^(bundleMeta|bundleData) != 0 || (m.Bundle != 0 && m.Kind != kindAttest) {
		return fmt.Errorf("%w: kind %d, bundle %#x", errBadHandshake, m.Kind, m.Bundle)
	}
	return nil
}

// appendHandshake appends m's encoding (little-endian):
//
//	version(1)=ProtoV1 || kind(1) || bundle(1) || u64 traceID || u64 spanID
//	client kinds only:
//	  MrEnclave(32) || MrSigner(32) || u16 ProdID || reportData(64)
//	  || 5 × (u8 len || field): clientPub, signature, QE key X, QE key Y, QE cert
func appendHandshake(dst []byte, m *attestMsg) ([]byte, error) {
	if err := m.check(); err != nil {
		return nil, err
	}
	dst = append(dst, ProtoV1, m.Kind, m.Bundle)
	dst = binary.LittleEndian.AppendUint64(dst, m.TraceID)
	dst = binary.LittleEndian.AppendUint64(dst, m.SpanID)
	if !m.hasQuote() {
		return dst, nil
	}
	q := m.Quote
	if q == nil {
		return nil, fmt.Errorf("%w: no quote", errBadHandshake)
	}
	dst = append(append(dst, q.MrEnclave[:]...), q.MrSigner[:]...)
	dst = binary.LittleEndian.AppendUint16(dst, q.ProdID)
	dst = append(dst, q.Data[:]...)
	for _, f := range [...][]byte{m.ClientPub, q.Signature, q.QEPubX, q.QEPubY, q.QECert} {
		if len(f) > 255 {
			return nil, fmt.Errorf("%w: %d-byte field", errBadHandshake, len(f))
		}
		dst = append(append(dst, byte(len(f))), f...)
	}
	return dst, nil
}

// parseHandshake is the exact inverse of appendHandshake: it also refuses
// unknown versions and trailing bytes. The variable-length fields alias b.
func parseHandshake(b []byte) (*attestMsg, error) {
	if len(b) < handshakeHeader {
		return nil, fmt.Errorf("%w: %d bytes", errBadHandshake, len(b))
	}
	if b[0] != ProtoV1 {
		return nil, fmt.Errorf("%w: version %d", errBadHandshake, b[0])
	}
	m := &attestMsg{Kind: b[1], Bundle: b[2],
		TraceID: binary.LittleEndian.Uint64(b[3:]), SpanID: binary.LittleEndian.Uint64(b[11:])}
	if err := m.check(); err != nil {
		return nil, err
	}
	b = b[handshakeHeader:]
	if m.hasQuote() {
		if len(b) < quoteFixed {
			return nil, fmt.Errorf("%w: truncated quote", errBadHandshake)
		}
		q := new(sgx.Quote)
		copy(q.MrEnclave[:], b[:32])
		copy(q.MrSigner[:], b[32:64])
		q.ProdID = binary.LittleEndian.Uint16(b[64:])
		copy(q.Data[:], b[66:quoteFixed])
		b = b[quoteFixed:]
		for _, f := range [...]*[]byte{&m.ClientPub, &q.Signature, &q.QEPubX, &q.QEPubY, &q.QECert} {
			if len(b) == 0 || len(b) <= int(b[0]) {
				return nil, fmt.Errorf("%w: truncated field", errBadHandshake)
			}
			n := 1 + int(b[0])
			*f, b = b[1:n:n], b[n:] // capped: an append cannot run into the next field
		}
		m.Quote = q
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", errBadHandshake, len(b))
	}
	return m, nil
}

// writeHandshake sends m as one frame, assembled in a pooled buffer.
func writeHandshake(w io.Writer, m *attestMsg) error {
	bp := framePool.Get().(*[]byte)
	defer framePool.Put(bp)
	buf, err := appendHandshake(append((*bp)[:0], 0, 0, 0, 0), m)
	if err != nil {
		return err
	}
	*bp = buf[:0]
	binary.LittleEndian.PutUint32(buf, uint32(len(buf)-4))
	_, err = w.Write(buf)
	return err
}

// readHandshake reads and decodes one handshake frame, refusing a length
// header above maxHandshake before allocating for it.
func readHandshake(r io.Reader) (*attestMsg, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxHandshake {
		return nil, fmt.Errorf("%w (%d-byte handshake)", ErrFrameTooLarge, n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	return parseHandshake(b)
}

// marshalAttestReply assembles the server's attestation reply:
//
//	version(1) || pub(32) || u32 metaLen || encMeta || u32 dataLen || encData
//
// where a zero length means that part was not bundled.
func marshalAttestReply(pub, encMeta, encData []byte) []byte {
	out := make([]byte, 0, 1+len(pub)+8+len(encMeta)+len(encData))
	out = append(append(out, ProtoV1), pub...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(encMeta)))
	out = append(out, encMeta...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(encData)))
	return append(out, encData...)
}

// parseAttestReply splits an attestation reply into the channel public
// key and any bundled channel responses. The client serves the bundle by
// position, so a data part without the meta part before it is refused:
// it would be served as the reply to REQUEST_META.
func parseAttestReply(payload []byte) (pub []byte, bundled [][]byte, err error) {
	if len(payload) < 1+32+8 || payload[0] != ProtoV1 {
		return nil, nil, fmt.Errorf("elide: malformed attest reply (%d bytes)", len(payload))
	}
	pub, rest := payload[1:33], payload[33:]
	for part := 0; part < 2; part++ {
		if len(rest) < 4 {
			return nil, nil, fmt.Errorf("elide: truncated attest bundle")
		}
		n := binary.LittleEndian.Uint32(rest)
		if rest = rest[4:]; uint32(len(rest)) < n {
			return nil, nil, fmt.Errorf("elide: truncated attest bundle part (%d of %d bytes)", len(rest), n)
		}
		if n > 0 {
			if len(bundled) < part {
				return nil, nil, fmt.Errorf("elide: attest bundle has data without meta")
			}
			bundled = append(bundled, rest[:n])
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return nil, nil, fmt.Errorf("elide: %d trailing bytes after attest bundle", len(rest))
	}
	return pub, bundled, nil
}
