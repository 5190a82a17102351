package elide

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"testing"
	"time"

	"sgxelide/internal/sgx"
)

// handshakeSamples returns one handshake of each kind, the client ones
// carrying a quote with the field sizes a platform-signed quote has.
func handshakeSamples() []*attestMsg {
	q := &sgx.Quote{ProdID: 7, Signature: bytes.Repeat([]byte{0x30}, 71),
		QEPubX: bytes.Repeat([]byte{0x11}, 32), QEPubY: bytes.Repeat([]byte{0x22}, 32),
		QECert: bytes.Repeat([]byte{0x31}, 71)}
	q.MrEnclave[0], q.MrSigner[31], q.Data[0] = 0xE1, 0x51, 0xDA
	pub := bytes.Repeat([]byte{9}, 32)
	return []*attestMsg{
		{Quote: q, ClientPub: pub, TraceID: 0x1234567890, SpanID: 0xABCDEF, Kind: kindAttest, Bundle: bundleMeta | bundleData},
		{Quote: q, ClientPub: pub, TraceID: 0x1234567890, SpanID: 0xABCDEF, Kind: kindResume},
		{Kind: kindPeerLink},
		{Kind: kindMembers},
	}
}

func encodeHandshake(t testing.TB, m *attestMsg) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeHandshake(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// heapBytes reports the fewest bytes fn allocated over three runs; the
// minimum discards whatever other goroutines allocate meanwhile.
func heapBytes(fn func()) uint64 {
	best := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// decodeOverhead is what a read may allocate besides the payload: the
// decoded structs, the reader, an error value, size-class rounding.
const decodeOverhead = 1024

// TestHandshakeDecoderIsStrict: the decoder accepts exactly what the
// encoder produces, and the peer kinds carry no placeholder quote.
func TestHandshakeDecoderIsStrict(t *testing.T) {
	samples := handshakeSamples()
	attest, peer := encodeHandshake(t, samples[0])[4:], encodeHandshake(t, samples[2])[4:]
	if len(peer) != handshakeHeader {
		t.Errorf("peer-link handshake is %d bytes, want the %d-byte header", len(peer), handshakeHeader)
	}
	with := func(b []byte, i int, v byte) []byte {
		b = append([]byte(nil), b...)
		b[i] = v
		return b
	}
	bad := map[string][]byte{
		"version 0":        with(attest, 0, 0),
		"version 2":        with(attest, 0, 2),
		"kind 0":           with(peer, 1, 0),
		"kind 5":           with(peer, 1, kindMembers+1),
		"reserved bundle":  with(attest, 2, 1<<2),
		"bundle on resume": with(attest, 1, kindResume),
		"bundle on peer":   with(peer, 2, bundleMeta),
		"trailing byte":    append(append([]byte(nil), attest...), 0),
		"quote on peer":    append(append([]byte(nil), peer...), attest[handshakeHeader:]...),
	}
	for cut := 0; cut < len(attest); cut++ {
		bad[fmt.Sprintf("cut to %d bytes", cut)] = attest[:cut]
	}
	for name, b := range bad {
		if m, err := parseHandshake(b); !errors.Is(err, errBadHandshake) {
			t.Errorf("%s: decoded %+v, err %v; want errBadHandshake", name, m, err)
		}
	}
	over := binary.LittleEndian.AppendUint32(nil, maxHandshake+1)
	if _, err := readHandshake(bytes.NewReader(over)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("header above maxHandshake: err = %v, want ErrFrameTooLarge", err)
	}
	for _, m := range []*attestMsg{{}, {Kind: kindAttest}, {Kind: kindPeerLink, Bundle: bundleData},
		{Kind: kindResume, Quote: &sgx.Quote{}, ClientPub: make([]byte, 256)}} {
		if err := writeHandshake(io.Discard, m); !errors.Is(err, errBadHandshake) {
			t.Errorf("encoding %+v: err = %v, want errBadHandshake", m, err)
		}
	}
}

// TestReadFrameAllocatesAsBytesArrive: a length header alone commits at
// most one frameStep of memory, and a frame of several steps reads back
// whole.
func TestReadFrameAllocatesAsBytesArrive(t *testing.T) {
	var err error
	hdr := binary.LittleEndian.AppendUint32(nil, MaxFrame)
	got := heapBytes(func() { _, err = readFrameInto(bytes.NewReader(hdr), nil) })
	if !errors.Is(err, io.ErrUnexpectedEOF) || got > frameStep+decodeOverhead {
		t.Fatalf("MaxFrame header then EOF: err %v after %d bytes allocated; want io.ErrUnexpectedEOF within one %d-byte step",
			err, got, frameStep)
	}
	payload := bytes.Repeat([]byte{1, 2, 3}, frameStep+41)
	var buf bytes.Buffer
	if err := writeFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	if back, err := readFrameInto(&buf, nil); err != nil || !bytes.Equal(back, payload) {
		t.Fatalf("multi-step frame read back %d bytes (err %v), want %d identical", len(back), err, len(payload))
	}
}

// TestServerRefusesMalformedHandshakes: an oversized handshake header is
// dropped without an allocation of its size, an unknown version or kind
// gets a refusal frame, and the server keeps serving real clients.
func TestServerRefusesMalformedHandshakes(t *testing.T) {
	ca, h := env(t)
	p := buildApp(t, h, SanitizeOptions{})
	srv, err := p.NewServerFor(ca, WithDrainTimeout(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	l := listen(t)
	serveOn(t, srv, l)
	dial := func() net.Conn {
		conn, err := net.DialTimeout("tcp", l.Addr().String(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		return conn
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	conn := dial()
	if _, err := conn.Write(binary.LittleEndian.AppendUint32(nil, MaxFrame)); err != nil {
		t.Fatal(err)
	}
	if n, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatalf("server answered an oversized handshake header with %d bytes", n)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > frameStep {
		t.Fatalf("oversized handshake header cost %d bytes of allocation", grew)
	}

	header := encodeHandshake(t, &attestMsg{Kind: kindMembers})[4:]
	for _, frame := range [][]byte{
		append([]byte{ProtoV1 + 1}, header[1:]...),              // unknown version
		append([]byte{ProtoV1, kindMembers + 1}, header[2:]...), // unknown kind
	} {
		conn := dial()
		if err := writeFrame(conn, frame); err != nil {
			t.Fatal(err)
		}
		if _, err := readResponse(conn); !errors.Is(err, ErrRefused) {
			t.Errorf("handshake %x: server answered %v, want a refusal", frame[:2], err)
		}
	}

	client := NewTCPClient(l.Addr().String(), fastRetry(2)...)
	defer client.Close()
	encl, rt, err := p.Launch(h, client, p.LocalFiles())
	if err != nil {
		t.Fatal(err)
	}
	defer encl.Destroy()
	if code, err := encl.ECall("elide_restore", 0); err != nil || code != RestoreOKServer {
		t.Fatalf("restore after malformed handshakes = %d, %v (runtime: %v)", code, err, rt.Errs())
	}
}

// FuzzReadHandshake feeds arbitrary streams to the handshake reader, the
// only decoder an unauthenticated peer reaches. Every accepted handshake
// must re-encode to exactly the bytes it was read from, and no input may
// make the reader allocate beyond maxHandshake.
func FuzzReadHandshake(f *testing.F) {
	for _, m := range handshakeSamples() {
		f.Add(encodeHandshake(f, m))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var m *attestMsg
		var err error
		if got := heapBytes(func() { m, err = readHandshake(bytes.NewReader(data)) }); got > maxHandshake+decodeOverhead {
			t.Fatalf("decoding %d input bytes allocated %d bytes", len(data), got)
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := writeHandshake(&buf, m); err != nil {
			t.Fatalf("accepted handshake %+v does not re-encode: %v", m, err)
		}
		if frame := data[:4+binary.LittleEndian.Uint32(data)]; !bytes.Equal(buf.Bytes(), frame) {
			t.Fatalf("re-encoded %x, read %x", buf.Bytes(), frame)
		}
	})
}

// BenchmarkHandshake is one client attest handshake: encode, frame and
// decode — what both sides pay per connection before any authentication.
func BenchmarkHandshake(b *testing.B) {
	msg := handshakeSamples()[0]
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := writeHandshake(&buf, msg); err != nil {
			b.Fatal(err)
		}
		if _, err := readHandshake(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(encodeHandshake(b, msg))), "wire-bytes")
}
