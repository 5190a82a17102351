package elide

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"sgxelide/internal/elf"
	"sgxelide/internal/sdk"
	"sgxelide/internal/sgx"
)

// secretWindow is the width of the secret-text fingerprint: a run this
// long of the original text outside the text section means a copy of the
// secret survived somewhere it can be dumped.
const secretWindow = 32

// secretScan finds what must not outlive a restore outside the text
// section: any 32-byte window of the secret text, and whole keys.
type secretScan struct {
	windows        map[[secretWindow]byte]bool
	keys           map[string][]byte
	textLo, textHi uint64 // [__text_start, __text_end) of the image
	plainText      []byte
}

// newSecretScan fingerprints p's secret text: every 32-byte window of the
// original text section except all-zero windows and windows that also
// occur in the sanitized image, where whitelisted code shares byte runs
// with secret code.
func newSecretScan(t *testing.T, p *Protected) *secretScan {
	t.Helper()
	pf, err := elf.Read(p.PlainELF)
	if err != nil {
		t.Fatal(err)
	}
	text := pf.Section(".text")
	s := &secretScan{
		windows:   map[[secretWindow]byte]bool{},
		keys:      map[string][]byte{},
		textLo:    text.Addr,
		textHi:    text.Addr + text.Size,
		plainText: pf.SectionData(text),
	}
	public := map[[secretWindow]byte]bool{}
	for i := 0; i+secretWindow <= len(p.SanitizedELF); i++ {
		public[[secretWindow]byte(p.SanitizedELF[i:])] = true
	}
	var zero [secretWindow]byte
	for i := 0; i+secretWindow <= len(s.plainText); i++ {
		w := [secretWindow]byte(s.plainText[i:])
		if w != zero && !public[w] {
			s.windows[w] = true
		}
	}
	if len(s.windows) == 0 {
		t.Fatal("the test app has no secret text to look for")
	}
	return s
}

// find reports every secret in mem, which starts at address base.
func (s *secretScan) find(mem []byte, base uint64) []string {
	var hits []string
	for i := 0; i+secretWindow <= len(mem); i++ {
		if s.windows[[secretWindow]byte(mem[i:])] {
			hits = append(hits, fmt.Sprintf("secret text at %#x", base+uint64(i)))
		}
	}
	for name, k := range s.keys {
		for i := 0; ; i++ {
			j := bytes.Index(mem[i:], k)
			if j < 0 {
				break
			}
			i += j
			hits = append(hits, fmt.Sprintf("%s at %#x", name, base+uint64(i)))
		}
	}
	return hits
}

// enclave reads every readable ELRANGE byte outside [__text_start,
// __text_end) through the enclave's own address space and reports each
// secret left there. Contiguous readable bytes are scanned as one run, so
// a copy straddling a page boundary is found too.
func (s *secretScan) enclave(encl *sdk.Enclave) (hits []string, pages int) {
	e := encl.Encl
	var run []byte
	var runBase uint64
	add := func(addr uint64, b []byte) {
		if addr != runBase+uint64(len(run)) {
			hits = append(hits, s.find(run, runBase)...)
			run, runBase = nil, addr
		}
		run = append(run, b...)
	}
	for va := e.Base; va < e.Base+e.Size; va += sgx.PageSize {
		pg, f := encl.Space.EnclaveReadBytes(va, sgx.PageSize)
		if f != nil {
			continue // unmapped, or not readable by enclave code either
		}
		pages++
		if va < s.textLo {
			add(va, pg[:min(sgx.PageSize, s.textLo-va)])
		}
		if end := va + sgx.PageSize; end > s.textHi {
			from := max(va, s.textHi)
			add(from, pg[from-va:])
		}
	}
	hits = append(hits, s.find(run, runBase)...)
	return hits, pages
}

// untrusted scans the host's untrusted memory, up to its allocation cursor.
func (s *secretScan) untrusted(h *sdk.Host) []string {
	end := h.Alloc(0)
	mem, ok := h.Mem.ReadBytes(h.Mem.Base, int(end-h.Mem.Base))
	if !ok {
		panic("untrusted memory below the allocation cursor is unreadable")
	}
	return s.find(mem, h.Mem.Base)
}

// checkResidue fails t when the secret text or a key is left outside the
// enclave's text section, in enclave or untrusted memory, after the
// restore that returned code.
func checkResidue(t *testing.T, what string, s *secretScan, encl *sdk.Enclave, code uint64) {
	t.Helper()
	seal, err := encl.Host.Platform.EGetKeySeal(encl.Encl, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.keys["seal key"] = seal
	hits, pages := s.enclave(encl)
	if pages == 0 {
		t.Fatalf("%s: no readable enclave page", what)
	}
	if len(hits) > 0 {
		t.Errorf("%s (code %d): %d secret residues in %d readable enclave pages, first: %s",
			what, code, len(hits), pages, strings.Join(hits[:min(len(hits), 3)], "; "))
	}
	if hits := s.untrusted(encl.Host); len(hits) > 0 {
		t.Errorf("%s (code %d): %d secret residues in untrusted memory, first: %s",
			what, code, len(hits), strings.Join(hits[:min(len(hits), 3)], "; "))
	}
}

// cutClient passes attestation and the first pass channel requests to
// its session, then fails every request, as a server dying mid-protocol.
type cutClient struct {
	*DirectClient
	pass int
}

func (c *cutClient) Request(ctx context.Context, enc []byte) ([]byte, error) {
	if c.pass == 0 {
		return nil, errDead
	}
	c.pass--
	return c.DirectClient.Request(ctx, enc)
}

// TestNoSecretResidueAfterRestore: after every restore outcome, successful
// or not, the secret text lives only in the text section, and neither the
// channel key nor the seal key is left in enclave or untrusted memory.
// This is the dynamic counterpart of the wipe calls in the trusted
// restorer.
func TestNoSecretResidueAfterRestore(t *testing.T) {
	ca, h := env(t)
	builds := map[string]*Protected{}
	build := func(san SanitizeOptions) *Protected {
		key := fmt.Sprintf("%+v", san)
		if builds[key] == nil {
			builds[key] = buildApp(t, h, san)
		}
		return builds[key]
	}
	var scan *secretScan
	for _, tc := range []struct {
		name  string
		san   SanitizeOptions
		flags uint64
		pass  int    // channel requests served before the server dies (-1: all)
		torn  bool   // serve data with one flipped byte
		want  uint64 // restore code
	}{
		{name: "remote", pass: -1, want: RestoreOKServer},
		{name: "remote+seal", flags: FlagSealAfter, pass: -1, want: RestoreOKServer},
		{name: "local", san: SanitizeOptions{EncryptLocal: true}, pass: -1, want: RestoreOKServer},
		{name: "hybrid", san: SanitizeOptions{Hybrid: true}, pass: -1, want: RestoreOKServer},
		{name: "hybrid-degraded", san: SanitizeOptions{Hybrid: true}, pass: 1, want: RestoreOKServer},
		{name: "ranges", san: SanitizeOptions{Ranges: true}, pass: -1, want: RestoreOKServer},
		{name: "meta-lost", pass: 0, want: 105},
		{name: "data-lost", pass: 1, want: 108},
		{name: "torn", san: SanitizeOptions{Ranges: true}, pass: -1, torn: true, want: RestoreErrTorn},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := build(tc.san)
			if scan == nil {
				scan = newSecretScan(t, p)
			}
			served := *p
			if tc.torn {
				// Byte 24 is the first content byte of the first sanitized
				// range (see TestTornRestoreDetected).
				served.SecretData = append([]byte(nil), p.SecretData...)
				served.SecretData[24] ^= 0xff
			}
			srv, err := served.NewServerFor(ca)
			if err != nil {
				t.Fatal(err)
			}
			ss := srv.NewSession()
			client := SecretChannel(&DirectClient{Session: ss})
			if tc.pass >= 0 {
				client = &cutClient{DirectClient: &DirectClient{Session: ss}, pass: tc.pass}
			}
			encl, rt, err := p.Launch(h, client, p.LocalFiles())
			if err != nil {
				t.Fatal(err)
			}
			defer encl.Destroy()
			code, err := encl.ECall("elide_restore", tc.flags)
			if err != nil || code != tc.want {
				t.Fatalf("restore = %d, %v (runtime: %v), want %d", code, err, rt.LastErr(), tc.want)
			}
			if ss.channelKey == nil {
				t.Fatal("no channel key was established")
			}
			scan.keys["channel key"] = ss.channelKey
			checkResidue(t, tc.name, scan, encl, code)

			if tc.flags&FlagSealAfter == 0 {
				return
			}
			// Relaunch on the same platform and restore from the sealed
			// blob alone: the seal key and the unsealed text get wiped too.
			encl2, rt2, err := p.Launch(h, deadClient{}, rt.Files)
			if err != nil {
				t.Fatal(err)
			}
			defer encl2.Destroy()
			code, err = encl2.ECall("elide_restore", FlagTrySealed)
			if err != nil || code != RestoreOKSealed {
				t.Fatalf("sealed restore = %d, %v (runtime: %v)", code, err, rt2.LastErr())
			}
			checkResidue(t, "sealed", scan, encl2, code)
		})
	}
}

// buildAppWithTrusted builds the test app the way BuildProtected does, but
// links trustedC in place of the shipped trusted runtime.
func buildAppWithTrusted(t *testing.T, h *sdk.Host, trustedC string) *Protected {
	t.Helper()
	wl, key := fixtures(t)
	iface, err := MergeEDL(appEDL)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sdk.BuildEnclave(sdk.BuildConfig{}, iface,
		sdk.C("elide_trusted.c", trustedC), sdk.Asm("elide_helpers.s", TrustedAsm), sdk.C("app.c", appC))
	if err != nil {
		t.Fatal(err)
	}
	san, err := Sanitize(res.ELF, wl, SanitizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mr, err := sdk.MeasureELF(h, san.SanitizedELF)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := sgx.SignEnclave(key, mr, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return &Protected{
		PlainELF: res.ELF, SanitizedELF: san.SanitizedELF, SigStruct: ss, Measurement: mr,
		Meta: san.Meta, SecretData: san.SecretData, EDL: iface,
	}
}

// TestResidueCheckCatchesMissingWipe seeds the violation the residue check
// exists for: the restorer's final wipe of its data buffer is removed, so
// the whole original text stays on the enclave heap after a successful
// restore, and the check must see it.
func TestResidueCheckCatchesMissingWipe(t *testing.T) {
	const wipe = "elide_wipe(data, dlen + 28);"
	if strings.Count(TrustedC, wipe) != 1 {
		t.Fatalf("trusted runtime has no single %q to remove", wipe)
	}
	ca, h := env(t)
	p := buildAppWithTrusted(t, h, strings.Replace(TrustedC, wipe, "", 1))
	srv, err := p.NewServerFor(ca)
	if err != nil {
		t.Fatal(err)
	}
	encl, rt, err := p.Launch(h, &DirectClient{Session: srv.NewSession()}, p.LocalFiles())
	if err != nil {
		t.Fatal(err)
	}
	defer encl.Destroy()
	code, err := encl.ECall("elide_restore", 0)
	if err != nil || code != RestoreOKServer {
		t.Fatalf("restore = %d, %v (runtime: %v)", code, err, rt.LastErr())
	}
	hits, _ := newSecretScan(t, p).enclave(encl)
	if len(hits) == 0 {
		t.Fatal("the residue check missed a restore that never wipes its data buffer")
	}
	t.Logf("seeded missing wipe: %d secret residues", len(hits))
}

// TestSealedHeaderCannotRedirectApply: the sealed blob's header (dlen, off,
// format, textlen, digest) sits outside its MAC, so a malicious host can
// rewrite it. Pointing off at untrusted memory once made elide_apply copy
// the decrypted text there, and the digest in the same header then
// verified the copy. Every such header must now be refused as a corrupt
// blob (typed ErrSealedCorrupt, a server restore, a fresh seal) with the
// secret text in neither untrusted nor enclave memory outside the text.
func TestSealedHeaderCannotRedirectApply(t *testing.T) {
	ca, h := env(t)
	p := buildApp(t, h, SanitizeOptions{})
	scan := newSecretScan(t, p)
	srv, err := p.NewServerFor(ca)
	if err != nil {
		t.Fatal(err)
	}
	encl, rt, err := p.Launch(h, &DirectClient{Session: srv.NewSession()}, p.LocalFiles())
	if err != nil {
		t.Fatal(err)
	}
	code, err := encl.ECall("elide_restore", FlagSealAfter)
	if err != nil || code != RestoreOKServer {
		t.Fatalf("seal: %d, %v (runtime: %v)", code, err, rt.LastErr())
	}
	encl.Destroy()
	genuine := rt.Files.Sealed
	sf, err := elf.Read(p.SanitizedELF)
	if err != nil {
		t.Fatal(err)
	}
	self, _ := sf.FindSymbol("elide_restore")
	x := h.Alloc(len(scan.plainText)) // an untrusted address the host reads back

	for _, tc := range []struct {
		name string
		at   int    // header field offset
		val  uint64 // its tampered value
	}{
		{"off to untrusted memory", 8, self.Value - x},
		{"off past the text start", 8, p.Meta.RestoreOffset - 8},
		{"whole text read as records", 16, FormatRanges},
	} {
		t.Run(tc.name, func(t *testing.T) {
			blob := append([]byte(nil), genuine...)
			binary.LittleEndian.PutUint64(blob[tc.at:], tc.val)
			files := &FileStore{Sealed: blob}
			encl, rt, err := p.Launch(h, &DirectClient{Session: srv.NewSession()}, files)
			if err != nil {
				t.Fatal(err)
			}
			defer encl.Destroy()
			code, err := encl.ECall("elide_restore", FlagTrySealed)
			checkResidue(t, tc.name, scan, encl, code)
			if err != nil || code != RestoreOKServer {
				t.Fatalf("restore = %d, %v (runtime: %v), want a server restore after a corrupt blob",
					code, err, rt.LastErr())
			}
			if errs := rt.Errs(); len(errs) == 0 || !errors.Is(errs[0], ErrSealedCorrupt) {
				t.Fatalf("runtime errors = %v, want ErrSealedCorrupt", errs)
			}
			if bytes.Equal(files.Sealed, blob) {
				t.Error("the corrupt blob was not re-sealed")
			}
			if got, err := encl.ECall("ecall_compute", 7); err != nil || got != secretTransformGo(7) {
				t.Errorf("compute after the fallback restore = %d, %v", got, err)
			}
		})
	}
}
