package elide

import (
	"bytes"
	"context"
	"crypto/rand"
	"crypto/rsa"
	"encoding/json"
	"net"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"sgxelide/internal/elf"
	"sgxelide/internal/sdk"
	"sgxelide/internal/sgx"
)

// The test application: a secret algorithm behind one ecall.
const appEDL = `
enclave {
    trusted {
        public uint64_t ecall_compute(uint64_t x);
        public uint64_t ecall_double_secret(uint64_t x);
    };
    untrusted {
    };
};
`

const appC = `
/* The "secret algorithm" the developer wants to keep confidential. */
uint64_t secret_transform(uint64_t x) {
    uint64_t acc = 7;
    for (int i = 0; i < 8; i++) {
        acc = acc * 31337 + ((x >> (i * 8)) & 255);
    }
    return acc;
}

uint64_t secret_helper(uint64_t x) { return x ^ 0xABCDEF; }

uint64_t ecall_compute(uint64_t x) { return secret_transform(x); }
uint64_t ecall_double_secret(uint64_t x) { return secret_helper(secret_transform(x)); }
`

// secretTransformGo is the Go reference for the secret algorithm.
func secretTransformGo(x uint64) uint64 {
	acc := uint64(7)
	for i := 0; i < 8; i++ {
		acc = acc*31337 + ((x >> (i * 8)) & 255)
	}
	return acc
}

// Shared fixtures (whitelist generation and RSA keygen are the slow parts).
var (
	fixOnce sync.Once
	fixWL   Whitelist
	fixKey  *rsa.PrivateKey
	fixErr  error
)

func fixtures(t *testing.T) (Whitelist, *rsa.PrivateKey) {
	t.Helper()
	fixOnce.Do(func() {
		fixWL, fixErr = GenerateWhitelist()
		if fixErr != nil {
			return
		}
		fixKey, fixErr = rsa.GenerateKey(rand.Reader, 1024)
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixWL, fixKey
}

// env creates a CA, platform, and host.
func env(t *testing.T) (*sgx.CA, *sdk.Host) {
	t.Helper()
	ca, err := sgx.NewCA()
	if err != nil {
		t.Fatal(err)
	}
	p, err := sgx.NewPlatform(sgx.Config{}, ca)
	if err != nil {
		t.Fatal(err)
	}
	return ca, sdk.NewHost(p)
}

// buildApp builds the protected test app.
func buildApp(t *testing.T, h *sdk.Host, san SanitizeOptions) *Protected {
	t.Helper()
	wl, key := fixtures(t)
	p, err := BuildProtected(h, BuildProtectedOptions{
		Sanitize:  san,
		AppEDL:    appEDL,
		Sources:   []sdk.Source{sdk.C("app.c", appC)},
		SignKey:   key,
		Whitelist: wl,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestWhitelistContents(t *testing.T) {
	wl, _ := fixtures(t)
	for _, name := range []string{
		"elide_restore", "elide_channel_setup", "elide_apply", "elide_self_addr",
		"enclave_entry", "memcpy", "malloc", "strlen",
		"sgx_rijndael128GCM_decrypt", "sgx_create_report", "sgx_ecdh_keypair",
		"sgx_elide_restore",                       // the elide ecall's own bridge
		"elide_server_request", "elide_read_file", // ocall stubs
	} {
		if !wl.Contains(name) {
			t.Errorf("whitelist missing %q", name)
		}
	}
	if wl.Contains("secret_transform") || wl.Contains("ecall_compute") {
		t.Error("whitelist contains user functions")
	}
	// Deterministic.
	wl2, err := GenerateWhitelist()
	if err != nil {
		t.Fatal(err)
	}
	if len(wl2) != len(wl) {
		t.Errorf("whitelist not deterministic: %d vs %d", len(wl2), len(wl))
	}
	t.Logf("whitelist has %d functions", len(wl))
}

func TestWhitelistJSONRoundTrip(t *testing.T) {
	wl, _ := fixtures(t)
	blob, err := json.Marshal(wl)
	if err != nil {
		t.Fatal(err)
	}
	var back Whitelist
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != len(wl) {
		t.Fatalf("round trip lost entries: %d vs %d", len(back), len(wl))
	}
	for n := range wl {
		if !back.Contains(n) {
			t.Errorf("lost %q", n)
		}
	}
}

func TestSanitizeStatsAndPatching(t *testing.T) {
	_, h := env(t)
	p := buildApp(t, h, SanitizeOptions{})

	st := p.Stats
	if st.SanitizedFunctions == 0 || st.SanitizedBytes == 0 {
		t.Fatalf("nothing sanitized: %+v", st)
	}
	if st.WhitelistedKept == 0 || st.TotalFunctions <= st.SanitizedFunctions {
		t.Fatalf("implausible stats: %+v", st)
	}

	// The user function bodies are zeroed in the sanitized image.
	f, err := elf.Read(p.SanitizedELF)
	if err != nil {
		t.Fatal(err)
	}
	sym, ok := f.FindSymbol("secret_transform")
	if !ok {
		t.Fatal("symbol table lost")
	}
	off, err := f.VaddrToFileOff(sym.Value, sym.Size)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < sym.Size; i++ {
		if f.Raw[off+i] != 0 {
			t.Fatal("secret_transform not zeroed")
		}
	}

	// The plain image contains the secret code bytes; the sanitized one
	// must not.
	pf, _ := elf.Read(p.PlainELF)
	pOff, _ := pf.VaddrToFileOff(sym.Value, sym.Size)
	secretBytes := pf.Raw[pOff : pOff+sym.Size]
	if bytes.Contains(p.SanitizedELF, secretBytes) {
		t.Error("sanitized image still contains the secret function bytes")
	}
	// The secret data blob (remote mode = plaintext whole text) has them.
	if !bytes.Contains(p.SecretData, secretBytes) {
		t.Error("secret data does not contain the original bytes")
	}

	// PF_W was set on the text segment.
	ti, err := f.TextPhdrIndex()
	if err != nil {
		t.Fatal(err)
	}
	if f.Phdrs[ti].Flags&elf.PFW == 0 {
		t.Error("text segment not writable after sanitization")
	}
	// Meta points at elide_restore's offset.
	rs, _ := f.FindSymbol("elide_restore")
	text := f.Section(".text")
	if p.Meta.RestoreOffset != rs.Value-text.Addr {
		t.Errorf("restore offset %d, want %d", p.Meta.RestoreOffset, rs.Value-text.Addr)
	}
	if p.Meta.DataLen != text.Size {
		t.Errorf("data len %d, want text size %d", p.Meta.DataLen, text.Size)
	}
}

func TestSanitizeRequiresElideRuntime(t *testing.T) {
	wl, _ := fixtures(t)
	// An enclave built without the elide sources cannot be sanitized.
	res, err := sdk.BuildEnclaveFromEDL(sdk.BuildConfig{}, appEDL, sdk.C("app.c", appC))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Sanitize(res.ELF, wl, SanitizeOptions{}); err == nil || !strings.Contains(err.Error(), "elide_restore") {
		t.Errorf("err = %v", err)
	}
}

// launchWithServer builds the full deployment and returns a launched
// enclave whose runtime talks to an in-process server session.
func launchWithServer(t *testing.T, san SanitizeOptions) (*sdk.Enclave, *Runtime, *Protected) {
	t.Helper()
	ca, h := env(t)
	p := buildApp(t, h, san)
	srv, err := p.NewServerFor(ca)
	if err != nil {
		t.Fatal(err)
	}
	encl, rt, err := p.Launch(h, &DirectClient{Session: srv.NewSession()}, p.LocalFiles())
	if err != nil {
		t.Fatal(err)
	}
	return encl, rt, p
}

func TestSecretEcallFaultsBeforeRestore(t *testing.T) {
	encl, _, _ := launchWithServer(t, SanitizeOptions{})
	_, err := encl.ECall("ecall_compute", 5)
	if err == nil {
		t.Fatal("sanitized ecall executed without restore")
	}
	if !strings.Contains(err.Error(), "illegal instruction") {
		t.Errorf("unexpected fault: %v", err)
	}
}

func TestRestoreRemoteData(t *testing.T) {
	encl, rt, _ := launchWithServer(t, SanitizeOptions{})
	code, err := encl.ECall("elide_restore", 0)
	if err != nil {
		t.Fatalf("elide_restore: %v (last: %v)", err, rt.LastErr())
	}
	if code != RestoreOKServer {
		t.Fatalf("elide_restore = %d", code)
	}
	for _, x := range []uint64{0, 5, 0xDEADBEEF, ^uint64(0)} {
		got, err := encl.ECall("ecall_compute", x)
		if err != nil {
			t.Fatal(err)
		}
		if got != secretTransformGo(x) {
			t.Errorf("compute(%#x) = %#x, want %#x", x, got, secretTransformGo(x))
		}
	}
	// Second restore is a no-op success.
	code, err = encl.ECall("elide_restore", 0)
	if err != nil || code != 0 {
		t.Errorf("second restore: %d, %v", code, err)
	}
}

func TestRestoreLocalData(t *testing.T) {
	encl, rt, p := launchWithServer(t, SanitizeOptions{EncryptLocal: true})
	if !p.Meta.Encrypted {
		t.Fatal("meta not marked encrypted")
	}
	// In local mode the ciphertext ships with the app...
	if len(p.LocalFiles().SecretData) == 0 {
		t.Fatal("no local secret data file")
	}
	// ...and it is ciphertext, not code.
	pf, _ := elf.Read(p.PlainELF)
	sym, _ := pf.FindSymbol("secret_transform")
	off, _ := pf.VaddrToFileOff(sym.Value, sym.Size)
	if bytes.Contains(p.SecretData, pf.Raw[off:off+sym.Size]) {
		t.Error("local secret data file contains plaintext code")
	}

	code, err := encl.ECall("elide_restore", 0)
	if err != nil {
		t.Fatalf("elide_restore: %v (last: %v)", err, rt.LastErr())
	}
	if code != RestoreOKServer {
		t.Fatalf("elide_restore = %d", code)
	}
	got, err := encl.ECall("ecall_double_secret", 42)
	if err != nil {
		t.Fatal(err)
	}
	if want := secretTransformGo(42) ^ 0xABCDEF; got != want {
		t.Errorf("double_secret = %#x, want %#x", got, want)
	}
}

func TestRestoreLocalDataTamperDetected(t *testing.T) {
	encl, rt, _ := func() (*sdk.Enclave, *Runtime, *Protected) {
		t.Helper()
		ca, h := env(t)
		p := buildApp(t, h, SanitizeOptions{EncryptLocal: true})
		srv, err := p.NewServerFor(ca)
		if err != nil {
			t.Fatal(err)
		}
		files := p.LocalFiles()
		files.SecretData[0] ^= 1 // tamper with the on-disk ciphertext
		encl, rt, err := p.Launch(h, &DirectClient{Session: srv.NewSession()}, files)
		if err != nil {
			t.Fatal(err)
		}
		return encl, rt, p
	}()
	code, err := encl.ECall("elide_restore", 0)
	if err != nil {
		t.Fatalf("restore errored at the wrong layer: %v (%v)", err, rt.LastErr())
	}
	if code != 107 {
		t.Fatalf("restore = %d, want MAC failure 107", code)
	}
}

func TestServerRefusesWrongEnclave(t *testing.T) {
	ca, h := env(t)
	p := buildApp(t, h, SanitizeOptions{})
	srv, err := p.NewServerFor(ca)
	if err != nil {
		t.Fatal(err)
	}
	// An attacker signs the UNSANITIZED enclave themselves and asks the
	// server for the secrets: the measurement will not match.
	_, key := fixtures(t)
	mr, err := sdk.MeasureELF(h, p.PlainELF)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := sgx.SignEnclave(key, mr, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	rt := &Runtime{Client: &DirectClient{Session: srv.NewSession()}, Files: &FileStore{}}
	rt.Install(h)
	encl, err := h.CreateEnclave(p.PlainELF, ss, p.EDL)
	if err != nil {
		t.Fatal(err)
	}
	code, err := encl.ECall("elide_restore", 0)
	if err != nil {
		t.Fatal(err)
	}
	if code != 103 {
		t.Fatalf("restore = %d, want attestation refusal 103", code)
	}
	if rt.LastErr() == nil || !strings.Contains(rt.LastErr().Error(), "measurement") {
		t.Errorf("server error = %v", rt.LastErr())
	}
}

func TestSealingAndSealedRestore(t *testing.T) {
	ca, h := env(t)
	p := buildApp(t, h, SanitizeOptions{})
	srv, err := p.NewServerFor(ca)
	if err != nil {
		t.Fatal(err)
	}
	files := p.LocalFiles()
	encl, rt, err := p.Launch(h, &DirectClient{Session: srv.NewSession()}, files)
	if err != nil {
		t.Fatal(err)
	}
	code, err := encl.ECall("elide_restore", FlagSealAfter)
	if err != nil || code != RestoreOKServer {
		t.Fatalf("restore: %d, %v (%v)", code, err, rt.LastErr())
	}
	if len(rt.Files.Sealed) == 0 {
		t.Fatal("nothing sealed")
	}
	// The sealed blob must not contain plaintext code.
	pf, _ := elf.Read(p.PlainELF)
	sym, _ := pf.FindSymbol("secret_transform")
	off, _ := pf.VaddrToFileOff(sym.Value, sym.Size)
	if bytes.Contains(rt.Files.Sealed, pf.Raw[off:off+sym.Size]) {
		t.Error("sealed file contains plaintext code")
	}

	// Second launch on the SAME platform: restore from the sealed file,
	// with a dead client (no server contact allowed).
	encl2, _, err := p.Launch(h, deadClient{}, rt.Files)
	if err != nil {
		t.Fatal(err)
	}
	code, err = encl2.ECall("elide_restore", FlagTrySealed)
	if err != nil {
		t.Fatal(err)
	}
	if code != RestoreOKSealed {
		t.Fatalf("sealed restore = %d, want %d", code, RestoreOKSealed)
	}
	got, err := encl2.ECall("ecall_compute", 99)
	if err != nil || got != secretTransformGo(99) {
		t.Fatalf("compute after sealed restore: %v %v", got, err)
	}

	// A different platform cannot unseal (different hardware key): restore
	// falls back to the server, which here is dead, so it fails cleanly.
	ca2, _ := sgx.NewCA()
	platform2, _ := sgx.NewPlatform(sgx.Config{}, ca2)
	h2 := sdk.NewHost(platform2)
	encl3, _, err := p.Launch(h2, deadClient{}, rt.Files)
	if err != nil {
		t.Fatal(err)
	}
	code, err = encl3.ECall("elide_restore", FlagTrySealed)
	if err != nil {
		t.Fatal(err)
	}
	if code != 103 { // sealed unseal failed -> server path -> dead client
		t.Fatalf("cross-platform sealed restore = %d, want fallback failure 103", code)
	}
}

// deadClient refuses everything, proving no server traffic happened.
type deadClient struct{}

func (deadClient) Attest(context.Context, *sgx.Quote, []byte) ([]byte, error) {
	return nil, errDead
}
func (deadClient) Request(context.Context, []byte) ([]byte, error) { return nil, errDead }

func (deadClient) Close() error { return nil }

var errDead = &net.OpError{Op: "dial", Err: &net.AddrError{Err: "server unreachable"}}

func TestRangesFormat(t *testing.T) {
	encl, rt, p := launchWithServer(t, SanitizeOptions{Ranges: true})
	if p.Meta.Format != FormatRanges {
		t.Fatal("meta not in ranges format")
	}
	// Ranges data should be smaller than the whole text section.
	if p.Meta.DataLen >= p.Stats.TotalTextBytes {
		t.Errorf("ranges blob (%d) not smaller than text (%d)", p.Meta.DataLen, p.Stats.TotalTextBytes)
	}
	code, err := encl.ECall("elide_restore", 0)
	if err != nil || code != RestoreOKServer {
		t.Fatalf("restore: %d, %v (%v)", code, err, rt.LastErr())
	}
	got, err := encl.ECall("ecall_compute", 7)
	if err != nil || got != secretTransformGo(7) {
		t.Fatalf("compute: %v, %v", got, err)
	}
}

func TestBlacklistMode(t *testing.T) {
	encl, rt, p := launchWithServer(t, SanitizeOptions{
		Ranges:    true,
		Blacklist: []string{"secret_transform"},
	})
	if p.Stats.SanitizedFunctions != 1 {
		t.Fatalf("sanitized %d functions, want 1", p.Stats.SanitizedFunctions)
	}
	// ecall_double_secret's bridge survives, but it reaches the redacted
	// secret_transform and faults.
	if _, err := encl.ECall("ecall_double_secret", 3); err == nil {
		t.Fatal("redacted function executed")
	}
	code, err := encl.ECall("elide_restore", 0)
	if err != nil || code != RestoreOKServer {
		t.Fatalf("restore: %d, %v (%v)", code, err, rt.LastErr())
	}
	got, err := encl.ECall("ecall_double_secret", 3)
	if err != nil || got != secretTransformGo(3)^0xABCDEF {
		t.Fatalf("after restore: %v, %v", got, err)
	}
}

func TestRestoreNeedsWritableText(t *testing.T) {
	// Undo the sanitizer's PF_W: the restore memcpy must then fault on the
	// EPCM write check — demonstrating why the p_flags patch is load-bearing.
	ca, h := env(t)
	p := buildApp(t, h, SanitizeOptions{})
	f, err := elf.Read(append([]byte(nil), p.SanitizedELF...))
	if err != nil {
		t.Fatal(err)
	}
	ti, _ := f.TextPhdrIndex()
	// Clear PF_W by patching the raw field back to R+X.
	f.Phdrs[ti].Flags &^= elf.PFW
	f.OrPhdrFlags(ti, 0) // rewrite field
	_, key := fixtures(t)
	mr, err := sdk.MeasureELF(h, f.Raw)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := sgx.SignEnclave(key, mr, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := NewSecretStore()
	if _, err := st.Register(mr, p.Meta, p.SecretData, ""); err != nil {
		t.Fatal(err)
	}
	srv, err := NewMultiServer(ca.PublicKey(), st)
	if err != nil {
		t.Fatal(err)
	}
	rt := &Runtime{Client: &DirectClient{Session: srv.NewSession()}, Files: &FileStore{}}
	rt.Install(h)
	encl, err := h.CreateEnclave(f.Raw, ss, p.EDL)
	if err != nil {
		t.Fatal(err)
	}
	_, err = encl.ECall("elide_restore", 0)
	if err == nil || !strings.Contains(err.Error(), "write permission") {
		t.Fatalf("err = %v, want write permission fault", err)
	}
}

func TestRestoreOverTCP(t *testing.T) {
	ca, h := env(t)
	p := buildApp(t, h, SanitizeOptions{})
	srv, err := p.NewServerFor(ca)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.Serve(context.Background(), l)

	client := NewTCPClient(l.Addr().String())
	defer client.Close()
	encl, rt, err := p.Launch(h, client, p.LocalFiles())
	if err != nil {
		t.Fatal(err)
	}
	code, err := encl.ECall("elide_restore", 0)
	if err != nil || code != RestoreOKServer {
		t.Fatalf("restore over TCP: %d, %v (%v)", code, err, rt.LastErr())
	}
	got, err := encl.ECall("ecall_compute", 123)
	if err != nil || got != secretTransformGo(123) {
		t.Fatalf("compute: %v, %v", got, err)
	}
}

func TestMetaRoundTrip(t *testing.T) {
	f := func(dataLen, off uint64, enc, ranges bool, key [16]byte, iv [12]byte, mac [16]byte) bool {
		m := &SecretMeta{
			DataLen: dataLen, RestoreOffset: off, Encrypted: enc,
			Key: key, IV: iv, MAC: mac,
		}
		if ranges {
			m.Format = FormatRanges
		}
		back, err := UnmarshalMeta(m.Marshal())
		if err != nil {
			return false
		}
		return *back == *m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMetaRejectsBadSize(t *testing.T) {
	if _, err := UnmarshalMeta(make([]byte, 10)); err == nil {
		t.Error("short meta accepted")
	}
}

func TestSanitizedDisassemblyHidesSecrets(t *testing.T) {
	_, h := env(t)
	p := buildApp(t, h, SanitizeOptions{})
	plainDis, err := sdk.Disassemble(p.PlainELF)
	if err != nil {
		t.Fatal(err)
	}
	sanDis, err := sdk.Disassemble(p.SanitizedELF)
	if err != nil {
		t.Fatal(err)
	}
	// Both list the symbol, but only the plain image shows instructions in
	// the secret function's body.
	pb := funcBody(plainDis, "secret_transform")
	sb := funcBody(sanDis, "secret_transform")
	if !strings.Contains(pb, "mul") && !strings.Contains(pb, "movi") {
		t.Errorf("plain disassembly has no code?\n%s", pb)
	}
	if !strings.Contains(sb, ".byte 0x00") {
		t.Errorf("sanitized body not zeroed:\n%s", sb)
	}
	if strings.Contains(sb, "mul") {
		t.Errorf("sanitized body leaks instructions:\n%s", sb)
	}
}

// funcBody extracts the disassembly lines of one function.
func funcBody(dis, name string) string {
	lines := strings.Split(dis, "\n")
	var out []string
	in := false
	for _, l := range lines {
		if strings.Contains(l, "<"+name+">:") {
			in = true
			continue
		}
		if in && strings.Contains(l, "<") && strings.Contains(l, ">:") {
			break
		}
		if in {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}
