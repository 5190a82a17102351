package sdk

import (
	"bytes"
	"crypto/rand"
	"crypto/rsa"
	"strings"
	"testing"

	"sgxelide/internal/sgx"
)

const testEDL = `
enclave {
    trusted {
        public uint64_t ecall_add(uint64_t a, uint64_t b);
        public void ecall_xor_buf([in, out, size=len] uint8_t* buf, uint64_t len, uint64_t key);
        public uint64_t ecall_sum([in, size=len] uint8_t* data, uint64_t len);
        public uint64_t ecall_fill([out, size=cap] uint8_t* dst, uint64_t cap);
        public uint64_t ecall_echo_via_ocall(uint64_t x);
        public uint64_t ecall_gcm_roundtrip(void);
        public uint64_t ecall_strlen_of([in, string] char* s);
        public uint64_t ecall_log_something(void);
        public uint64_t ecall_store_secret(uint64_t v);
        public uint64_t ecall_get_secret(void);
    };
    untrusted {
        uint64_t ocall_double(uint64_t x);
        void ocall_log([in, size=len] uint8_t* msg, uint64_t len);
    };
};
`

const testCSource = `
uint64_t ocall_double(uint64_t x);
void ocall_log(uint8_t* msg, uint64_t len);
uint64_t strlen(char* s);
int sgx_read_rand(uint8_t* buf, uint64_t len);
int sgx_rijndael128GCM_encrypt(uint8_t* key, uint8_t* src, uint64_t len, uint8_t* dst, uint8_t* iv, uint8_t* mac);
int sgx_rijndael128GCM_decrypt(uint8_t* key, uint8_t* src, uint64_t len, uint8_t* dst, uint8_t* iv, uint8_t* mac);

uint64_t g_secret;

uint64_t ecall_add(uint64_t a, uint64_t b) { return a + b; }

void ecall_xor_buf(uint8_t* buf, uint64_t len, uint64_t key) {
    for (uint64_t i = 0; i < len; i++)
        buf[i] ^= (uint8_t)key;
}

uint64_t ecall_sum(uint8_t* data, uint64_t len) {
    uint64_t s = 0;
    for (uint64_t i = 0; i < len; i++)
        s += data[i];
    return s;
}

uint64_t ecall_fill(uint8_t* dst, uint64_t cap) {
    for (uint64_t i = 0; i < cap; i++)
        dst[i] = (uint8_t)(i * 3);
    return cap;
}

uint64_t ecall_echo_via_ocall(uint64_t x) {
    return ocall_double(x) + 1;
}

uint64_t ecall_gcm_roundtrip(void) {
    uint8_t key[16];
    uint8_t iv[12];
    uint8_t mac[16];
    uint8_t plain[32];
    uint8_t ct[32];
    uint8_t back[32];
    sgx_read_rand(key, 16);
    sgx_read_rand(iv, 12);
    for (int i = 0; i < 32; i++) plain[i] = (uint8_t)(i * 7);
    if (sgx_rijndael128GCM_encrypt(key, plain, 32, ct, iv, mac)) return 1;
    if (sgx_rijndael128GCM_decrypt(key, ct, 32, back, iv, mac)) return 2;
    for (int i = 0; i < 32; i++)
        if (back[i] != plain[i]) return 3;
    /* Tampered ciphertext must fail the MAC check. */
    ct[0] ^= 1;
    if (sgx_rijndael128GCM_decrypt(key, ct, 32, back, iv, mac) == 0) return 4;
    return 0;
}

uint64_t ecall_strlen_of(char* s) { return strlen(s); }

uint64_t ecall_log_something(void) {
    uint8_t msg[5];
    msg[0] = 'h'; msg[1] = 'e'; msg[2] = 'l'; msg[3] = 'l'; msg[4] = 'o';
    ocall_log(msg, 5);
    return 0;
}

uint64_t ecall_store_secret(uint64_t v) { g_secret = v; return 0; }
uint64_t ecall_get_secret(void) { return g_secret; }
`

// buildTestEnclave builds, signs, and loads the test enclave.
func buildTestEnclave(t *testing.T) (*Host, *Enclave) {
	t.Helper()
	host, res, ss := signTestEnclave(t)
	encl, err := host.CreateEnclave(res.ELF, ss, res.EDL)
	if err != nil {
		t.Fatalf("create enclave: %v", err)
	}
	return host, encl
}

// signTestEnclave builds the test enclave and signs it, measuring it on a
// fresh machine, which it returns.
func signTestEnclave(t *testing.T) (*Host, *BuildResult, *sgx.SigStruct) {
	t.Helper()
	ca, err := sgx.NewCA()
	if err != nil {
		t.Fatal(err)
	}
	platform, err := sgx.NewPlatform(sgx.Config{}, ca)
	if err != nil {
		t.Fatal(err)
	}
	host := NewHost(platform)

	res, err := BuildEnclaveFromEDL(BuildConfig{}, testEDL, C("test_enclave.c", testCSource))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	key, err := rsa.GenerateKey(rand.Reader, 1024)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := MeasureELF(host, res.ELF)
	if err != nil {
		t.Fatalf("measure: %v", err)
	}
	ss, err := sgx.SignEnclave(key, mr, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return host, res, ss
}

func TestECallScalar(t *testing.T) {
	_, e := buildTestEnclave(t)
	got, err := e.ECall("ecall_add", 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Errorf("ecall_add = %d", got)
	}
}

func TestECallInOutBuffer(t *testing.T) {
	h, e := buildTestEnclave(t)
	data := []byte("attack at dawn!!")
	buf := h.AllocBytes(data)
	if _, err := e.ECall("ecall_xor_buf", buf, uint64(len(data)), 0x5A); err != nil {
		t.Fatal(err)
	}
	got := h.ReadBytes(buf, len(data))
	for i := range data {
		if got[i] != data[i]^0x5A {
			t.Fatalf("byte %d: %#x want %#x", i, got[i], data[i]^0x5A)
		}
	}
	// XOR again restores.
	if _, err := e.ECall("ecall_xor_buf", buf, uint64(len(data)), 0x5A); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(h.ReadBytes(buf, len(data)), data) {
		t.Error("double xor did not restore")
	}
}

func TestECallInBuffer(t *testing.T) {
	h, e := buildTestEnclave(t)
	data := make([]byte, 300)
	var want uint64
	for i := range data {
		data[i] = byte(i)
		want += uint64(byte(i))
	}
	buf := h.AllocBytes(data)
	got, err := e.ECall("ecall_sum", buf, uint64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}
}

func TestECallOutBuffer(t *testing.T) {
	h, e := buildTestEnclave(t)
	buf := h.Alloc(64)
	got, err := e.ECall("ecall_fill", buf, 64)
	if err != nil {
		t.Fatal(err)
	}
	if got != 64 {
		t.Errorf("ret = %d", got)
	}
	out := h.ReadBytes(buf, 64)
	for i := range out {
		if out[i] != byte(i*3) {
			t.Fatalf("out[%d] = %d", i, out[i])
		}
	}
}

func TestOCallRoundTrip(t *testing.T) {
	h, e := buildTestEnclave(t)
	h.RegisterOcall("ocall_double", func(c *OcallContext) (uint64, error) {
		return c.Arg(0) * 2, nil
	})
	got, err := e.ECall("ecall_echo_via_ocall", 21)
	if err != nil {
		t.Fatal(err)
	}
	if got != 43 {
		t.Errorf("got %d, want 43", got)
	}
}

func TestOCallBuffer(t *testing.T) {
	h, e := buildTestEnclave(t)
	var logged []byte
	h.RegisterOcall("ocall_log", func(c *OcallContext) (uint64, error) {
		logged = c.ArgBytes(0, int(c.Arg(1)))
		return 0, nil
	})
	if _, err := e.ECall("ecall_log_something"); err != nil {
		t.Fatal(err)
	}
	if string(logged) != "hello" {
		t.Errorf("logged %q", logged)
	}
}

func TestUnregisteredOCallErrors(t *testing.T) {
	_, e := buildTestEnclave(t)
	if _, err := e.ECall("ecall_echo_via_ocall", 1); err == nil || !strings.Contains(err.Error(), "no handler") {
		t.Errorf("err = %v", err)
	}
}

func TestGCMInsideEnclave(t *testing.T) {
	_, e := buildTestEnclave(t)
	got, err := e.ECall("ecall_gcm_roundtrip")
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("gcm roundtrip failed with code %d", got)
	}
}

func TestStringParam(t *testing.T) {
	h, e := buildTestEnclave(t)
	s := h.AllocBytes([]byte("hello, enclave\x00"))
	got, err := e.ECall("ecall_strlen_of", s)
	if err != nil {
		t.Fatal(err)
	}
	if got != 14 {
		t.Errorf("strlen = %d", got)
	}
}

func TestEnclaveStatePersistsAcrossECalls(t *testing.T) {
	_, e := buildTestEnclave(t)
	if _, err := e.ECall("ecall_store_secret", 0xC0FFEE); err != nil {
		t.Fatal(err)
	}
	got, err := e.ECall("ecall_get_secret")
	if err != nil {
		t.Fatal(err)
	}
	if got != 0xC0FFEE {
		t.Errorf("secret = %#x", got)
	}
}

func TestHostCannotReadEnclaveSecret(t *testing.T) {
	h, e := buildTestEnclave(t)
	if _, err := e.ECall("ecall_store_secret", 0xDEADBEEF); err != nil {
		t.Fatal(err)
	}
	// The host scans the enclave range through the platform: abort-page
	// semantics must hide everything.
	got := h.Platform.HostRead(e.Encl, e.Encl.Base, 4096)
	for _, b := range got {
		if b != 0xFF {
			t.Fatal("host read enclave memory")
		}
	}
}

func TestUnknownECallRejected(t *testing.T) {
	_, e := buildTestEnclave(t)
	if _, err := e.ECall("ecall_nope"); err == nil {
		t.Error("unknown ecall accepted")
	}
	if _, err := e.ECall("ecall_add", 1); err == nil {
		t.Error("wrong arity accepted")
	}
}

func TestBadECallIndexAborts(t *testing.T) {
	_, e := buildTestEnclave(t)
	// Drive the entry point directly with an out-of-range index.
	e.VM.PC = e.Encl.Entry
	e.VM.Reg[1] = 999
	e.VM.Reg[2] = 0
	e.VM.Reg[3] = e.Host.arena
	stop := e.VM.Run()
	if stop.Code != ExitAbort {
		t.Errorf("stop = %v, want abort", stop)
	}
}

func TestCreateEnclaveRejectsWrongSignature(t *testing.T) {
	ca, _ := sgx.NewCA()
	platform, _ := sgx.NewPlatform(sgx.Config{}, ca)
	host := NewHost(platform)
	res, err := BuildEnclaveFromEDL(BuildConfig{}, testEDL, C("test_enclave.c", testCSource))
	if err != nil {
		t.Fatal(err)
	}
	key, _ := rsa.GenerateKey(rand.Reader, 1024)
	var wrong [32]byte
	ss, _ := sgx.SignEnclave(key, wrong, 1, 1)
	if _, err := host.CreateEnclave(res.ELF, ss, res.EDL); err == nil {
		t.Fatal("enclave with wrong measurement initialized")
	}
}

func TestDisassembleShowsUserCode(t *testing.T) {
	res, err := BuildEnclaveFromEDL(BuildConfig{}, testEDL, C("test_enclave.c", testCSource))
	if err != nil {
		t.Fatal(err)
	}
	dis, err := Disassemble(res.ELF)
	if err != nil {
		t.Fatal(err)
	}
	// The attack the paper defends against: user algorithms are readable in
	// the unprotected enclave image.
	for _, want := range []string{"<ecall_gcm_roundtrip>", "<ecall_add>", "<enclave_entry>", "<memcpy>"} {
		if !strings.Contains(dis, want) {
			t.Errorf("disassembly missing %s", want)
		}
	}
}
