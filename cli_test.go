// End-to-end test of the command-line pipeline: it builds the cmd/ binaries
// and walks the full artifact workflow — compile, whitelist, sanitize, sign,
// emit server files, serve over TCP, restore, and invoke an ecall — in two
// separate processes, exactly as README.md documents.
package sgxelide_test

import (
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

const cliAppEDL = `
enclave {
    trusted {
        public uint64_t ecall_compute(uint64_t x);
    };
    untrusted {
    };
};
`

const cliAppC = `
uint64_t secret_sauce(uint64_t x) { return x * 1337 + 99; }
uint64_t ecall_compute(uint64_t x) { return secret_sauce(x); }
`

func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "bin")

	runIn := func(workDir, name string, args ...string) string {
		t.Helper()
		cmd := exec.Command(name, args...)
		cmd.Dir = workDir
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, out)
		}
		return string(out)
	}
	runCmd := func(name string, args ...string) string {
		t.Helper()
		return runIn(dir, name, args...)
	}

	repoRoot, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	runIn(repoRoot, "go", "build", "-o", bin+string(os.PathSeparator), "sgxelide/cmd/...")
	tool := func(n string) string { return filepath.Join(bin, n) }

	if err := os.WriteFile(filepath.Join(dir, "app.edl"), []byte(cliAppEDL), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "app.c"), []byte(cliAppC), 0o644); err != nil {
		t.Fatal(err)
	}

	// Developer side.
	runCmd(tool("evmcc"), "-enclave", "-elide", "-edl", "app.edl", "-o", "enclave.so", "app.c")
	runCmd(tool("elide-whitelist"), "-o", "whitelist.json")
	sanOut := runCmd(tool("elide-sanitize"), "-whitelist", "whitelist.json", "-o", "build", "enclave.so")
	if !strings.Contains(sanOut, "functions sanitized") {
		t.Fatalf("sanitize output: %s", sanOut)
	}
	runCmd(tool("elide-sign"), "-key", "dev.pem", "-bits", "2048", "-o", "build/enclave.sigstruct", "build/sanitized.so")

	// The attack view: the secret function is gone from the sanitized image.
	plainDis := runCmd(tool("evm-objdump"), "enclave.so")
	sanDis := runCmd(tool("evm-objdump"), "build/sanitized.so")
	if !strings.Contains(plainDis, "<secret_sauce>") || !strings.Contains(sanDis, "<secret_sauce>") {
		t.Fatal("objdump lost symbols")
	}
	if !strings.Contains(sanDis, ".byte 0x00") {
		t.Fatal("sanitized image not zeroed in objdump view")
	}
	headers := runCmd(tool("evm-objdump"), "-headers", "build/sanitized.so")
	if !strings.Contains(headers, "RWE") {
		t.Fatalf("sanitized text segment not RWE:\n%s", headers)
	}

	// Deployment: emit server files, start the server.
	runCmd(tool("elide-run"), "-dir", "build", "-edl", "app.edl", "-ca", "ca.pem", "-emit-server", "serverfiles")
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	srv := exec.Command(tool("elide-server"), "-dir", "serverfiles", "-listen", addr)
	srv.Dir = dir
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Process.Kill()
	// Wait for it to listen.
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			conn.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server did not start")
		}
		time.Sleep(50 * time.Millisecond)
	}

	// User machine: restore over TCP, then call the restored secret.
	out := runCmd(tool("elide-run"), "-dir", "build", "-edl", "app.edl", "-ca", "ca.pem",
		"-connect", addr, "-ecall", "ecall_compute", "-arg", "42")
	if !strings.Contains(out, "restored via the authentication server") {
		t.Fatalf("restore missing:\n%s", out)
	}
	if !strings.Contains(out, "= 56253") { // 42*1337+99
		t.Fatalf("wrong ecall result:\n%s", out)
	}

	// The one client path: -connect takes a fleet, and the restore walks
	// past an endpoint that refuses connections to the live one.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()
	out = runCmd(tool("elide-run"), "-dir", "build", "-edl", "app.edl", "-ca", "ca.pem",
		"-connect", deadAddr+","+addr, "-ecall", "ecall_compute", "-arg", "42")
	if !strings.Contains(out, "restored via the authentication server") {
		t.Fatalf("restore past a dead endpoint missing:\n%s", out)
	}
	if !strings.Contains(out, "= 56253") {
		t.Fatalf("wrong ecall result after walking past a dead endpoint:\n%s", out)
	}

	// A bare program through evmcc + evm-run for good measure.
	hello := "int putchar(int c);\nint main(void) { putchar('o'); putchar('k'); return 0; }\n"
	if err := os.WriteFile(filepath.Join(dir, "hello.c"), []byte(hello), 0o644); err != nil {
		t.Fatal(err)
	}
	runCmd(tool("evmcc"), "-o", "hello.elf", "hello.c")
	if got := runCmd(tool("evm-run"), "hello.elf"); got != "ok" {
		t.Fatalf("evm-run output %q", got)
	}
}
