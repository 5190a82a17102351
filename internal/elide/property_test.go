package elide

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"sgxelide/internal/elf"
	"sgxelide/internal/sdk"
	"sgxelide/internal/sgx"
)

// TestSanitizeRestoreIdentity is the core invariant of the whole system:
// after elide_restore, the enclave's in-memory text section is byte-for-byte
// identical to the ORIGINAL (unsanitized) image's text — sanitize∘restore
// is the identity on code.
func TestSanitizeRestoreIdentity(t *testing.T) {
	for _, opts := range []SanitizeOptions{
		{},
		{EncryptLocal: true},
		{Ranges: true},
		{EncryptLocal: true, Ranges: true},
	} {
		opts := opts
		name := "whole"
		if opts.Ranges {
			name = "ranges"
		}
		if opts.EncryptLocal {
			name += "+local"
		}
		t.Run(name, func(t *testing.T) {
			ca, h := env(t)
			p := buildApp(t, h, opts)
			srv, err := p.NewServerFor(ca)
			if err != nil {
				t.Fatal(err)
			}
			encl, rt, err := p.Launch(h, &DirectClient{Session: srv.NewSession()}, p.LocalFiles())
			if err != nil {
				t.Fatal(err)
			}

			pf, err := elf.Read(p.PlainELF)
			if err != nil {
				t.Fatal(err)
			}
			text := pf.Section(".text")
			original := pf.SectionData(text)

			// Before restore, enclave text differs from the original (the
			// sanitized functions are zero).
			pre := readEnclave(t, encl, text.Addr, len(original))
			if bytes.Equal(pre, original) {
				t.Fatal("sanitized enclave text equals original")
			}

			if code, err := encl.ECall("elide_restore", 0); err != nil || code != 0 {
				t.Fatalf("restore: %d %v (%v)", code, err, rt.LastErr())
			}

			post := readEnclave(t, encl, text.Addr, len(original))
			if !bytes.Equal(post, original) {
				for i := range post {
					if post[i] != original[i] {
						t.Fatalf("restored text differs first at offset %#x: %#x != %#x",
							i, post[i], original[i])
					}
				}
			}
		})
	}
}

// readEnclave reads enclave memory as the enclave itself would (the test
// plays the role of trusted code; the host still cannot do this).
func readEnclave(t *testing.T, encl *sdk.Enclave, addr uint64, n int) []byte {
	t.Helper()
	out, f := encl.Space.EnclaveReadBytes(addr, n)
	if f != nil {
		t.Fatal(f)
	}
	return out
}

// TestServerFilesRoundTrip checks the CLI file formats: what
// WriteServerFiles emits, loadDeployment reproduces, in each data mode,
// first into a fresh directory and then replacing the deployment of
// another mode in place.
func TestServerFilesRoundTrip(t *testing.T) {
	ca, h := env(t)
	roundTrip := func(dir string, p *Protected) {
		t.Helper()
		if err := p.WriteServerFiles(dir, ca.PublicKey()); err != nil {
			t.Fatal(err)
		}
		caPub, e, err := loadDeployment(dir)
		if err != nil {
			t.Fatal(err)
		}
		if e.MrEnclave != p.Measurement {
			t.Error("measurement lost")
		}
		if *e.Meta != *p.Meta {
			t.Errorf("meta lost: %+v vs %+v", e.Meta, p.Meta)
		}
		switch {
		case !p.Meta.Encrypted:
			if !bytes.Equal(e.SecretPlain, p.SecretData) {
				t.Error("secret data lost")
			}
		case p.Meta.Hybrid:
			if !bytes.Equal(e.SecretPlain, p.SecretPlain) {
				t.Error("hybrid plaintext lost")
			}
		default:
			if e.SecretPlain != nil {
				t.Error("local mode should not load plaintext data")
			}
			if _, err := os.Stat(filepath.Join(dir, FileSecretData)); !errors.Is(err, fs.ErrNotExist) {
				t.Errorf("local deployment kept a plaintext data file: %v", err)
			}
		}
		if !caPub.Equal(ca.PublicKey()) {
			t.Error("CA key lost")
		}
		// The loaded entry drives a working server.
		st := NewSecretStore()
		if _, err := st.Register(e.MrEnclave, e.Meta, e.SecretPlain, e.Name); err != nil {
			t.Fatal(err)
		}
		srv, err := NewMultiServer(caPub, st)
		if err != nil {
			t.Fatal(err)
		}
		encl, rt, err := p.Launch(h, &DirectClient{Session: srv.NewSession()}, p.LocalFiles())
		if err != nil {
			t.Fatal(err)
		}
		if code, err := encl.ECall("elide_restore", 0); err != nil || code != 0 {
			t.Fatalf("restore with loaded config: %d %v (%v)", code, err, rt.LastErr())
		}
	}

	var builds []*Protected
	for _, opts := range []SanitizeOptions{{}, {EncryptLocal: true}, {Hybrid: true}} {
		p := buildApp(t, h, opts)
		roundTrip(t.TempDir(), p)
		builds = append(builds, p)
	}
	// Re-emitting into one directory: a local-data deployment drops the
	// plaintext of the remote or hybrid one it replaces, and the next
	// remote or hybrid deployment writes it back.
	remote, local, hybrid := builds[0], builds[1], builds[2]
	dir := t.TempDir()
	for _, p := range []*Protected{remote, local, hybrid, local, remote} {
		roundTrip(dir, p)
	}
}

// FuzzUnmarshalMeta feeds arbitrary blobs to the meta decoder, which reads
// enclave.secret.meta from disk for the server's directory scan and for
// elide-run. It may not panic, an accepted blob must re-marshal to exactly
// the 101 bytes it was parsed from, and an accepted hybrid meta must be
// encrypted, as Sanitize writes every hybrid build.
func FuzzUnmarshalMeta(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := UnmarshalMeta(data)
		if err != nil {
			return
		}
		if out := m.Marshal(); !bytes.Equal(out, data) {
			t.Fatalf("re-marshaled %x, parsed %x", out, data)
		}
		if m.Hybrid && !m.Encrypted {
			t.Fatalf("accepted a hybrid meta without encrypted local data: flags %#x", data[16])
		}
	})
}

// TestCAPersistRoundTrip checks CA save/load (the -ca flag of elide-run).
func TestCAPersistRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/ca.pem"
	ca1, err := sgx.LoadOrCreateCA(path)
	if err != nil {
		t.Fatal(err)
	}
	ca2, err := sgx.LoadOrCreateCA(path)
	if err != nil {
		t.Fatal(err)
	}
	if !ca1.PublicKey().Equal(ca2.PublicKey()) {
		t.Error("CA not stable across loads")
	}
	// A platform provisioned under the loaded CA produces quotes the
	// original CA's public key verifies.
	platform, err := sgx.NewPlatform(sgx.Config{EPCPages: 64}, ca2)
	if err != nil {
		t.Fatal(err)
	}
	_ = platform
}
