package elide

import (
	"crypto/ecdsa"
	"crypto/x509"
	"encoding/hex"
	"encoding/pem"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// File names used by the CLI tools (mirroring the artifact's layout).
const (
	FileSanitizedSO = "sanitized.so"
	FileSecretMeta  = "enclave.secret.meta" // server only!
	FileSecretData  = "enclave.secret.data"
	FileSecretPlain = "enclave.secret.plain" // hybrid mode, server only!
	FileMeasurement = "enclave.mrenclave"
	FileCAPub       = "ca_pub.pem"
	FileWhitelist   = "whitelist.json"
)

// atomicWriteFile writes data to path via a same-directory temp file and
// rename, so a crash mid-write can never leave a torn file at path — the
// server's directory scan would otherwise happily load a half-written
// secret.
func atomicWriteFile(path string, data []byte, perm os.FileMode) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := tmp.Chmod(perm); err != nil {
		tmp.Close()
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// WriteServerFiles writes one deployment, everything the authentication
// server needs for this enclave, into dir: the CA public key, the expected
// (sanitized) measurement, the secret metadata, and the plaintext secret
// data the server releases (remote-data and hybrid mode; a local-data
// deployment removes the data file of one it replaces in place). A server
// loads dir as one subdirectory of its deployments directory
// (SecretStore.LoadDir). Each file is written atomically (temp file +
// rename), so a crash mid-write cannot leave a torn secret for the server
// to load. Writing into a directory a running server watches is safe too:
// the data file is written before the metadata and removed only after it,
// so a rescan never finds a metadata file without the data it needs.
func (p *Protected) WriteServerFiles(dir string, caPub *ecdsa.PublicKey) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	der, err := x509.MarshalPKIXPublicKey(caPub)
	if err != nil {
		return fmt.Errorf("elide: encoding CA key: %w", err)
	}
	pemBytes := pem.EncodeToMemory(&pem.Block{Type: "PUBLIC KEY", Bytes: der})
	if err := atomicWriteFile(filepath.Join(dir, FileCAPub), pemBytes, 0o644); err != nil {
		return err
	}
	dataPath := filepath.Join(dir, FileSecretData)
	data := p.serverData()
	if data != nil {
		if err := atomicWriteFile(dataPath, data, 0o600); err != nil {
			return err
		}
	}
	if err := atomicWriteFile(filepath.Join(dir, FileSecretMeta), p.Meta.Marshal(), 0o600); err != nil {
		return err
	}
	if data == nil {
		if err := os.Remove(dataPath); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
	}
	// The measurement file last: its presence marks a new deployment
	// subdir as loadable, so a watcher scanning mid-deploy sees either
	// nothing or a complete deployment.
	mr := hex.EncodeToString(p.Measurement[:]) + "\n"
	return atomicWriteFile(filepath.Join(dir, FileMeasurement), []byte(mr), 0o644)
}

// loadDeployment reads one deployment subdirectory in the WriteServerFiles
// layout: it returns the attestation CA the deployment pins and an
// unregistered store entry, named after the subdirectory, holding the
// secrets the server releases to the deployment's measurement.
func loadDeployment(dir string) (*ecdsa.PublicKey, *SecretEntry, error) {
	pemBytes, err := os.ReadFile(filepath.Join(dir, FileCAPub))
	if err != nil {
		return nil, nil, err
	}
	block, _ := pem.Decode(pemBytes)
	if block == nil {
		return nil, nil, fmt.Errorf("elide: %s is not PEM", FileCAPub)
	}
	pub, err := x509.ParsePKIXPublicKey(block.Bytes)
	if err != nil {
		return nil, nil, fmt.Errorf("elide: parsing CA key: %w", err)
	}
	caPub, ok := pub.(*ecdsa.PublicKey)
	if !ok {
		return nil, nil, fmt.Errorf("elide: CA key is not ECDSA")
	}

	mrText, err := os.ReadFile(filepath.Join(dir, FileMeasurement))
	if err != nil {
		return nil, nil, err
	}
	mrBytes, err := hex.DecodeString(strings.TrimSpace(string(mrText)))
	if err != nil || len(mrBytes) != 32 {
		return nil, nil, fmt.Errorf("elide: bad measurement file")
	}
	var mr [32]byte
	copy(mr[:], mrBytes)

	metaBytes, err := os.ReadFile(filepath.Join(dir, FileSecretMeta))
	if err != nil {
		return nil, nil, err
	}
	meta, err := UnmarshalMeta(metaBytes)
	if err != nil {
		return nil, nil, err
	}
	var plain []byte
	if !meta.Encrypted || meta.Hybrid {
		if plain, err = os.ReadFile(filepath.Join(dir, FileSecretData)); err != nil {
			return nil, nil, err
		}
	}
	name := filepath.Base(dir)
	e, err := newEntry(mr, meta, plain, name)
	if err != nil {
		return nil, nil, err
	}
	e.dir = name
	return caPub, e, nil
}
