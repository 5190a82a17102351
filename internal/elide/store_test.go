package elide

import (
	"context"
	"crypto/ecdsa"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sgxelide/internal/sgx"
)

// testMeta builds a valid remote-data meta/secret pair with a recognizable
// payload.
func testMeta(payload string) (*SecretMeta, []byte) {
	data := []byte(payload)
	return &SecretMeta{DataLen: uint64(len(data))}, data
}

// testMr derives a distinct measurement from a seed byte.
func testMr(seed byte) [32]byte {
	var mr [32]byte
	for i := range mr {
		mr[i] = seed + byte(i)
	}
	return mr
}

func TestStoreRegisterLookupRemove(t *testing.T) {
	st := NewSecretStore()
	meta, data := testMeta("secret-a")
	mr := testMr(1)
	e, err := st.Register(mr, meta, data, "a")
	if err != nil {
		t.Fatal(err)
	}
	if e.Label() == "" || len(e.Label()) != 8 {
		t.Fatalf("label = %q", e.Label())
	}
	got, ok := st.Lookup(mr)
	if !ok || got != e {
		t.Fatal("lookup did not return the registered entry")
	}
	if _, ok := st.Lookup(testMr(2)); ok {
		t.Fatal("lookup invented an entry")
	}
	if st.Len() != 1 {
		t.Fatalf("len = %d", st.Len())
	}
	if !st.Remove(mr) {
		t.Fatal("remove missed the entry")
	}
	if st.Remove(mr) {
		t.Fatal("double remove reported success")
	}
	if _, ok := st.Lookup(mr); ok {
		t.Fatal("entry survived removal")
	}
}

func TestStoreValidation(t *testing.T) {
	st := NewSecretStore()
	if _, err := st.Register(testMr(1), nil, nil, ""); err == nil || !strings.Contains(err.Error(), "metadata") {
		t.Errorf("nil meta: err = %v", err)
	}
	// Remote-data mode (not Encrypted) needs the plaintext.
	if _, err := st.Register(testMr(1), &SecretMeta{}, nil, ""); err == nil || !strings.Contains(err.Error(), "plaintext") {
		t.Errorf("missing plaintext: err = %v", err)
	}
	// Local-data mode carries the key in the meta; no plaintext needed.
	if _, err := st.Register(testMr(1), &SecretMeta{Encrypted: true}, nil, ""); err != nil {
		t.Errorf("local-data entry refused: %v", err)
	}
}

func TestStoreReplacementCarriesCounters(t *testing.T) {
	st := NewSecretStore()
	meta, data := testMeta("v1")
	mr := testMr(7)
	e1, err := st.Register(mr, meta, data, "d")
	if err != nil {
		t.Fatal(err)
	}
	e1.attests.Add(3)
	e1.metaServed.Add(2)
	meta2, data2 := testMeta("v2-longer")
	e2, err := st.Register(mr, meta2, data2, "d")
	if err != nil {
		t.Fatal(err)
	}
	if e2 == e1 {
		t.Fatal("replacement returned the old entry")
	}
	s := e2.Stats()
	if s.Attests != 3 || s.MetaServed != 2 {
		t.Fatalf("counters lost on replacement: %+v", s)
	}
	got, _ := st.Lookup(mr)
	if string(got.SecretPlain) != "v2-longer" {
		t.Fatal("replacement did not take effect")
	}
}

// TestStoreConcurrency races registration, removal, and lookup (run under
// -race by make verify).
func TestStoreConcurrency(t *testing.T) {
	st := NewSecretStore()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				mr := testMr(byte(w*16 + i%16))
				meta, data := testMeta(fmt.Sprintf("w%d-i%d", w, i))
				switch i % 3 {
				case 0:
					if _, err := st.Register(mr, meta, data, ""); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if e, ok := st.Lookup(mr); ok {
						e.attests.Add(1)
						_ = e.Stats()
					}
					st.Len()
					st.Entries()
				case 2:
					st.Remove(mr)
				}
			}
		}(w)
	}
	wg.Wait()
}

// writeDeployment writes a minimal WriteServerFiles-layout subdir without
// building a real enclave (only loadDeployment's file contract matters).
func writeDeployment(t *testing.T, root, name string, p *Protected, ca *sgx.CA) {
	t.Helper()
	if err := p.WriteServerFiles(filepath.Join(root, name), ca.PublicKey()); err != nil {
		t.Fatal(err)
	}
}

func TestStoreLoadDirAndRescan(t *testing.T) {
	ca, h := env(t)
	pA := buildApp(t, h, SanitizeOptions{})
	// A blacklist sanitize zeroes a different function set, producing a
	// genuinely different sanitized image and measurement.
	pB := buildApp(t, h, SanitizeOptions{Blacklist: []string{"secret_transform"}})
	if pA.Measurement == pB.Measurement {
		t.Fatal("test needs two distinct measurements")
	}

	root := t.TempDir()
	writeDeployment(t, root, "alpha", pA, ca)
	// A stray non-deployment dir and file must be skipped silently.
	if err := os.MkdirAll(filepath.Join(root, "not-a-deployment"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "README"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	st := NewSecretStore()
	rep, err := st.LoadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Added != 1 || rep.Updated != 0 || rep.Removed != 0 || len(rep.Failed) != 0 {
		t.Fatalf("first pass: %+v", rep)
	}
	if st.CA() == nil || !st.CA().Equal(ca.PublicKey()) {
		t.Fatal("store did not pin the deployment CA")
	}
	if _, ok := st.Lookup(pA.Measurement); !ok {
		t.Fatal("alpha not loaded")
	}

	// Unchanged rescan: no churn.
	rep, err = st.LoadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Changed() {
		t.Fatalf("idle rescan reported changes: %+v", rep)
	}

	// A new deployment dropped in is picked up...
	writeDeployment(t, root, "beta", pB, ca)
	rep, err = st.LoadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Added != 1 {
		t.Fatalf("beta not added: %+v", rep)
	}
	if _, ok := st.Lookup(pB.Measurement); !ok {
		t.Fatal("beta not loaded")
	}

	// ...a manually registered entry is never touched by rescans...
	manualMr := testMr(9)
	manualMeta, manualData := testMeta("manual")
	if _, err := st.Register(manualMr, manualMeta, manualData, "manual"); err != nil {
		t.Fatal(err)
	}

	// ...and a deployment deleted on disk is removed from the store.
	if err := os.RemoveAll(filepath.Join(root, "alpha")); err != nil {
		t.Fatal(err)
	}
	rep, err = st.LoadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Removed != 1 {
		t.Fatalf("alpha not removed: %+v", rep)
	}
	if _, ok := st.Lookup(pA.Measurement); ok {
		t.Fatal("alpha survived deletion")
	}
	if _, ok := st.Lookup(manualMr); !ok {
		t.Fatal("rescan removed a manually registered entry")
	}
}

func TestStoreLoadDirRejectsForeignCA(t *testing.T) {
	ca, h := env(t)
	p := buildApp(t, h, SanitizeOptions{})
	root := t.TempDir()
	writeDeployment(t, root, "ours", p, ca)

	otherCA, _ := env(t)
	writeDeployment(t, root, "theirs", p, otherCA)

	st := NewSecretStore()
	// Pin our CA first so the scan order (map/dirent order) cannot flip
	// which deployment wins.
	if err := st.pinCA(ca.PublicKey()); err != nil {
		t.Fatal(err)
	}
	rep, err := st.LoadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Added != 1 {
		t.Fatalf("added = %d", rep.Added)
	}
	if _, bad := rep.Failed["theirs"]; !bad {
		t.Fatalf("foreign-CA deployment not rejected: %+v", rep)
	}
}

func TestStoreWatchPicksUpDeployment(t *testing.T) {
	ca, h := env(t)
	p := buildApp(t, h, SanitizeOptions{})
	root := t.TempDir()

	st := NewSecretStore()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	changed := make(chan DirReport, 4)
	done := make(chan struct{})
	go func() {
		defer close(done)
		st.Watch(ctx, root, 5*time.Millisecond, func(r DirReport) { changed <- r })
	}()

	writeDeployment(t, root, "late", p, ca)
	select {
	case rep := <-changed:
		if rep.Added != 1 {
			t.Errorf("watch report: %+v", rep)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watcher never picked up the deployment")
	}
	if _, ok := st.Lookup(p.Measurement); !ok {
		t.Fatal("watched deployment not in store")
	}
	cancel()
	<-done
}

// TestResumeCacheLRU covers the eviction order of the session-resumption
// cache: both a lookup hit and a duplicate-key re-store must refresh an
// entry's recency, so the hot entry outlives cold ones.
func TestResumeCacheLRU(t *testing.T) {
	newSrv := func() *Server {
		meta, data := testMeta("s")
		st := NewSecretStore()
		if _, err := st.Register(testMr(1), meta, data, ""); err != nil {
			t.Fatal(err)
		}
		srv, err := NewMultiServer(mustCAPub(t), st, WithResumeCacheSize(2))
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	k := func(b byte) [32]byte { return testMr(b) }
	pub := []byte("pub")
	put := func(srv *Server, key [32]byte, chKey []byte) {
		srv.resumePut(key, pub, chKey, testMr(1))
	}

	t.Run("restore-on-duplicate-store", func(t *testing.T) {
		srv := newSrv()
		put(srv, k(1), []byte("key1"))
		put(srv, k(2), []byte("key2"))
		put(srv, k(1), []byte("key1b")) // duplicate key: refresh, not append
		if srv.resumeLen() != 2 {
			t.Fatalf("cache len = %d", srv.resumeLen())
		}
		put(srv, k(3), []byte("key3")) // evicts the LRU = k2, not k1
		if _, ok, _ := srv.resumeGet(k(2)); ok {
			t.Fatal("cold entry k2 survived eviction")
		}
		rec, ok, _ := srv.resumeGet(k(1))
		if !ok {
			t.Fatal("hot entry k1 was evicted before cold k2")
		}
		if string(rec.ChannelKey) != "key1b" {
			t.Fatalf("re-store did not refresh the channel state: %q", rec.ChannelKey)
		}
		if _, ok, _ := srv.resumeGet(k(3)); !ok {
			t.Fatal("k3 missing")
		}
	})

	t.Run("refresh-on-hit", func(t *testing.T) {
		srv := newSrv()
		put(srv, k(1), []byte("key1"))
		put(srv, k(2), []byte("key2"))
		if _, ok, _ := srv.resumeGet(k(1)); !ok { // touch k1: k2 becomes LRU
			t.Fatal("k1 missing")
		}
		put(srv, k(3), []byte("key3"))
		if _, ok, _ := srv.resumeGet(k(2)); ok {
			t.Fatal("k2 should have been evicted")
		}
		if _, ok, _ := srv.resumeGet(k(1)); !ok {
			t.Fatal("recently used k1 was evicted")
		}
	})

	t.Run("capacity-bound", func(t *testing.T) {
		srv := newSrv()
		for i := byte(0); i < 10; i++ {
			put(srv, k(i), []byte{i})
		}
		if srv.resumeLen() != 2 {
			t.Fatalf("cache len = %d, want cap 2", srv.resumeLen())
		}
	})
}

// TestWriteServerFilesAtomic: the files round-trip through loadDeployment
// and no temp residue is left behind (the atomic-rename pattern).
func TestWriteServerFilesAtomic(t *testing.T) {
	ca, h := env(t)
	p := buildApp(t, h, SanitizeOptions{})
	dir := filepath.Join(t.TempDir(), "deploy")
	if err := p.WriteServerFiles(dir, ca.PublicKey()); err != nil {
		t.Fatal(err)
	}
	_, e, err := loadDeployment(dir)
	if err != nil {
		t.Fatal(err)
	}
	if e.MrEnclave != p.Measurement {
		t.Fatal("measurement did not round-trip")
	}
	if string(e.Meta.Marshal()) != string(p.Meta.Marshal()) {
		t.Fatal("meta did not round-trip")
	}
	if string(e.SecretPlain) != string(p.SecretData) {
		t.Fatal("secret data did not round-trip")
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if strings.Contains(de.Name(), ".tmp") {
			t.Errorf("temp residue left behind: %s", de.Name())
		}
	}
}

func TestAtomicWriteFileReplaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	if err := atomicWriteFile(path, []byte("one"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := atomicWriteFile(path, []byte("two"), 0o600); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil || string(b) != "two" {
		t.Fatalf("read %q, %v", b, err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o600 {
		t.Fatalf("perm = %v", fi.Mode().Perm())
	}
}

// mustCAPub returns some valid ECDSA public key for server construction in
// tests that never verify a quote.
func mustCAPub(t *testing.T) *ecdsa.PublicKey {
	t.Helper()
	ca, _ := env(t)
	return ca.PublicKey()
}
