package bench

import (
	"crypto/rand"
	"crypto/rsa"
	"fmt"
	"sync"

	"sgxelide/internal/edl"
	"sgxelide/internal/elide"
	"sgxelide/internal/sdk"
	"sgxelide/internal/sgx"
)

// Env is one simulated machine: CA, SGX platform, untrusted runtime.
type Env struct {
	CA   *sgx.CA
	Host *sdk.Host
}

// NewEnv provisions a platform.
func NewEnv() (*Env, error) {
	ca, err := sgx.NewCA()
	if err != nil {
		return nil, err
	}
	p, err := sgx.NewPlatform(sgx.Config{}, ca)
	if err != nil {
		return nil, err
	}
	return &Env{CA: ca, Host: sdk.NewHost(p)}, nil
}

// Shared slow fixtures: the signing key and the SgxElide whitelist are the
// same for every benchmark (the whitelist by design — paper §4.1).
var (
	fixtureOnce sync.Once
	fixtureKey  *rsa.PrivateKey
	fixtureWL   elide.Whitelist
	fixtureErr  error
)

// Fixtures returns the shared signing key and whitelist.
func Fixtures() (*rsa.PrivateKey, elide.Whitelist, error) {
	fixtureOnce.Do(func() {
		fixtureKey, fixtureErr = rsa.GenerateKey(rand.Reader, 1024)
		if fixtureErr != nil {
			return
		}
		fixtureWL, fixtureErr = elide.GenerateWhitelist()
	})
	return fixtureKey, fixtureWL, fixtureErr
}

// baselineImages caches built and signed baseline enclaves per program, so
// the timed region of a Figures run is what `time ./app` measures — enclave
// loading plus the workload — not compilation.
var (
	baselineMu     sync.Mutex
	baselineImages = map[string]*baselineImage{}
)

type baselineImage struct {
	elf   []byte
	ss    *sgx.SigStruct
	iface *edl.Interface
}

// BuildBaseline loads the program as a plain SGX enclave (no SgxElide) —
// the "w/ SGX" baseline of Figures 3 and 4. The image is built, measured
// and signed once per program; every call loads a fresh enclave.
func BuildBaseline(env *Env, p *Program) (*sdk.Enclave, error) {
	img, err := cachedBaselineImage(env, p)
	if err != nil {
		return nil, err
	}
	return env.Host.CreateEnclave(img.elf, img.ss, img.iface)
}

func cachedBaselineImage(env *Env, p *Program) (*baselineImage, error) {
	baselineMu.Lock()
	defer baselineMu.Unlock()
	if img, ok := baselineImages[p.Name]; ok {
		return img, nil
	}
	key, _, err := Fixtures()
	if err != nil {
		return nil, err
	}
	iface, err := edl.Parse(p.EDL)
	if err != nil {
		return nil, err
	}
	res, err := sdk.BuildEnclave(sdk.BuildConfig{}, iface, sdk.C(p.Name+".c", p.TrustedC))
	if err != nil {
		return nil, fmt.Errorf("bench: building %s baseline: %w", p.Name, err)
	}
	mr, err := sdk.MeasureELF(env.Host, res.ELF)
	if err != nil {
		return nil, err
	}
	ss, err := sgx.SignEnclave(key, mr, 1, 1)
	if err != nil {
		return nil, err
	}
	img := &baselineImage{elf: res.ELF, ss: ss, iface: res.EDL}
	baselineImages[p.Name] = img
	return img, nil
}

// BuildProtected builds the program with SgxElide and sanitizes it.
func BuildProtected(env *Env, p *Program, san elide.SanitizeOptions) (*elide.Protected, error) {
	key, wl, err := Fixtures()
	if err != nil {
		return nil, err
	}
	prot, err := elide.BuildProtected(env.Host, elide.BuildProtectedOptions{
		Sanitize:  san,
		AppEDL:    p.EDL,
		Sources:   []sdk.Source{sdk.C(p.Name+".c", p.TrustedC)},
		SignKey:   key,
		Whitelist: wl,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: building protected %s: %w", p.Name, err)
	}
	return prot, nil
}

// LaunchProtected loads the sanitized enclave with an in-process
// authentication server (the paper runs client and server on one machine).
func LaunchProtected(env *Env, prot *elide.Protected) (*sdk.Enclave, *elide.Runtime, error) {
	srv, err := prot.NewServerFor(env.CA)
	if err != nil {
		return nil, nil, err
	}
	return prot.Launch(env.Host, &elide.DirectClient{Session: srv.NewSession()}, prot.LocalFiles())
}

// Steps is one run's exact instruction counts inside the enclave. Unlike
// its wall time, they do not move with the host's speed.
type Steps struct {
	Restore uint64 // the elide_restore ecall
	Suite   uint64 // the built-in test suite
}

// RunProtected is the full user-side flow: launch, restore, run the
// workload. Returns the elide_restore return code and the run's counts.
func RunProtected(env *Env, prot *elide.Protected, p *Program, flags uint64) (uint64, Steps, error) {
	encl, rt, err := LaunchProtected(env, prot)
	if err != nil {
		return 0, Steps{}, err
	}
	defer encl.Destroy()
	code, err := encl.ECall("elide_restore", flags)
	if err != nil {
		return 0, Steps{}, fmt.Errorf("restore: %w (runtime: %v)", err, rt.LastErr())
	}
	steps := Steps{Restore: encl.Steps}
	if code >= 100 {
		return code, steps, fmt.Errorf("elide_restore failed with code %d (runtime: %v)", code, rt.LastErr())
	}
	err = p.Workload(env.Host, encl)
	steps.Suite = encl.Steps - steps.Restore
	return code, steps, err
}
