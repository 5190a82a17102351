// remoteattest: the SgxElide remote-data deployment over a real TCP
// connection. The authentication server holds the secret code; it releases
// it only to an enclave whose quote (signed by the platform's CA-certified
// device key) carries the expected sanitized measurement. An attacker
// re-signing the unsanitized enclave is refused.
//
//	go run ./examples/remoteattest
package main

import (
	"context"
	"crypto/rand"
	"crypto/rsa"
	"errors"
	"fmt"
	"log"
	"net"
	"time"

	"sgxelide/internal/elide"
	"sgxelide/internal/sdk"
	"sgxelide/internal/sgx"
)

const appEDL = `
enclave {
    trusted {
        public uint64_t ecall_license_check(uint64_t machine_id);
    };
    untrusted {
    };
};
`

// The secret: the license-key derivation function (classic DRM).
const appC = `
uint64_t ecall_license_check(uint64_t machine_id) {
    uint64_t k = machine_id;
    for (int i = 0; i < 5; i++) {
        k = (k << 13) | (k >> 51);
        k *= 0x5DEECE66Du;
        k ^= 0x2545F4914F6CDD1Du;
    }
    return k;
}
`

func main() {
	ca, err := sgx.NewCA()
	check(err)
	platform, err := sgx.NewPlatform(sgx.Config{}, ca)
	check(err)
	host := sdk.NewHost(platform)

	fmt.Println("== developer: build, sanitize, sign, deploy secrets to the server ==")
	prot, err := elide.BuildProtected(host, elide.BuildProtectedOptions{
		AppEDL:  appEDL,
		Sources: []sdk.Source{sdk.C("license.c", appC)},
	})
	check(err)
	fmt.Printf("sanitized measurement: %x...\n", prot.Measurement[:8])

	// The authentication server, reachable only over TCP. It serves until
	// the context is cancelled, then drains in-flight sessions.
	srv, err := prot.NewServerFor(ca)
	check(err)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	check(err)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, l) }()
	fmt.Printf("authentication server listening on %s\n", l.Addr())

	fmt.Println("\n== honest user: restore over TCP ==")
	client := elide.NewTCPClient(l.Addr().String(),
		elide.WithDialTimeout(2*time.Second),
		elide.WithRequestTimeout(5*time.Second),
		elide.WithRetryBudget(2),
	)
	defer client.Close()
	encl, rt, err := prot.LaunchContext(ctx, host, client, prot.LocalFiles())
	check(err)
	code, err := encl.ECall("elide_restore", 0)
	check(err)
	fmt.Printf("elide_restore -> %d (quote verified, secret code streamed over AES-GCM)\n", code)
	lic, err := encl.ECall("ecall_license_check", 0xFEEDC0DE)
	check(err)
	fmt.Printf("license key for machine FEEDC0DE: %016x\n", lic)
	_ = rt

	fmt.Println("\n== attacker: re-sign the UNSANITIZED enclave and ask for the secrets ==")
	key, err := rsa.GenerateKey(rand.Reader, 2048)
	check(err)
	mr, err := sdk.MeasureELF(host, prot.PlainELF)
	check(err)
	ss, err := sgx.SignEnclave(key, mr, 1, 1)
	check(err)
	// An attestation refusal is a typed error, not a dropped connection:
	// the client does not waste its retry budget on it.
	evilClient := elide.NewTCPClient(l.Addr().String())
	defer evilClient.Close()
	rt2 := &elide.Runtime{Client: evilClient, Files: &elide.FileStore{}}
	rt2.Install(host)
	evil, err := host.CreateEnclave(prot.PlainELF, ss, prot.EDL)
	check(err)
	code, err = evil.ECall("elide_restore", 0)
	check(err)
	fmt.Printf("attacker's elide_restore -> %d (refused)\n", code)
	fmt.Printf("server-side reason: %v (ErrRefused: %v)\n",
		rt2.LastErr(), errors.Is(rt2.LastErr(), elide.ErrRefused))

	fmt.Println("\n== graceful shutdown: drain and stop the server ==")
	cancel()
	fmt.Printf("server exited with: %v\n", <-served)
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
