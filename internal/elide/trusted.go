package elide

import (
	"sgxelide/internal/edl"
	"sgxelide/internal/sdk"
)

// EDLSource declares the SgxElide runtime interface: one public ecall
// (elide_restore) and the untrusted helpers it needs — exactly the API
// surface the paper describes (§3.4), plus the QE target-info lookup that
// real SGX obtains from the untrusted sgx_init_quote.
const EDLSource = `
enclave {
    trusted {
        public uint64_t elide_restore(uint64_t flags);
    };
    untrusted {
        uint64_t elide_server_request(uint64_t req, [in, size=inlen] uint8_t* inbuf, uint64_t inlen, [out, size=cap] uint8_t* outbuf, uint64_t cap);
        uint64_t elide_read_file(uint64_t which, [out, size=cap] uint8_t* buf, uint64_t cap);
        uint64_t elide_write_file([in, size=len] uint8_t* buf, uint64_t len);
        void elide_qe_target([out, size=32] uint8_t* ti);
        void elide_report(uint64_t code);
    };
};
`

// TrustedC is the SgxElide trusted library (libelide_t): the runtime
// restorer. It performs remote attestation with the developer's server,
// fetches the secret metadata and data over the AES-GCM channel (or reads
// and decrypts the local encrypted file), locates the text section
// position-independently from its own address, and copies the original
// bytes over the sanitized ones. It also implements the sealing extension
// (paper §7): after the first restore the secret can be sealed with the
// enclave's EGETKEY-derived key so later launches need no server at all.
const TrustedC = `
/* SgxElide trusted runtime (libelide_t) */

int sgx_read_rand(uint8_t* buf, uint64_t len);
int sgx_sha256_msg(uint8_t* src, uint64_t len, uint8_t* hash);
int sgx_create_report(uint8_t* target, uint8_t* data, uint8_t* report);
int sgx_get_seal_key(uint64_t policy, uint8_t* key);
int sgx_ecdh_keypair(uint8_t* priv, uint8_t* pub);
int sgx_ecdh_shared(uint8_t* priv, uint8_t* peer, uint8_t* key);
int sgx_rijndael128GCM_encrypt(uint8_t* key, uint8_t* src, uint64_t len, uint8_t* dst, uint8_t* iv, uint8_t* mac);
int sgx_rijndael128GCM_decrypt(uint8_t* key, uint8_t* src, uint64_t len, uint8_t* dst, uint8_t* iv, uint8_t* mac);
void* memcpy(void* d, void* s, uint64_t n);
void* memset(void* d, int c, uint64_t n);
void* malloc(uint64_t n);

uint64_t elide_server_request(uint64_t req, uint8_t* inbuf, uint64_t inlen, uint8_t* outbuf, uint64_t cap);
uint64_t elide_read_file(uint64_t which, uint8_t* buf, uint64_t cap);
uint64_t elide_write_file(uint8_t* buf, uint64_t len);
void elide_qe_target(uint8_t* ti);
void elide_report(uint64_t code);
uint64_t elide_self_addr(void);
uint64_t elide_text_start(void);
uint64_t elide_text_end(void);

uint8_t elide_channel_key[16];
uint64_t elide_restored;
uint64_t elide_sealed_corrupt;

/* elide_wipe zeroizes secret-bearing memory before it is released or a
 * function returns: decrypted plaintext, seal/channel keys, and the ECDH
 * private key must not outlive their use inside the enclave heap/stack
 * (a later memory-disclosure bug or a dump would recover them). tlibc's
 * word-wise memset is the one zeroing loop. */
void elide_wipe(uint8_t* p, uint64_t n) {
    memset(p, 0, n);
}

/* elide_channel_setup attests to the server and derives the channel key:
 * a fresh ECDH keypair is bound into the report data (sha256 of the public
 * key), the report is quoted by the QE (via the untrusted runtime), and the
 * server replies with its own public key only if the quote checks out.
 * Single exit after key generation so the private key is wiped on every
 * path, including the error returns. */
uint64_t elide_channel_setup(void) {
    uint8_t priv[32];
    uint8_t pub[32];
    uint8_t ti[32];
    uint8_t rdata[64];
    uint8_t msg[232];
    uint8_t spub[32];
    uint64_t n;
    uint64_t rc;
    if (sgx_ecdh_keypair(priv, pub)) return 101;
    rc = 0;
    elide_qe_target(ti);
    for (int i = 0; i < 64; i++) rdata[i] = 0;
    sgx_sha256_msg(pub, 32, rdata);
    if (sgx_create_report(ti, rdata, msg)) rc = 102;
    if (rc == 0) {
        memcpy(msg + 200, pub, 32);
        n = elide_server_request(0, msg, 232, spub, 32);
        if (n != 32) rc = 103;
    }
    if (rc == 0) {
        if (sgx_ecdh_shared(priv, spub, elide_channel_key)) rc = 104;
    }
    elide_wipe(priv, 32);
    return rc;
}

/* elide_channel_request sends one encrypted request byte (REQUEST_META or
 * REQUEST_DATA) and decrypts the reply into out, returning the plaintext
 * length (0 on failure). Wire framing: iv(12) || mac(16) || ciphertext. */
uint64_t elide_channel_request(uint64_t req, uint8_t* out, uint64_t cap) {
    uint8_t msg[32];
    uint8_t pt[1];
    uint64_t n;
    pt[0] = (uint8_t)req;
    sgx_read_rand(msg, 12);
    if (sgx_rijndael128GCM_encrypt(elide_channel_key, pt, 1, msg + 28, msg, msg + 12)) return 0;
    n = elide_server_request(1, msg, 29, out, cap);
    if (n <= 28) return 0;
    if (n > cap) return 0;
    if (sgx_rijndael128GCM_decrypt(elide_channel_key, out + 28, n - 28, out, out, out + 12)) return 0;
    return n - 28;
}

/* elide_in_text reports whether [dst, dst + n) lies inside the text
 * section, without computing dst + n, which could wrap. */
uint64_t elide_in_text(uint64_t dst, uint64_t n) {
    uint64_t hi = elide_text_end();
    if (dst < elide_text_start()) return 0;
    if (dst > hi) return 0;
    return n <= hi - dst;
}

/* elide_apply writes the original bytes over the sanitized text. The text
 * base is computed position-independently: the metadata carries the offset
 * of elide_restore from the text start, and elide_self_addr() returns its
 * runtime address. off and the range records can come from the host's
 * sealed file, so it returns 1 instead of writing outside the text section
 * or reading a record past data + dlen; the caller treats that as a failed
 * restore. */
uint64_t elide_apply(uint8_t* data, uint64_t dlen, uint64_t off, uint64_t format) {
    uint64_t text = elide_self_addr() - off;
    if (format == 0) {
        if (elide_in_text(text, dlen) == 0) return 1;
        memcpy((uint8_t*)text, data, dlen);
        return 0;
    }
    uint64_t count;
    uint64_t pos = 8;
    if (dlen < pos) return 1;
    memcpy(&count, data, 8);
    for (uint64_t i = 0; i < count; i++) {
        uint64_t roff;
        uint64_t rlen;
        /* pos <= dlen holds throughout, so dlen - pos cannot wrap. */
        if (dlen - pos < 16) return 1;
        memcpy(&roff, data + pos, 8);
        memcpy(&rlen, data + pos + 8, 8);
        pos = pos + 16;
        if (rlen > dlen - pos) return 1;
        if (elide_in_text(text + roff, rlen) == 0) return 1;
        memcpy((uint8_t*)(text + roff), data + pos, rlen);
        pos = pos + rlen;
    }
    return 0;
}

/* elide_verify_text hashes the whole text section after an apply and
 * compares it (branch-free accumulate) against the expected digest the
 * metadata carries. A mismatch means the restore tore: the memcpy did not
 * reproduce the original bytes, and success must not be reported. */
uint64_t elide_verify_text(uint64_t off, uint64_t textlen, uint8_t* digest) {
    uint8_t h[32];
    uint64_t text = elide_self_addr() - off;
    uint64_t diff = 0;
    if (textlen == 0) return 0;
    if (sgx_sha256_msg((uint8_t*)text, textlen, h)) return 1;
    for (int i = 0; i < 32; i++) diff = diff | (h[i] ^ digest[i]);
    if (diff) return 1;
    return 0;
}

/* Sealed blob layout:
 * dlen u64 | off u64 | format u64 | textlen u64 | digest32 | iv12 | mac16 | ct.
 * Header is 64 bytes; iv at 64, mac at 76, ciphertext at 92. */

/* elide_try_sealed returns 0 on a verified sealed restore, 1 when there is
 * no usable sealed file (missing), and 2 when the blob exists but is
 * corrupt — truncated, failed its MAC, pointed the apply outside the text
 * section, or produced a torn text. Corrupt
 * blobs are reported so the runtime can surface a typed error, and the
 * caller falls back to the network and re-seals a fresh blob. */
uint64_t elide_try_sealed(void) {
    uint8_t hdr[64];
    uint8_t key[16];
    uint64_t n;
    uint64_t dlen;
    uint64_t off;
    uint64_t format;
    uint64_t textlen;
    n = elide_read_file(1, hdr, 64);
    if (n == 0) return 1;
    if (n < 64) return 2;
    memcpy(&dlen, hdr, 8);
    memcpy(&off, hdr + 8, 8);
    memcpy(&format, hdr + 16, 8);
    memcpy(&textlen, hdr + 24, 8);
    uint64_t total = 64 + 28 + dlen;
    uint8_t* blob = malloc(total);
    n = elide_read_file(1, blob, total);
    if (n != total) return 2;
    if (sgx_get_seal_key(0, key)) return 2;
    uint8_t* plain = malloc(dlen);
    uint64_t rc = 0;
    if (sgx_rijndael128GCM_decrypt(key, blob + 92, dlen, plain, blob + 64, blob + 76)) rc = 2;
    if (rc == 0) {
        if (elide_apply(plain, dlen, off, format) || elide_verify_text(off, textlen, blob + 32)) rc = 2;
    }
    /* The seal key and the decrypted text must not linger on the stack or
     * heap once the apply has consumed them (or failed). */
    elide_wipe(key, 16);
    elide_wipe(plain, dlen);
    return rc;
}

void elide_seal(uint8_t* data, uint64_t dlen, uint64_t off, uint64_t format, uint64_t textlen, uint8_t* digest) {
    uint8_t key[16];
    uint64_t total = 64 + 28 + dlen;
    uint8_t* blob = malloc(total);
    memcpy(blob, &dlen, 8);
    memcpy(blob + 8, &off, 8);
    memcpy(blob + 16, &format, 8);
    memcpy(blob + 24, &textlen, 8);
    memcpy(blob + 32, digest, 32);
    if (sgx_get_seal_key(0, key)) return;
    sgx_read_rand(blob + 64, 12);
    uint64_t ok = 1;
    if (sgx_rijndael128GCM_encrypt(key, data, dlen, blob + 92, blob + 64, blob + 76)) ok = 0;
    elide_wipe(key, 16);
    if (ok) elide_write_file(blob, total);
}

/* elide_restore is the single ecall a developer adds (paper §3.4).
 * Returns 0 (restored via server), 1 (restored from sealed file), or an
 * error code >= 100. The acquisition strategies run in degradation order:
 * sealed file first (no network), then the authentication server, and in
 * hybrid deployments the encrypted local file when the remote data fetch
 * fails mid-protocol. */
uint64_t elide_restore(uint64_t flags) {
    uint8_t mbuf[160];
    uint64_t n;
    uint64_t dlen;
    uint64_t off;
    uint64_t format;
    uint64_t textlen;
    uint64_t got;
    uint8_t* data;
    uint64_t r;
    if (elide_restored) return 0;
    if (flags & 1) {
        r = elide_try_sealed();
        if (r == 0) {
            elide_restored = 1;
            return 1;
        }
        if (r == 2) {
            /* Corrupt sealed blob: tell the runtime (typed error), fall
             * back to the network, and remember to re-seal a fresh blob. */
            elide_report(1);
            elide_sealed_corrupt = 1;
        }
    }
    r = elide_channel_setup();
    if (r) return r;
    n = elide_channel_request(1, mbuf, 160);
    if (n != 101) {
        elide_wipe(mbuf, 160);
        elide_wipe(elide_channel_key, 16);
        return 105;
    }
    memcpy(&dlen, mbuf, 8);
    memcpy(&off, mbuf + 8, 8);
    memcpy(&textlen, mbuf + 61, 8);
    format = (mbuf[16] >> 1) & 1;
    data = malloc(dlen + 28);
    got = 0;
    r = 0;
    if (mbuf[16] & 4) {
        /* Hybrid: the data lives both on the server and in the encrypted
         * local file. Prefer the fresh remote copy; degrade to the local
         * file, which overwrites data, when the pool cannot move it. */
        n = elide_channel_request(2, data, dlen + 28);
        if (n == dlen) got = 1;
        if (got == 0) elide_report(3);
    }
    if (got == 0) {
        if (mbuf[16] & 1) {
            /* Local data: read the encrypted file, decrypt with the key the
             * server released over the attested channel (key at mbuf+17). */
            n = elide_read_file(0, data, dlen);
            if (n != dlen) r = 106;
            if (r == 0) {
                if (sgx_rijndael128GCM_decrypt(mbuf + 17, data, dlen, data, mbuf + 33, mbuf + 45)) r = 107;
            }
        } else {
            /* Remote data: the channel decrypts in place, into data. */
            n = elide_channel_request(2, data, dlen + 28);
            if (n != dlen) r = 108;
        }
    }
    if (r == 0) {
        if (elide_apply(data, dlen, off, format) || elide_verify_text(off, textlen, mbuf + 69)) {
            /* Torn restore: never report success over a text that does not
             * hash to the original, nor after a refused apply. elide_restored
             * stays clear so a retry re-runs the whole protocol. */
            elide_report(2);
            r = 110;
        }
    }
    if (r == 0) {
        elide_restored = 1;
        if ((flags & 2) | elide_sealed_corrupt) {
            elide_seal(data, dlen, off, format, textlen, mbuf + 69);
            elide_sealed_corrupt = 0;
        }
    }
    /* Single cleanup for every outcome: the restored text now lives only
     * in the text section, so data with the channel's 28-byte framing, the
     * metadata blob (local-data key/IV/MAC) and the channel key are wiped. */
    elide_wipe(data, dlen + 28);
    elide_wipe(mbuf, 160);
    elide_wipe(elide_channel_key, 16);
    return r;
}
`

// TrustedAsm holds the hand-written helpers: the position-independent
// address of elide_restore (C has no function pointers in our subset, and
// this mirrors the paper's PIC trick of subtracting the metadata offset
// from elide_restore's runtime address), and the linker's text-section
// bounds, the only memory elide_apply may write.
const TrustedAsm = `
.text
.global elide_self_addr
.func elide_self_addr
	la rv, elide_restore
	ret
.endfunc

.global elide_text_start
.func elide_text_start
	la rv, __text_start
	ret
.endfunc

.global elide_text_end
.func elide_text_end
	la rv, __text_end
	ret
.endfunc
`

// TrustedSources returns the SgxElide trusted-side sources to link into an
// enclave build.
func TrustedSources() []sdk.Source {
	return []sdk.Source{
		sdk.C("elide_trusted.c", TrustedC),
		sdk.Asm("elide_helpers.s", TrustedAsm),
	}
}

// ParseEDL returns the parsed SgxElide interface.
func ParseEDL() (*edl.Interface, error) {
	return edl.Parse(EDLSource)
}

// MergeEDL combines the SgxElide interface with an application's own EDL
// source; the elide ecall keeps index 0.
func MergeEDL(appEDL string) (*edl.Interface, error) {
	base, err := ParseEDL()
	if err != nil {
		return nil, err
	}
	if appEDL == "" {
		return base, nil
	}
	app, err := edl.Parse(appEDL)
	if err != nil {
		return nil, err
	}
	return base.Merge(app)
}
