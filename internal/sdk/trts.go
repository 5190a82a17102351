package sdk

// TrtsSource is the trusted runtime (tRTS), in EVM assembly: the enclave's
// single architectural entry point with ecall dispatch, the ocall exit path,
// the trusted heap, and the string/memory routines every enclave links.
// These functions are part of the dummy enclave and therefore end up on the
// SgxElide whitelist — they must survive sanitization or nothing could run.
//
// EENTER register convention (shared with the untrusted runtime):
//
//	r1 = ecall index
//	r2 = marshal struct address (untrusted memory)
//	r3 = ocall arena address (untrusted memory)
//
// EEXIT codes: 0 = ecall return, 1 = ocall (r1 = index, r2 = marshal
// address), 2 = enclave abort.
const TrtsSource = `
; trusted runtime (tRTS)
.text

.global enclave_entry
.func enclave_entry
	la sp, __stack_top
	la r7, g_ocall_arena
	st64 [r7], r3
	la r7, g_ecall_count
	ld64 r7, [r7]
	bltu r1, r7, .Ltrts_auto
	eexit 2

; Transparent-restoration hook (SgxElide "totally transparent" mode, the
; paper's first future-work item): when the sanitizer has patched
; g_elide_auto to flags+1, every ecall first routes through ecall 0 — which
; in an SgxElide enclave is elide_restore (a fast no-op once restored). In
; plain enclaves g_elide_auto stays 0 and this block falls through.
.Ltrts_auto:
	la r7, g_elide_auto
	ld64 r7, [r7]
	movi r0, 0
	beq r7, r0, .Ltrts_dispatch
	beq r1, r0, .Ltrts_dispatch
	push r1
	push r2
	push r3
	addi a0, r7, -1
	st64 [r3+8], a0
	mov a0, r3
	la r7, g_ecall_table
	ld64 r7, [r7]
	callr r7
	pop r3
	pop r2
	pop r1
	ld64 r7, [r3]
	movi r0, 100
	bltu r7, r0, .Ltrts_dispatch
	eexit 2

.Ltrts_dispatch:
	la r7, g_ecall_table
	shli r0, r1, 3
	add r7, r7, r0
	ld64 r7, [r7]
	mov a0, r2
	callr r7
	eexit 0
.endfunc

.global abort
.func abort
	eexit 2
	jmp abort
.endfunc

; Trusted heap: a watermark (arena) allocator. Bridges snapshot the cursor
; with heap_mark and roll back with heap_release when the ecall returns, so
; per-call scratch cannot leak.
; void* malloc(uint64_t n)
.global malloc
.func malloc
	la r7, g_heap_cursor
	ld64 rv, [r7]
	movi r2, 0
	bne rv, r2, .Lmalloc_have
	la rv, __heap_base
.Lmalloc_have:
	addi rv, rv, 15
	movi r2, -16
	and rv, rv, r2
	add r2, rv, a0
	la r3, __heap_end
	bltu r3, r2, .Lmalloc_oom
	st64 [r7], r2
	ret
.Lmalloc_oom:
	eexit 2
	jmp .Lmalloc_oom
.endfunc

; void free(void* p) — arena allocator: individual frees are no-ops.
.global free
.func free
	ret
.endfunc

; uint64_t heap_mark(void)
.global heap_mark
.func heap_mark
	la r7, g_heap_cursor
	ld64 rv, [r7]
	movi r2, 0
	bne rv, r2, .Lheap_mark_done
	la rv, __heap_base
	st64 [r7], rv
.Lheap_mark_done:
	ret
.endfunc

; void heap_release(uint64_t mark)
.global heap_release
.func heap_release
	la r7, g_heap_cursor
	st64 [r7], a0
	ret
.endfunc

.data
.align 8
.global g_ocall_arena
g_ocall_arena:
	.quad 0
.global g_heap_cursor
g_heap_cursor:
	.quad 0
; Patched by the SgxElide sanitizer in transparent mode: 0 = off,
; otherwise elide_restore flags + 1.
.global g_elide_auto
g_elide_auto:
	.quad 0
`

// CryptoSource is the trusted crypto/platform library, modeling the SGX
// SDK's statically linked tcrypto + tservice routines. Each stub is a real
// text-section function whose body traps to a host intrinsic — the moral
// equivalent of the SDK's AES-NI/constant-time primitives, which SgxElide's
// whitelist must also keep.
const CryptoSource = `
; trusted crypto and platform services (tcrypto / tservice)
.text

; int sgx_rijndael128GCM_encrypt(key16, src, len, dst, iv12, mac16_out)
.global sgx_rijndael128GCM_encrypt
.func sgx_rijndael128GCM_encrypt
	intrin 0x100
	ret
.endfunc

; int sgx_rijndael128GCM_decrypt(key16, src, len, dst, iv12, mac16)
.global sgx_rijndael128GCM_decrypt
.func sgx_rijndael128GCM_decrypt
	intrin 0x101
	ret
.endfunc

; int sgx_read_rand(buf, len)
.global sgx_read_rand
.func sgx_read_rand
	intrin 0x102
	ret
.endfunc

; int sgx_sha256_msg(src, len, hash32_out)
.global sgx_sha256_msg
.func sgx_sha256_msg
	intrin 0x103
	ret
.endfunc

; int sgx_create_report(target32, data64, report200_out)
.global sgx_create_report
.func sgx_create_report
	intrin 0x104
	ret
.endfunc

; int sgx_get_seal_key(policy, key16_out)
.global sgx_get_seal_key
.func sgx_get_seal_key
	intrin 0x105
	ret
.endfunc

; int sgx_ecdh_keypair(priv32_out, pub32_out)
.global sgx_ecdh_keypair
.func sgx_ecdh_keypair
	intrin 0x106
	ret
.endfunc

; int sgx_ecdh_shared(priv32, peer_pub32, key16_out)
.global sgx_ecdh_shared
.func sgx_ecdh_shared
	intrin 0x107
	ret
.endfunc
`

// TlibcSource is the trusted C library (tlibc): the string/memory routines
// every enclave (and bare program) links. In the real SDK these are the
// statically linked tlibc that fattens the paper's whitelist to 170
// functions; ours is leaner but plays the same role.
const TlibcSource = `
; trusted C library (tlibc)
.text

; void* memcpy(void* dst, void* src, uint64_t n)
.global memcpy
.func memcpy
	; NB: a0=r1, a1=r2, a2=r3 — temps are limited to r0 and r7 here.
	push a0
	movi r7, 8
.Lmemcpy_words:
	bltu a2, r7, .Lmemcpy_bytes
	ld64 r0, [a1]
	st64 [a0], r0
	addi a0, a0, 8
	addi a1, a1, 8
	addi a2, a2, -8
	jmp .Lmemcpy_words
.Lmemcpy_bytes:
	movi r7, 0
	beq a2, r7, .Lmemcpy_done
	ld8u r0, [a1]
	st8 [a0], r0
	addi a0, a0, 1
	addi a1, a1, 1
	addi a2, a2, -1
	jmp .Lmemcpy_bytes
.Lmemcpy_done:
	pop rv
	ret
.endfunc

; void* memmove(void* dst, void* src, uint64_t n) — overlap-safe
.global memmove
.func memmove
	bltu a0, a1, .Lmemmove_fwd
	beq a0, a1, .Lmemmove_done
	; dst > src: copy backwards
	add a0, a0, a2
	add a1, a1, a2
	movi r7, 0
.Lmemmove_back:
	beq a2, r7, .Lmemmove_done
	addi a0, a0, -1
	addi a1, a1, -1
	addi a2, a2, -1
	ld8u r0, [a1]
	st8 [a0], r0
	jmp .Lmemmove_back
.Lmemmove_fwd:
	call memcpy
	ret
.Lmemmove_done:
	mov rv, a0
	ret
.endfunc

; void* memset(void* dst, int c, uint64_t n) — word-wise, like memcpy
.global memset
.func memset
	mov rv, a0
	andi a1, a1, 255
	shli r7, a1, 8
	or a1, a1, r7
	shli r7, a1, 16
	or a1, a1, r7
	shli r7, a1, 32
	or a1, a1, r7
	movi r7, 8
.Lmemset_words:
	bltu a2, r7, .Lmemset_bytes
	st64 [a0], a1
	addi a0, a0, 8
	addi a2, a2, -8
	jmp .Lmemset_words
.Lmemset_bytes:
	movi r7, 0
	beq a2, r7, .Lmemset_done
	st8 [a0], a1
	addi a0, a0, 1
	addi a2, a2, -1
	jmp .Lmemset_bytes
.Lmemset_done:
	ret
.endfunc

; int memcmp(void* a, void* b, uint64_t n)
.global memcmp
.func memcmp
.Lmemcmp_loop:
	movi r7, 0
	beq a2, r7, .Lmemcmp_eq
	ld8u r0, [a0]
	ld8u r7, [a1]
	bne r0, r7, .Lmemcmp_ne
	addi a0, a0, 1
	addi a1, a1, 1
	addi a2, a2, -1
	jmp .Lmemcmp_loop
.Lmemcmp_eq:
	movi rv, 0
	ret
.Lmemcmp_ne:
	sltu r7, r0, r7
	movi rv, 1
	sub rv, rv, r7
	sub rv, rv, r7
	ret
.endfunc

; void* memchr(void* s, int c, uint64_t n)
.global memchr
.func memchr
	movi r7, 0
	zext a1, a1, 1
.Lmemchr_loop:
	beq a2, r7, .Lmemchr_miss
	ld8u r0, [a0]
	beq r0, a1, .Lmemchr_hit
	addi a0, a0, 1
	addi a2, a2, -1
	jmp .Lmemchr_loop
.Lmemchr_hit:
	mov rv, a0
	ret
.Lmemchr_miss:
	movi rv, 0
	ret
.endfunc

; uint64_t strlen(char* s)
.global strlen
.func strlen
	movi rv, 0
	movi r7, 0
.Lstrlen_loop:
	ld8u r2, [a0]
	beq r2, r7, .Lstrlen_done
	addi a0, a0, 1
	addi rv, rv, 1
	jmp .Lstrlen_loop
.Lstrlen_done:
	ret
.endfunc

; int strcmp(char* a, char* b)
.global strcmp
.func strcmp
	movi r7, 0
.Lstrcmp_loop:
	ld8u r0, [a0]
	ld8u r4, [a1]
	bne r0, r4, .Lstrcmp_ne
	beq r0, r7, .Lstrcmp_eq
	addi a0, a0, 1
	addi a1, a1, 1
	jmp .Lstrcmp_loop
.Lstrcmp_eq:
	movi rv, 0
	ret
.Lstrcmp_ne:
	sltu r7, r0, r4
	movi rv, 1
	sub rv, rv, r7
	sub rv, rv, r7
	ret
.endfunc

; int strncmp(char* a, char* b, uint64_t n)
.global strncmp
.func strncmp
	movi r7, 0
.Lstrncmp_loop:
	beq a2, r7, .Lstrncmp_eq
	ld8u r0, [a0]
	ld8u r4, [a1]
	bne r0, r4, .Lstrncmp_ne
	beq r0, r7, .Lstrncmp_eq
	addi a0, a0, 1
	addi a1, a1, 1
	addi a2, a2, -1
	jmp .Lstrncmp_loop
.Lstrncmp_eq:
	movi rv, 0
	ret
.Lstrncmp_ne:
	sltu r7, r0, r4
	movi rv, 1
	sub rv, rv, r7
	sub rv, rv, r7
	ret
.endfunc

; char* strcpy(char* dst, char* src)
.global strcpy
.func strcpy
	; rv is r0, which the loop needs as scratch: return value is kept on
	; the stack instead.
	push a0
	movi r7, 0
.Lstrcpy_loop:
	ld8u r0, [a1]
	st8 [a0], r0
	beq r0, r7, .Lstrcpy_done
	addi a0, a0, 1
	addi a1, a1, 1
	jmp .Lstrcpy_loop
.Lstrcpy_done:
	pop rv
	ret
.endfunc

; char* strncpy(char* dst, char* src, uint64_t n) — pads with NULs like C
.global strncpy
.func strncpy
	push a0
	movi r7, 0
.Lstrncpy_copy:
	beq a2, r7, .Lstrncpy_done
	ld8u r0, [a1]
	st8 [a0], r0
	addi a0, a0, 1
	addi a2, a2, -1
	beq r0, r7, .Lstrncpy_pad
	addi a1, a1, 1
	jmp .Lstrncpy_copy
.Lstrncpy_pad:
	beq a2, r7, .Lstrncpy_done
	st8 [a0], r7
	addi a0, a0, 1
	addi a2, a2, -1
	jmp .Lstrncpy_pad
.Lstrncpy_done:
	pop rv
	ret
.endfunc
`
