package sdk

import (
	"testing"

	"sgxelide/internal/link"
)

// The tlibc routines are exercised from C against known answers; any
// register-aliasing mistake in the hand-written assembly shows up here.
const tlibcTestC = `
void* memcpy(void* d, void* s, uint64_t n);
void* memmove(void* d, void* s, uint64_t n);
void* memset(void* d, int c, uint64_t n);
int memcmp(void* a, void* b, uint64_t n);
void* memchr(void* s, int c, uint64_t n);
uint64_t strlen(char* s);
int strcmp(char* a, char* b);
int strncmp(char* a, char* b, uint64_t n);
char* strcpy(char* d, char* s);
char* strncpy(char* d, char* s, uint64_t n);

char buf[64];
char buf2[64];

/* memset is word-wise with a byte tail: exactly n bytes from buf + off take
 * the low byte of c, and the bytes around them keep their old value. */
int memset_ok(uint64_t off, uint64_t n, int c, uint8_t want) {
    for (int i = 0; i < 64; i++) buf[i] = 0x5A;
    if (memset(buf + off, c, n) != buf + off) return 0;
    for (uint64_t i = 0; i < 64; i++) {
        uint8_t b = 0x5A;
        if (i >= off && i < off + n) b = want;
        if ((uint8_t)buf[i] != b) return 0;
    }
    return 1;
}

int main(void) {
    /* memset at every alignment and every length around the word size */
    for (uint64_t off = 0; off < 9; off++) {
        for (uint64_t n = 0; n < 26; n++) {
            if (!memset_ok(off, n, 0, 0)) return 23;
            if (!memset_ok(off, n, 0x1AB, 0xAB)) return 24;
            if (!memset_ok(off, n, -1, 0xFF)) return 25;
        }
    }

    /* memset + memcmp */
    memset(buf, 0xAB, 16);
    for (int i = 0; i < 16; i++)
        if ((uint8_t)buf[i] != 0xAB) return 1;
    memset(buf2, 0xAB, 16);
    if (memcmp(buf, buf2, 16) != 0) return 2;
    buf2[7] = 0;
    if (memcmp(buf, buf2, 16) <= 0) return 3;   /* 0xAB > 0 */
    if (memcmp(buf2, buf, 16) >= 0) return 4;

    /* memcpy */
    for (int i = 0; i < 32; i++) buf[i] = (char)i;
    memcpy(buf2, buf, 32);
    if (memcmp(buf, buf2, 32) != 0) return 5;

    /* memmove with overlap, both directions */
    for (int i = 0; i < 10; i++) buf[i] = (char)('a' + i);
    memmove(buf + 2, buf, 8);              /* dst > src */
    if (strncmp(buf + 2, "abcdefgh", 8) != 0) return 6;
    for (int i = 0; i < 10; i++) buf[i] = (char)('a' + i);
    memmove(buf, buf + 2, 8);              /* dst < src */
    if (strncmp(buf, "cdefghij", 8) != 0) return 7;

    /* memchr */
    strcpy(buf, "find the needle");
    char* p = (char*)memchr(buf, 'n', 15);
    if (p != buf + 2) return 8;
    if (memchr(buf, 'z', 15)) return 9;

    /* strlen / strcmp / strncmp */
    if (strlen("") != 0) return 10;
    if (strlen("hello") != 5) return 11;
    if (strcmp("abc", "abc") != 0) return 12;
    if (strcmp("abc", "abd") >= 0) return 13;
    if (strcmp("abd", "abc") <= 0) return 14;
    if (strcmp("ab", "abc") >= 0) return 15;
    if (strncmp("abcX", "abcY", 3) != 0) return 16;
    if (strncmp("abcX", "abcY", 4) >= 0) return 17;

    /* strcpy / strncpy */
    if (strcpy(buf2, "copied") != buf2) return 18;
    if (strcmp(buf2, "copied") != 0) return 19;
    memset(buf2, 0x7F, 16);
    strncpy(buf2, "hi", 8);                /* pads with NULs */
    if (buf2[0] != 'h' || buf2[1] != 'i') return 20;
    for (int i = 2; i < 8; i++)
        if (buf2[i] != 0) return 21;
    if (buf2[8] != 0x7F) return 22;        /* untouched past n */

    return 0;
}
`

func TestTlibcFromC(t *testing.T) {
	im, err := BuildBare(link.Config{}, C("tlibc_test.c", tlibcTestC))
	if err != nil {
		t.Fatal(err)
	}
	exit, err := RunBare(im, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if exit != 0 {
		t.Fatalf("tlibc self-test failed with code %d", exit)
	}
}
