/* twinsep's compiled kernel.  Its entry points: twinsep_sieve_chunk, the fused twin sieve
 * below; for the Monte Carlo sampler, twinsep_philox_fill, its scaled uniforms, and
 * twinsep_geometric, its draws from them in one pass, each draw it cannot certify left in its
 * own output slot for numpy to finish; and twinsep_histogram, for spectra, with the size of
 * its table, twinsep_histogram_cap (all at the end).
 *
 * Fused twin kernel: sieve one chunk [low, high) and summarise it.
 *
 * Wheel: one byte covers 30 integers, bits 0..7 <-> residues 1, 7, 11, 13,
 * 17, 19, 23, 29 (mod 30).  Byte 0 starts at low - low % 30; bits below low
 * and at or above high are clear.  The bytes are sieved in blocks of
 * `block` bytes, a power of two from 8 to 2**28.  A prime p crosses p*m, m
 * coprime to 30, from max(p*p, low) on.  For each residue of m mod 30 that
 * is a stride-p byte progression with a fixed bit, and the 8 hits with m in
 * one period of 30 lie within p bytes.  The primes fall in three tiers:
 *   presieve  7..97: a block starts as the AND, one 64-bit word at a time,
 *             of eight byte patterns built once per call, each periodic in
 *             the product of one group of PRESIEVE (7387 to 33611 bytes);
 *             the presieved primes in range are then set back;
 *   middle    base primes 97 < p < block, one state each: the byte where
 *             its next period starts (struct mid).  A loop compiled for each
 *             class p mod 30 clears a whole period's 8 hits per step, at
 *             constant offsets (multiples of p / 30) with constant masks.
 *             Each period that starts in a block is crossed whole, so the
 *             last one's hits run up to p bytes on, into a pad after the
 *             block that the next block ANDs in; no period is cut, and no
 *             wheel index is kept.  The first period is the one where the
 *             first hit falls; its hits below that one are composites p*m,
 *             m > 90, and may fall before byte 0, in a pad before the block.
 *             Primes below SMALL_PRIME cross each block in sub-blocks of
 *             SUB_BLOCK bytes, which stay in L1, and the rest cross the
 *             whole block.  One chunk of about 2**27 integers on one CPU
 *             of a 2-vCPU Xeon took 12.0 ms near 1e9, 16.4 ms near 1e10,
 *             24.7 ms near 1e11 and 33.3 ms near 1e12, the best of 9 (13.4,
 *             17.8, 25.8 and 34.3 ms in the same runs with the scan before
 *             the one below), and sieve_range to 1e9 0.051 s on both CPUs
 *             (0.059 s), medians of 20 alternating runs.  When a stride-p
 *             loop per residue was replaced, it took 25.8, 33.9, 42.7 and
 *             51.4 ms against 13.4, 18.4, 26.2 and 36.5 ms (sieve_range
 *             0.115 s against 0.067 s);
 *   large     base primes p >= block, whose progressions hit a block at
 *             most once: a bucket sieve (Oliveira e Silva, Herzog and
 *             Pardi, Math. Comp. 83, 2014).  Each progression waits in the
 *             bucket of the block it hits next; each block drains only its
 *             own bucket and files every entry again in the bucket of its
 *             next hit, or drops it past the chunk.  A bucket is a chain of
 *             pages drawn from one pool, and a drained page is reused.
 * A scan over each finished block counts primes with popcount and finds
 * twins alone: lower members sit at bits 2, 4, 7 of a byte (11, 17, 29 mod
 * 30), so a word's own twins are x & x >> 1 & TWIN_LOWER, and one more
 * spans the previous word when its bit 63 and this word's bit 0 are both
 * primes.  On a CPU with AVX-512 VPOPCNTDQ, BITALG and VBMI2 (and F, BW, DQ
 * and VBMI; chosen at run time, so the build needs no -march) it takes 8
 * words (1920 integers) at a time with no loop over the twins.  An upper
 * member sits at bit 0, 3 or 5 of a byte (1, 13, 19 mod 30; bit 0 pairs
 * with bit 7 of the byte before), and each of a group's 192 candidates gets
 * its prime index in the group as a byte: the primes of the words before it
 * (a prefix sum over the lanes), of the bytes before it in its word (the
 * byte counts times 0x0101..01) and of its byte below it.  vpcompressb keeps
 * those that are upper members, in order, and the separations are each
 * index less the one before, less 2, widened and stored 16 at a time.  The
 * group of the chunk's first twin, one that sets a record, one that holds
 * 256 primes or more or more than 64 twins (none past the integer 1929) go
 * by words, as do the tail of a block under 8 words, every group that
 * reaches a checkpoint, and other CPUs; the scan by words, one 64-bit word
 * (240 integers) at a time, walks every prime only in a word that reaches a
 * checkpoint.  Both find the same twins in the same order.  On one CPU of
 * the 2-vCPU Xeon above, the scan of a chunk near 1e9 took 2.3 Mcycles of
 * the TSC (the least of 9) against 5.8 with a scatter into slots per twin
 * and a scalar pass over them, and the chunk 12.1 ms against 13.9 (16.6
 * against 18.0 near 1e10), medians of 9 alternating runs.  The scan emits
 * the fields of a ChunkSummary directly, so the caller allocates only the
 * outputs:
 *   seps[t - 1]     separation closed by the chunk's t-th own twin (t >= 1);
 *   recs[2r], [2r+1] r-th running-maximum record: (separation, lower member);
 *   rows[3g..3g+2]  at grid[g]: primes <= n, twins with upper member <= n,
 *                   index of the last such twin's lower member or -1;
 *   out[0..5]       primes, twins, first twin's lower member and index (-1 if
 *                   none), last twin's index (-1 if none), record count.
 * Prime indices are 0-based within the chunk.  base holds every odd prime
 * <= isqrt(high - 1), ascending; low is odd and at least 9, high is at most
 * 2**62 + 1, and high - low is below 2**33.  Returns 0, or -1 when the
 * working memory cannot be allocated.
 */
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#if defined(__x86_64__)
#include <immintrin.h>
#endif

#if __BYTE_ORDER__ != __ORDER_LITTLE_ENDIAN__
#error "the scan reads wheel byte 0 as the low byte of a 64-bit word"
#endif

/* bits 2, 4, 7 of each byte (lower members); bit 63 pairs with the next word */
#define TWIN_LOWER 0x1494949494949494ULL
#define NGROUP 8
#define PRESIEVE_LAST 97
#define PAGE_MAX 1024 /* bucket entries per page, at most */
/* middle primes below SMALL_PRIME, which have 2 or more periods in a sub-block, cross each
 * block (sieve.py's KERNEL_BLOCK, 64 KB) in sub-blocks of SUB_BLOCK bytes, clamped to the
 * block; chosen by a sweep of 97..32768 and of 16 and 32 KB, per chunk near 1e9..1e12 */
#define SMALL_PRIME 16384
#define SUB_BLOCK (1 << 15)

static const int64_t R[8] = {1, 7, 11, 13, 17, 19, 23, 29};
/* the presieved primes 7..97 by pattern; 1 pads a pair */
static const int64_t PRESIEVE[NGROUP][3] = {{7, 67, 71},  {11, 41, 73}, {13, 43, 59}, {17, 37, 53},
                                            {19, 29, 61}, {23, 31, 47}, {79, 97, 1},  {83, 89, 1}};

struct scan {
    int64_t primes, twins, tw_low, tw_first, tw_last, nrec, best;
    int64_t last, g, ngrid; /* last prime (0 before the first), next checkpoint */
    const int64_t *grid;
    uint32_t *seps;
    int64_t *recs, *rows;
};

/* a large prime's progression, p << 32 | its next byte in the chunk << 3 | bit: the next hit
 * after it is e + (p << 3) */
typedef uint64_t hit;

struct page {
    struct page *next; /* an older, full page of the same bucket, or the next spare page */
    hit h[];
};

struct bucket {
    hit *top, *end; /* the newest page's next free entry and end; NULL when empty */
};

struct buckets {
    struct bucket *of; /* one per block */
    struct page *spare;
    int64_t cap; /* entries per page */
    int shift;   /* log2(block) + 3 */
};

/* the hot loops are kept out of line, so each is compiled with the registers to itself */
#define HOT __attribute__((noinline))

static int bit_of(int64_t residue) /* residue is coprime to 30 */
{
    static const int8_t BIT[30] = {[1] = 0, [7] = 1, [11] = 2, [13] = 3,
                                   [17] = 4, [19] = 5, [23] = 6, [29] = 7};
    return BIT[residue];
}

static uint8_t bits_below(int64_t r) /* the bits of residues < r */
{
    uint8_t m = 0;
    for (int b = 0; b < 8; b++)
        m |= (R[b] < r) << b;
    return m;
}

/* len wheel bytes from byte org on, with the multiples of q[0..2] clear (those of 1 are skipped).
 * Each q crosses q*m, m = R[i] (mod 30): bytes = q*R[i]/30 (mod q), with a fixed bit. */
static void pattern(uint8_t *pat, int64_t org, int64_t len, const int64_t *q)
{
    memset(pat, 0xff, len);
    for (int k = 0; k < 3; k++)
        for (int i = 0; q[k] > 1 && i < 8; i++) {
            uint8_t m = (uint8_t)~(1 << bit_of(q[k] * R[i] % 30));
            for (int64_t j = ((q[k] * R[i] / 30 - org) % q[k] + q[k]) % q[k]; j < len; j += q[k])
                pat[j] &= m;
        }
}

static struct page *page_of(hit *end, int64_t cap) /* the page that ends at end */
{
    return (struct page *)((uint8_t *)(end - cap) - offsetof(struct page, h));
}

/* file a large prime's progression in the bucket of the block it hits next;
 * a full or empty bucket first takes a spare page */
static inline void file(struct buckets *bk, hit e)
{
    struct bucket *bu = bk->of + ((uint32_t)e >> bk->shift);
    if (bu->top == bu->end) {
        struct page *pg = bk->spare;
        bk->spare = pg->next;
        pg->next = bu->end ? page_of(bu->end, bk->cap) : NULL;
        bu->top = pg->h;
        bu->end = pg->h + bk->cap;
    }
    *bu->top++ = e;
}

static uint64_t word(const uint8_t *p)
{
    uint64_t x;
    memcpy(&x, p, 8);
    return x;
}

/* flags[0..len), len rounded up to a word, = the AND of the patterns; pattern g is read on from
 * byte at[g] and wraps to byte 0 at lim[g], and a word that crosses lim[g] reads on into the
 * 8 bytes that follow it */
static HOT void presieve(uint8_t *flags, int64_t len, uint8_t *const *pat, int64_t *at,
                         const int64_t *lim)
{
    for (int64_t j = 0, n; j < len; j += n) {
        const uint8_t *src[NGROUP];
        n = len - j;
        for (int g = 0; g < NGROUP; g++) {
            if (lim[g] - at[g] < n)
                n = lim[g] - at[g];
            src[g] = pat[g] + at[g];
        }
        n = (n + 7) & ~7;
        for (int64_t i = 0; i < n; i += 8) { /* written out: gcc -O2 keeps a loop over g */
            uint64_t x = word(src[0] + i) & word(src[1] + i) & word(src[2] + i) & word(src[3] + i) &
                         word(src[4] + i) & word(src[5] + i) & word(src[6] + i) & word(src[7] + i);
            memcpy(flags + j + i, &x, 8);
        }
        for (int g = 0; g < NGROUP; g++)
            if ((at[g] += n) >= lim[g])
                at[g] -= lim[g];
    }
}

/* A middle prime p = 30q + r hits p*m, m = 30k + R[j], at chunk byte kp + R[j]q + rR[j] / 30
 * (less w0 / 30), bit bit_of(rR[j] % 30).  So the 8 hits of period k fall within p bytes from
 * the first, p(30k + 1), at offsets (R[j] - 1)q + rR[j] / 30 from it.  A middle prime's state is
 * the chunk byte `at` where its next period starts; its class r is known from where the state
 * is kept. */
struct mid {
    int32_t at; /* chunks are under 2**29 bytes */
    uint32_t q;
};

/* the bit of a residue x coprime to 30, as a constant expression */
#define BIT(x) ((x) == 1 ? 0 : (x) == 7 ? 1 : (x) == 11 ? 2 : (x) == 13 ? 3 : \
                (x) == 17 ? 4 : (x) == 19 ? 5 : (x) == 23 ? 6 : 7)
/* hit m of the period at f, for p = 30q + r */
#define HIT(r, m) f[((m) - 1) * q + (r) * (m) / 30] &= (uint8_t) ~(1 << BIT((r) * (m) % 30))

/* cross the middle primes of class r, m[0..n), into the len bytes from chunk byte b0: each
 * period that starts there is crossed whole, so its last hits may fall up to p bytes past
 * len */
#define CROSS(r)                                                                                \
    static HOT void cross##r(uint8_t *flags, int64_t b0, int64_t len, struct mid *m, int64_t n) \
    {                                                                                           \
        for (struct mid *end = m + n; m < end; m++) {                                           \
            int64_t q = m->q, p = 30 * q + (r), s = m->at - b0;                                 \
            for (; s < len; s += p) {                                                           \
                uint8_t *f = flags + s;                                                         \
                HIT(r, 1), HIT(r, 7), HIT(r, 11), HIT(r, 13);                                   \
                HIT(r, 17), HIT(r, 19), HIT(r, 23), HIT(r, 29);                                 \
            }                                                                                   \
            m->at = (int32_t)(s + b0);                                                          \
        }                                                                                       \
    }
CROSS(1)
CROSS(7)
CROSS(11)
CROSS(13)
CROSS(17)
CROSS(19)
CROSS(23)
CROSS(29)

/* cross one tier of middle primes, class by class: class j is m[cut[j] .. cut[j + 1]) */
static void cross(uint8_t *flags, int64_t b0, int64_t len, struct mid *m, const int64_t *cut)
{
    static void (*const by_class[8])(uint8_t *, int64_t, int64_t, struct mid *, int64_t) = {
        cross1, cross7, cross11, cross13, cross17, cross19, cross23, cross29};
    for (int j = 0; j < 8; j++)
        by_class[j](flags, b0, len, m + cut[j], cut[j + 1] - cut[j]);
}

/* cross the bucket of the block at chunk byte b0, filing each progression again or dropping
 * it past the chunk's nbytes; the drained pages become spare */
static HOT void drain(struct buckets *all, uint8_t *flags, int64_t b0, int64_t nbytes)
{
    static const uint8_t CLEAR[8] = {0xfe, 0xfd, 0xfb, 0xf7, 0xef, 0xdf, 0xbf, 0x7f};
    struct buckets bk = *all; /* a copy, so the filing state stays in registers */
    struct bucket bu = bk.of[b0 >> (bk.shift - 3)];
    hit *top = bu.top; /* the newest page ends here, older ones are full */
    for (struct page *pg = top ? page_of(bu.end, bk.cap) : NULL, *older; pg; pg = older) {
        for (hit *h = pg->h; h < top; h++) {
            hit e = *h, step = e >> 29 & ~7ULL; /* p << 3 */
            flags[((uint32_t)e >> 3) - b0] &= CLEAR[e & 7];
            if ((uint32_t)e + step < (uint64_t)nbytes << 3)
                file(&bk, e + step);
        }
        older = pg->next;
        pg->next = bk.spare;
        bk.spare = pg;
        top = older ? older->h + bk.cap : NULL;
    }
    all->spare = bk.spare;
}

/* gcc without -mpopcnt (which KERNEL_CC leaves out) calls libgcc for __builtin_popcountll */
static inline int popcount(uint64_t x) /* SWAR */
{
    x -= x >> 1 & 0x5555555555555555ULL;
    x = (x & 0x3333333333333333ULL) + (x >> 2 & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    return (int)(x * 0x0101010101010101ULL >> 56);
}

#define INLINE static inline __attribute__((always_inline))

INLINE void twin(struct scan *s, int64_t lower, int64_t index)
{
    if (s->twins) {
        int64_t sep = index - s->tw_last - 2;
        s->seps[s->twins - 1] = (uint32_t)sep;
        if (sep > s->best) {
            s->best = sep;
            s->recs[2 * s->nrec] = sep;
            s->recs[2 * s->nrec++ + 1] = lower;
        }
    } else {
        s->tw_low = lower;
        s->tw_first = index;
    }
    s->tw_last = index;
    s->twins++;
}

static int64_t value(int64_t v0, int bit) /* the integer at a word's bit, bit 0 <-> v0 + 1 */
{
    return v0 + 30 * (bit >> 3) + R[bit & 7];
}

static void row(struct scan *s)
{
    int64_t *r = s->rows + 3 * s->g++;
    r[0] = s->primes;
    r[1] = s->twins;
    r[2] = s->tw_last;
}

/* scan the word x of a finished block, whose bit 0 is the integer v0 + 1 */
INLINE void scan_word(struct scan *s, uint64_t x, int64_t v0)
{
    if (!x)
        return;
    uint64_t y, lower = x & x >> 1 & TWIN_LOWER;
    if (s->g < s->ngrid && s->grid[s->g] < v0 + 240) {
        uint64_t upper = lower << 1 | (s->last == v0 - 1);
        for (y = x; y; y &= y - 1) {
            int t = __builtin_ctzll(y);
            int64_t u = value(v0, t);
            while (s->g < s->ngrid && s->grid[s->g] < u)
                row(s);
            if (upper >> t & 1)
                twin(s, u - 2, s->primes - 1);
            s->primes++;
        }
    } else {
        if (x & 1 && s->last == v0 - 1) /* the twin (v0 - 1, v0 + 1) spans two words */
            twin(s, s->last, s->primes - 1);
        for (y = lower; y; y &= y - 1) {
            int t = __builtin_ctzll(y);
            twin(s, value(v0, t), s->primes + popcount(x & ((1ULL << t) - 1)));
        }
        s->primes += popcount(x);
    }
    s->last = value(v0, 63 - __builtin_clzll(x));
}

#if defined(__x86_64__)
/* vpopcntb (BITALG), vpermb and vpermt2b (VBMI), vpcompressb (VBMI2), vpmullq (DQ) */
#define AVX512_SCAN \
    __attribute__((target("avx512f,avx512bw,avx512dq,avx512vbmi,avx512vbmi2,avx512bitalg," \
                           "avx512vpopcntdq,popcnt")))
#define GROUP 64 /* bytes (8 words, 1920 integers) per vector step */

/* C(b) for each byte b of a group */
#define EIGHT(C, b) C(b), C(b + 1), C(b + 2), C(b + 3), C(b + 4), C(b + 5), C(b + 6), C(b + 7)
#define BYTES(C) EIGHT(C, 0), EIGHT(C, 8), EIGHT(C, 16), EIGHT(C, 24), EIGHT(C, 32), \
                 EIGHT(C, 40), EIGHT(C, 48), EIGHT(C, 56)
/* A group's candidate upper members, k = 3b + c for byte b: c = 0, 1, 2 for bits 0, 3, 5.
 * FROM[k] picks b from the first table of vpermt2b, or from the second with bit 6 (c = 1);
 * SEL[k] is the candidate's bit. */
#define FROM_B(b) (b), 64 | (b), (b)
#define SEL_B(b) 1, 8, 32
static const uint8_t FROM[3 * GROUP] = {BYTES(FROM_B)}, SEL[3 * GROUP] = {BYTES(SEL_B)};

/* a, opaque to the compiler: so a constant stays in a register through a loop, where gcc
 * would otherwise build it again each time by a broadcast, on the port that the permutes use */
static inline AVX512_SCAN __m512i opaque(__m512i a)
{
    __asm__("" : "+v"(a));
    return a;
}

static inline AVX512_SCAN __m512i prefix8(__m512i a) /* the inclusive prefix sum of the lanes */
{
    const __m512i zero = _mm512_setzero_si512();
    a = _mm512_add_epi64(a, _mm512_alignr_epi64(a, zero, 7)); /* lane j += lane j - 1 */
    a = _mm512_add_epi64(a, _mm512_alignr_epi64(a, zero, 6));
    return _mm512_add_epi64(a, _mm512_alignr_epi64(a, zero, 4));
}

/* candidates 64j .. 64j + 63 of a group whose bytes' candidates have the indices at, at3 and
 * at5: the indices of those that are upper members, in order from lane 0, and how many */
static inline AVX512_SCAN __m512i upper64(int j, __m512i at, __m512i at3, __m512i at5, __m512i up,
                                          int64_t *n)
{
    __m512i from = _mm512_loadu_si512(FROM + GROUP * j), sel = _mm512_loadu_si512(SEL + GROUP * j);
    __m512i idx = _mm512_permutex2var_epi8(at, from, at3);
    __mmask64 c2 = _mm512_movepi8_mask(_mm512_slli_epi64(sel, 2)); /* where SEL is 32 */
    idx = _mm512_mask_permutexvar_epi8(idx, c2, from, at5);
    __mmask64 twin = _mm512_test_epi8_mask(_mm512_permutexvar_epi8(from, up), sel);
    *n = __builtin_popcountll(_cvtmask64_u64(twin));
    return _mm512_maskz_compress_epi8(twin, idx);
}

/* scan whole groups of flags[i..len), after the chunk's first twin, while each reaches no
 * checkpoint, holds fewer than 256 primes and 65 twins (as every group past the integer 1929
 * does), and sets no record; returns the byte where it stopped: at another group, or at the
 * tail of fewer than GROUP bytes.  flags[-8..-1] is the word before the block: its bit 63 is
 * set when v - 1 is prime. */
static HOT AVX512_SCAN int64_t scan_avx512(struct scan *all, const uint8_t *flags, int64_t len,
                                           int64_t v, int64_t i)
{
    if (!all->twins)
        return i;
    const __m512i lower_bits = opaque(_mm512_set1_epi64((int64_t)TWIN_LOWER));
    const __m512i ones = opaque(_mm512_set1_epi8(1)), two = opaque(_mm512_set1_epi8(2));
    const __m512i low3 = opaque(_mm512_set1_epi8(7)), low5 = opaque(_mm512_set1_epi8(31));
    /* the record, at most 255; -1 (no separation yet) reads as 255, as every twin's first
     * separation is then a record */
    const __m512i best = opaque(_mm512_set1_epi8((char)(all->best < 255 ? all->best : 255)));
    struct scan s = *all; /* a copy, so the scan state stays in registers */
    int64_t lim = len, seen = -1; /* seen: the last group with a prime */
    if (s.g < s.ngrid && (s.grid[s.g] - v) / 30 < len) /* a group that ends past it reaches it */
        lim = (s.grid[s.g] - v) / 30;
    uint8_t up_at[2 * GROUP] = {0}; /* a group's twins by their upper member's index in it */
    for (; i + GROUP <= lim; i += GROUP) {
        __m512i x = _mm512_loadu_si512(flags + i);
        if (!_mm512_test_epi64_mask(x, x))
            continue;
        __m512i n = _mm512_popcnt_epi64(x), sum = prefix8(n);
        int64_t total = _mm_extract_epi64(_mm512_extracti32x4_epi32(sum, 3), 1);
        if (total > 255) /* the indices below are bytes */
            break;
        /* twins by their upper member's bit u; bit 0 of word j pairs with bit 63 of word j - 1 */
        __m512i prev = _mm512_loadu_si512(flags + i - 8);
        __m512i own = _mm512_ternarylogic_epi64(x, _mm512_srli_epi64(x, 1), lower_bits, 0x80);
        __m512i up = _mm512_or_si512(_mm512_slli_epi64(own, 1),
                                     _mm512_and_si512(x, _mm512_srli_epi64(prev, 63)));
        /* per byte, the group's primes before it (at), before its bit 3 (at3) and before its
         * bit 5 (at5), the index in the group of a prime there: at is a word's primes before it,
         * in byte 0, and its byte counts shifted up a byte, summed into each byte by a multiply */
        __m512i at = _mm512_or_si512(_mm512_sub_epi64(sum, n),
                                     _mm512_slli_epi64(_mm512_popcnt_epi8(x), 8));
        at = _mm512_mullo_epi64(at, ones);
        __m512i at3 = _mm512_add_epi8(at, _mm512_popcnt_epi8(_mm512_and_si512(x, low3)));
        __m512i at5 = _mm512_add_epi8(at, _mm512_popcnt_epi8(_mm512_and_si512(x, low5)));
        /* the upper members' indices in order: those among candidates 0..63, 64..127 and
         * 128..191, one run after another */
        int64_t n0, n1, n2;
        __m512i u0 = upper64(0, at, at3, at5, up, &n0), u1 = upper64(1, at, at3, at5, up, &n1);
        __m512i u2 = upper64(2, at, at3, at5, up, &n2);
        int64_t t = n0 + n1 + n2;
        if (t > GROUP)
            break;
        _mm512_storeu_si512(up_at, u0);
        _mm512_storeu_si512(up_at + n0, u1);
        _mm512_storeu_si512(up_at + n0 + n1, u2);
        __m512i u = _mm512_loadu_si512(up_at);
        /* the separation closed by the group's first twin, from the twin before, and in lane k
         * of sep, k < t - 1 (later), that closed by twin k + 1, from twin k */
        int64_t first = s.primes + up_at[0] - 3 - s.tw_last;
        __m512i sep = _mm512_sub_epi8(_mm512_sub_epi8(_mm512_loadu_si512(up_at + 1), u), two);
        __mmask64 later = _cvtu64_mask64(t > 1 ? ~0ULL >> (65 - t) : 0);
        if ((t && first > s.best) || _mm512_mask_cmpgt_epu8_mask(later, sep, best))
            break; /* a record: the group by words */
        uint32_t *seps = s.seps + s.twins - 1;
        if (t)
            seps[0] = (uint32_t)first;
        for (int64_t k = 0;; k += 16) {
            _mm512_mask_storeu_epi32(seps + 1 + k, (__mmask16)(_cvtmask64_u64(later) >> k),
                                     _mm512_cvtepu8_epi32(_mm512_castsi512_si128(sep)));
            if (k + 17 >= t)
                break;
            sep = _mm512_alignr_epi32(sep, sep, 4);
        }
        s.tw_last = t ? s.primes + up_at[t - 1] - 1 : s.tw_last;
        s.twins += t;
        s.primes += total;
        seen = i;
    }
    if (seen >= 0) { /* the last prime, in the last group that has one */
        int j = 7;
        while (!word(flags + seen + 8 * j))
            j--;
        s.last = value(v + 30 * seen + 240 * j, 63 - __builtin_clzll(word(flags + seen + 8 * j)));
    }
    *all = s;
    return i;
}
#endif

/* 1 when this CPU scans by groups (scan_avx512, with every feature in AVX512_SCAN), 0 when
 * by words */
int64_t twinsep_vector_scan(void)
{
#if defined(__x86_64__)
    return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
           __builtin_cpu_supports("avx512dq") && __builtin_cpu_supports("avx512vbmi") &&
           __builtin_cpu_supports("avx512vbmi2") && __builtin_cpu_supports("avx512bitalg") &&
           __builtin_cpu_supports("avx512vpopcntdq");
#else
    return 0;
#endif
}

/* scan a finished block of len bytes whose byte 0 starts at the integer v, vector groups first
 * when the CPU has them */
static HOT void scan(struct scan *s, const uint8_t *flags, int64_t len, int64_t v, int vector)
{
    for (int64_t i = 0, end; i < len; i = end) {
        end = len;
#if defined(__x86_64__)
        if (vector) {
            i = scan_avx512(s, flags, len, v, i);
            end = len - i < GROUP ? len : i + GROUP; /* one group by words, or the tail */
        }
#endif
        for (int64_t j = i; j < end; j += 8)
            scan_word(s, word(flags + j), v + 30 * j);
    }
    (void)vector;
}

int64_t twinsep_sieve_chunk(int64_t low, int64_t high, int64_t block,
                            const int64_t *base, int64_t nbase,
                            const int64_t *grid, int64_t ngrid,
                            uint32_t *seps, int64_t *recs, int64_t *rows, int64_t *out)
{
    int64_t w0 = low - low % 30, nbytes = (high - w0 + 29) / 30;
    int shift = __builtin_ctzll((uint64_t)block);
    /* base[k0..k1) are the middle primes, base[k1..k2) the large ones */
    int64_t k0 = 0, k1, k2, nblk = (nbytes + block - 1) >> shift;
    while (k0 < nbase && base[k0] <= PRESIEVE_LAST)
        k0++;
    for (k1 = k0; k1 < nbase && base[k1] < block && base[k1] * base[k1] < high; k1++)
        ;
    for (k2 = k1; k2 < nbase && base[k2] * base[k2] < high; k2++)
        ;
    /* working memory: a state per middle prime; a bucket per block and the page pool, which
     * holds every large progression with one page per bucket to spare (a page holds about the
     * entries of one block, so many small blocks stay cheap); the block, cut to the chunk (span
     * bytes), with `pad` bytes before it and pad + 8 after, pad the largest middle prime, or 8;
     * each pattern for one period, or for the chunk if that is shorter (lim bytes), and 8 more */
    int64_t nmid = k1 - k0, nlarge = 8 * (k2 - k1), span = block < nbytes ? block : nbytes;
    int64_t pad = nmid ? base[k1 - 1] : 8; /* >= 8: the scan reads the word before the block */
    int64_t cap = nlarge / nblk < PAGE_MAX ? nlarge / nblk + 8 : PAGE_MAX;
    int64_t stride = offsetof(struct page, h) + cap * sizeof(hit);
    int64_t npages = nlarge ? nlarge / cap + nblk + 2 : 0, period[NGROUP], lim[NGROUP], size = 0;
    for (int g = 0; g < NGROUP; g++) {
        period[g] = PRESIEVE[g][0] * PRESIEVE[g][1] * PRESIEVE[g][2];
        lim[g] = period[g] < nbytes ? period[g] : nbytes;
        size += lim[g] + 8;
    }
    struct mid *mid = malloc(sizeof(struct mid) * nmid + sizeof(struct bucket) * nblk +
                             stride * npages + pad + span + pad + 8 + size);
    if (!mid)
        return -1;
    struct buckets bk = {(struct bucket *)(mid + nmid), NULL, cap, shift + 3};
    uint8_t *pool = (uint8_t *)(bk.of + nblk), *flags = pool + stride * npages + pad;
    uint8_t *pat[NGROUP];
    int64_t at[NGROUP] = {0}; /* each pattern's byte at the next block */
    for (int g = 0; g < NGROUP; g++) {
        pat[g] = g ? pat[g - 1] + lim[g - 1] + 8 : flags + span + pad + 8;
        pattern(pat[g], w0 / 30 % period[g], lim[g] + 8, PRESIEVE[g]);
    }
    memset(bk.of, 0, sizeof(struct bucket) * nblk);
    for (int64_t i = npages - 1; i >= 0; i--) {
        struct page *pg = (struct page *)(pool + stride * i);
        pg->next = bk.spare;
        bk.spare = pg;
    }
    /* the middle primes by tier, those below SMALL_PRIME first, and within a tier by class:
     * group g = 8 * tier + bit_of(p % 30) is mid[cut[g] .. cut[g + 1]) */
    int64_t cut[17] = {0}, fill[16];
    for (int64_t k = k0; k < k1; k++)
        cut[8 * (base[k] >= SMALL_PRIME) + bit_of(base[k] % 30) + 1]++;
    for (int g = 0; g < 16; g++) {
        fill[g] = cut[g];
        cut[g + 1] += cut[g];
    }
    for (int64_t k = k0; k < k2; k++) {
        int64_t p = base[k], m0 = (low + p - 1) / p, i = 0;
        if (m0 < p)
            m0 = p;
        /* a middle prime starts at the period of m0; its hits below m0 are composites p*m,
         * m > 90, and those before byte 0 fall in the pad */
        if (k < k1) {
            struct mid e = {(int32_t)((m0 / 30 * 30 + 1) * p / 30 - w0 / 30), (uint32_t)(p / 30)};
            mid[fill[8 * (p >= SMALL_PRIME) + bit_of(p % 30)]++] = e;
            continue;
        }
        for (int r = m0 % 30; i < 8; i++) {
            int64_t byte = (p * (m0 + (R[i] - r + 30) % 30) - w0) / 30;
            if (byte < nbytes)
                file(&bk, (uint64_t)p << 32 | (uint64_t)byte << 3 | bit_of(p * R[i] % 30));
        }
    }

    struct scan s = {0, 0, 0, -1, -1, 0, -1, 0, 0, ngrid, grid, seps, recs, rows};
    int vector = twinsep_vector_scan();
    for (int64_t b0 = 0; b0 < nbytes; b0 += block) {
        int64_t len = nbytes - b0 < block ? nbytes - b0 : block;
        presieve(flags, len, pat, at, lim);
        /* the hits that the middle primes' last periods left past the previous block, read a
         * word at a time from the pad bytes after it, and 8 more that no hit reaches */
        for (int64_t j = 0; b0 && j < pad && j < len; j += 8) {
            uint64_t x = word(flags + j) & word(flags + block + j);
            memcpy(flags + j, &x, 8);
        }
        memset(flags + len, 0xff, pad + 8);
        if (b0 == 0) {
            for (int q = 0; q < 3 * NGROUP; q++) { /* they sit in bytes 0..3 */
                int64_t v = PRESIEVE[q / 3][q % 3];
                if (v > 1 && low <= v && v < high)
                    flags[(v - w0) / 30] |= 1 << bit_of(v % 30);
            }
            flags[0] &= ~bits_below(low - w0);
        }
        if (b0 + len == nbytes)
            flags[len - 1] &= bits_below(high - w0 - 30 * (nbytes - 1));
        for (int64_t sb = 0; sb < len; sb += SUB_BLOCK) /* the small primes, in L1 */
            cross(flags + sb, b0 + sb, len - sb < SUB_BLOCK ? len - sb : SUB_BLOCK, mid, cut);
        cross(flags, b0, len, mid, cut + 8);
        if (b0 + len == nbytes)
            memset(flags + len, 0, 8); /* the scan reads the last word whole */
        if (nlarge)
            drain(&bk, flags, b0, nbytes);
        uint64_t before = (uint64_t)(s.last == w0 + 30 * b0 - 1) << 63; /* the integer before */
        memcpy(flags - 8, &before, 8);
        scan(&s, flags, len, w0 + 30 * b0, vector);
    }
    while (s.g < ngrid)
        row(&s);
    int64_t res[6] = {s.primes, s.twins, s.tw_low, s.tw_first, s.tw_last, s.nrec};
    memcpy(out, res, sizeof res);
    free(mid);
    return 0;
}

/* Philox4x64-10 (Salmon, Moraes, Dror and Shaw, "Parallel random numbers: as easy as 1, 2, 3",
 * SC'11), as numpy's Philox bit generator runs it: before each block of 4 words the 256-bit
 * counter is incremented, word 0 first with a carry into words 1..3, and the block is
 * 10 rounds of the counter under a key bumped between rounds.  Generator.random maps
 * each word w to the double (w >> 11) * 2**-53, in block order and word order within a
 * block.  twinsep_philox_fill writes f times doubles first .. first + n - 1 of that stream
 * from a state whose buffer is spent (buffer_pos 4, as in a fresh Philox(seed)); its key
 * and counter are numpy's state["key"] and state["counter"].  Each product is one IEEE
 * multiply: f = 1 gives the doubles themselves, f = -1 their negations, and since rounding
 * is symmetric in sign, f = -s gives exactly -(s * u) for each double u.  Every block
 * depends on its counter alone, so with AVX-512F/DQ (chosen at run time by CPU feature, so
 * the build needs no -march) 16 counters run at once, 8 per vector; the scalar path takes
 * the head and tail of the range, a group of 16 whose counter word 0 would wrap, and other
 * CPUs.  Both paths give the same doubles.
 */
#define PHILOX_M0 0xD2E7470EE14C6C93ULL
#define PHILOX_M1 0xCA5A826395121157ULL
#define PHILOX_W0 0x9E3779B97F4A7C15ULL
#define PHILOX_W1 0xBB67AE8584CAA73BULL
#define PHILOX_LANES 16 /* counters per vector step: two vectors of 8 */

static void advance(uint64_t *c, uint64_t k) /* the 256-bit counter c += k */
{
    for (int i = 0; i < 4 && k; i++) {
        c[i] += k;
        k = c[i] < k;
    }
}

static double unit(uint64_t w)
{
    return (double)(w >> 11) * (1.0 / 9007199254740992.0);
}

/* the block of counter c, as doubles times f */
static void philox_block(const uint64_t *key, const uint64_t *c, double f, double *d)
{
    uint64_t x0 = c[0], x1 = c[1], x2 = c[2], x3 = c[3], k0 = key[0], k1 = key[1];
    for (int r = 0; r < 10; r++, k0 += PHILOX_W0, k1 += PHILOX_W1) {
        unsigned __int128 p0 = (unsigned __int128)PHILOX_M0 * x0;
        unsigned __int128 p1 = (unsigned __int128)PHILOX_M1 * x2;
        x2 = (uint64_t)(p0 >> 64) ^ x3 ^ k1;
        x0 = (uint64_t)(p1 >> 64) ^ x1 ^ k0;
        x1 = (uint64_t)p1;
        x3 = (uint64_t)p0;
    }
    d[0] = f * unit(x0), d[1] = f * unit(x1), d[2] = f * unit(x2), d[3] = f * unit(x3);
}

#if defined(__x86_64__)
#define AVX512 __attribute__((target("avx512f,avx512dq")))

/* hi:lo = a * m per 64-bit lane, from four 32 x 32-bit products */
static inline AVX512 __m512i mulhilo(__m512i a, __m512i mlo, __m512i mhi, __m512i *lo)
{
    const __m512i low = _mm512_set1_epi64(0xffffffff);
    __m512i ah = _mm512_srli_epi64(a, 32);
    __m512i ll = _mm512_mul_epu32(a, mlo), lh = _mm512_mul_epu32(a, mhi);
    __m512i hl = _mm512_mul_epu32(ah, mlo), hh = _mm512_mul_epu32(ah, mhi);
    __m512i t = _mm512_add_epi64(hl, _mm512_srli_epi64(ll, 32));   /* < 2**64 */
    __m512i u = _mm512_add_epi64(lh, _mm512_and_si512(t, low));     /* < 2**64 */
    *lo = _mm512_mask_blend_epi32(0xaaaa, ll, _mm512_slli_epi64(u, 32));
    return _mm512_add_epi64(_mm512_add_epi64(hh, _mm512_srli_epi64(t, 32)),
                            _mm512_srli_epi64(u, 32));
}

/* one round of 8 counters, x[w] holding word w of each */
static inline AVX512 void round8(__m512i *x, __m512i k0, __m512i k1)
{
    const __m512i m0lo = _mm512_set1_epi64(PHILOX_M0 & 0xffffffff);
    const __m512i m0hi = _mm512_set1_epi64(PHILOX_M0 >> 32);
    const __m512i m1lo = _mm512_set1_epi64(PHILOX_M1 & 0xffffffff);
    const __m512i m1hi = _mm512_set1_epi64(PHILOX_M1 >> 32);
    __m512i lo0, lo1, hi0 = mulhilo(x[0], m0lo, m0hi, &lo0), hi1 = mulhilo(x[2], m1lo, m1hi, &lo1);
    x[0] = _mm512_ternarylogic_epi64(hi1, x[1], k0, 0x96); /* a ^ b ^ c */
    x[2] = _mm512_ternarylogic_epi64(hi0, x[3], k1, 0x96);
    x[1] = lo1;
    x[3] = lo0;
}

static inline AVX512 __m512d unit8(__m512i w) /* unit() per lane */
{
    return _mm512_mul_pd(_mm512_cvtepu64_pd(_mm512_srli_epi64(w, 11)),
                         _mm512_set1_pd(1.0 / 9007199254740992.0));
}

/* store the 8 blocks of x, as doubles times f in block order, at out[0..32) */
static inline AVX512 void store8(const __m512i *x, __m512d f, double *out)
{
    __m512d d0 = _mm512_mul_pd(unit8(x[0]), f), d1 = _mm512_mul_pd(unit8(x[1]), f);
    __m512d d2 = _mm512_mul_pd(unit8(x[2]), f), d3 = _mm512_mul_pd(unit8(x[3]), f);
    /* transpose: with (c, w) the word w of lane c, a = (c,0)(c,1) and b = (c,2)(c,3) pair up */
    __m512d a02 = _mm512_unpacklo_pd(d0, d1), a13 = _mm512_unpackhi_pd(d0, d1);
    __m512d b02 = _mm512_unpacklo_pd(d2, d3), b13 = _mm512_unpackhi_pd(d2, d3);
    __m512d lo02 = _mm512_shuffle_f64x2(a02, b02, 0x44);
    __m512d lo13 = _mm512_shuffle_f64x2(a13, b13, 0x44);
    __m512d hi02 = _mm512_shuffle_f64x2(a02, b02, 0xee);
    __m512d hi13 = _mm512_shuffle_f64x2(a13, b13, 0xee);
    _mm512_storeu_pd(out, _mm512_shuffle_f64x2(lo02, lo13, 0x88));
    _mm512_storeu_pd(out + 8, _mm512_shuffle_f64x2(lo02, lo13, 0xdd));
    _mm512_storeu_pd(out + 16, _mm512_shuffle_f64x2(hi02, hi13, 0x88));
    _mm512_storeu_pd(out + 24, _mm512_shuffle_f64x2(hi02, hi13, 0xdd));
}

/* whole blocks from counter c on, times f, into out[0..4 * nblk), advancing c; a group of 16
 * whose word 0 would wrap is left to the scalar path */
static HOT AVX512 void philox_avx512(const uint64_t *key, uint64_t *c, int64_t nblk, double f,
                                     double *out)
{
    const __m512i lane = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
    const __m512d fv = _mm512_set1_pd(f);
    for (; nblk >= PHILOX_LANES; nblk -= PHILOX_LANES, out += 4 * PHILOX_LANES) {
        if (c[0] > UINT64_MAX - (PHILOX_LANES - 1)) {
            for (int b = 0; b < PHILOX_LANES; b++, advance(c, 1))
                philox_block(key, c, f, out + 4 * b);
            continue;
        }
        __m512i x[4], y[4];
        x[0] = _mm512_add_epi64(_mm512_set1_epi64((int64_t)c[0]), lane);
        y[0] = _mm512_add_epi64(x[0], _mm512_set1_epi64(8));
        for (int w = 1; w < 4; w++)
            x[w] = y[w] = _mm512_set1_epi64((int64_t)c[w]);
        uint64_t k0 = key[0], k1 = key[1];
        for (int r = 0; r < 10; r++, k0 += PHILOX_W0, k1 += PHILOX_W1) {
            __m512i v0 = _mm512_set1_epi64((int64_t)k0), v1 = _mm512_set1_epi64((int64_t)k1);
            round8(x, v0, v1);
            round8(y, v0, v1);
        }
        store8(x, fv, out);
        store8(y, fv, out + 32);
        advance(c, PHILOX_LANES);
    }
}
#endif

void twinsep_philox_fill(const uint64_t *key, const uint64_t *counter, int64_t first, int64_t n,
                         double f, double *out)
{
    uint64_t c[4] = {counter[0], counter[1], counter[2], counter[3]};
    double d[4];
    int64_t i = 0, skip = first % 4;
    advance(c, (uint64_t)(first / 4) + 1); /* the counter of the block of draw first */
    if (skip) {
        philox_block(key, c, f, d);
        for (; skip < 4 && i < n; skip++)
            out[i++] = d[skip];
        advance(c, 1);
    }
#if defined(__x86_64__)
    if (n - i >= 4 * PHILOX_LANES && __builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512dq")) {
        int64_t nblk = (n - i) / (4 * PHILOX_LANES) * PHILOX_LANES;
        philox_avx512(key, c, nblk, f, out + i);
        i += 4 * nblk;
    }
#endif
    for (; i < n; advance(c, 1)) {
        philox_block(key, c, f, d);
        for (int w = 0; w < 4 && i < n; w++)
            out[i++] = d[w];
    }
}

/* The sampler's draws: twinsep_geometric writes, for first <= i < n, out[i] = min(floor(y_i),
 * m) with y_i = log1p(v_i) / lnq and v_i = f * u_i, u_i the double i of the Philox stream
 * above.  The caller passes f = -s with s in (0, 1], lnq = log(q) < 0 and m an integer >= 0,
 * or +inf for no cap.  The draws are fused: twinsep_philox_fill writes GEO_BATCH of the v_i
 * at a time into a buffer on the stack, and they are transformed from there, 8 at a time
 * with AVX-512F/DQ (chosen at run time); the scalar path takes the rest and other CPUs.
 * Neither divides nor calls libm.
 *
 * Each y_i is approximated, not taken from numpy's log1p, and a certificate proves its floor:
 * a draw is settled only when its approximation y' lies farther than T * y' (T = 2**-26) from
 * every integer.  Every other draw is left pending: out[i] holds the bits of its v_i, for the
 * caller to finish with numpy's log1p, division, floor and minimum.  v_i <= -0.0 has its sign
 * bit set, so a pending slot reads as a negative int64, and a settled one holds a draw >= 0.
 * It returns the number of pending draws.  A quotient of 0 (v = -0.0) is never settled, nor
 * is any draw once T * y' >= 1/2 (y' >= 2**25: from s0 of about 1e7 on, nearly every draw is
 * pending), so a settled draw is in range of the cast.
 *
 * The approximation (in doubles), with v in (-1, 0]:
 *   u1 = 1 + v, rounded, and c = v - (u1 - 1), exact (Sterbenz), so 1 + v = u1 + c exactly;
 *     c = 0 unless v > -1/2, where u1 is in [1/2, 1];
 *   u1 = 2**e * x with x in [1, 2) (its exponent and mantissa), so e is -1 or 0 wherever
 *     c != 0, and 2**-e * c = (1 - e) * c;
 *   j = round(15 x), 15 <= j <= 30, and r = (x + (1 - e) * c) * 15 / j - 1, |r| <= 1/30:
 *     log1p(v) = e ln 2 + log(j / 15) + log1p(r).  GEO_C and GEO_L hold 15 / j and
 *     log(j / 15) at slot j mod 16; at j = 15 they are exactly 1 and 0, and at j = 30
 *     exactly 1/2 and the double LN2, so around u1 = 1 (e = 0, j = 15, or e = -1, j = 30)
 *     e ln 2 + log(j / 15) is exactly 0 and r exactly u1 - 1 before c is added;
 *   log1p(r) by its Taylor polynomial of degree 7, and y' = the sum times 1 / lnq.
 * The error, relative to y = log1p(v) / lnq: the Taylor remainder is below |r|**8 / 7.7 <=
 * 2**-42.2 absolutely, and |log1p(v)| > log(30 / 29.5) > 2**-5.9 except around u1 = 1, where
 * |r| <= 1/60 and the remainder is below |r|**7 / 7.7 < 2**-44 relatively; so at most
 * 2**-36.3.  Rounding the table, r, the polynomial, e ln 2 + log(j / 15) (which cancels at
 * most 42-fold) and the two multiplies adds under 2**-45.  So |y' - y| < 2**-36.2 y (2**-41.7
 * was the worst seen, against a long-double log1p over 3e7 draws on each path).  numpy's
 * quotient fl(fl(log1p(v)) / lnq) is within 2**-51 y when its log1p is within 2 ulps (it was
 * within 2**-52.8 relatively over the same draws, and gives a value the same result wherever
 * it sits in an array).  A settled y' is thus farther than T * y' > 2**10 |y' - y_numpy| from
 * every integer, so floor(y') is numpy's floor, and the draws are numpy's whichever path ran.
 * A subnormal y' < 1 is no exception: numpy's quotient is then also in [0, 1).
 */
#define GEO_T 0x1p-26
#define GEO_BATCH 512 /* draws per fill: 4 KB of the stack, in L1 */
#define LN2 0.6931471805599453

/* 15 / j and log(j / 15) at slot j mod 16, for j = 15 .. 30 */
static const double GEO_C[16] = {15.0 / 16, 15.0 / 17, 15.0 / 18, 15.0 / 19, 15.0 / 20, 15.0 / 21,
                                 15.0 / 22, 15.0 / 23, 15.0 / 24, 15.0 / 25, 15.0 / 26, 15.0 / 27,
                                 15.0 / 28, 15.0 / 29, 0.5,       1.0};
static const double GEO_L[16] = {
    0.06453852113757116, 0.125163142954006,   0.1823215567939546,  0.23638877806423034,
    0.28768207245178085, 0.3364722366212129,  0.3829922522561057,  0.42744401482693967,
    0.47000362924573563, 0.5108256237659907,  0.550046336919272,   0.5877866649021191,
    0.6241543090729939,  0.659245628884264,   LN2,                 0.0};

static double from_bits(uint64_t b)
{
    double x;
    memcpy(&x, &b, 8);
    return x;
}

/* the draw of v, or -1 when the certificate leaves it pending */
static int64_t geometric1(double v, double inv_lnq, double m)
{
    double u1 = 1.0 + v, c = v - (u1 - 1.0);
    uint64_t b;
    memcpy(&b, &u1, 8); /* u1 >= 2**-53 is normal and positive */
    double e = (double)((int64_t)(b >> 52) - 1023);
    double x = from_bits((b & 0xfffffffffffffULL) | 0x3ff0000000000000ULL);
    int j = (int)(x * 15.0 + 0.5) & 15;
    double r = (x * GEO_C[j] - 1.0) + (1.0 - e) * c * GEO_C[j];
    double p = ((((1.0 / 7 * r - 1.0 / 6) * r + 1.0 / 5) * r - 1.0 / 4) * r + 1.0 / 3) * r - 0.5;
    double y = ((e * LN2 + GEO_L[j]) + (r + r * r * p)) * inv_lnq;
    double tol = y * GEO_T;
    if (!(tol < 0.5)) /* also a NaN */
        return -1;
    int64_t k = (int64_t)y; /* y >= 0, so its floor */
    double frac = y - (double)k;
    if (!((frac < 0.5 ? frac : 1.0 - frac) > tol))
        return -1;
    return (double)k < m ? k : (int64_t)m;
}

#if defined(__x86_64__)
/* draws 0 .. n - 1 from v[0..n) into out, 8 at a time, up to n rounded down to a multiple of
 * 8; returns how many of them it left pending */
static HOT AVX512 int64_t geometric_avx512(const double *v, int64_t n, double inv_lnq, double m,
                                           int64_t *out)
{
    const __m512d one = _mm512_set1_pd(1.0), inv = _mm512_set1_pd(inv_lnq);
    const __m512d cap = _mm512_set1_pd(m), t = _mm512_set1_pd(GEO_T);
    const __m512d c_lo = _mm512_loadu_pd(GEO_C), c_hi = _mm512_loadu_pd(GEO_C + 8);
    const __m512d l_lo = _mm512_loadu_pd(GEO_L), l_hi = _mm512_loadu_pd(GEO_L + 8);
    int64_t npend = 0;
    for (int64_t i = 0; i + 8 <= n; i += 8) {
        __m512d vi = _mm512_loadu_pd(v + i);
        __m512d u1 = _mm512_add_pd(one, vi);
        __m512d c = _mm512_sub_pd(vi, _mm512_sub_pd(u1, one));
        __m512d e = _mm512_getexp_pd(u1);
        __m512d x = _mm512_getmant_pd(u1, _MM_MANT_NORM_1_2, _MM_MANT_SIGN_src);
        /* the low 4 bits of 15 x + 2**52, rounded once, are round(15 x) mod 16 */
        __m512i j = _mm512_castpd_si512(
            _mm512_fmadd_pd(x, _mm512_set1_pd(15.0), _mm512_set1_pd(0x1p52)));
        __m512d cj = _mm512_permutex2var_pd(c_lo, j, c_hi);
        __m512d r = _mm512_fmadd_pd(_mm512_fnmadd_pd(c, e, c), cj, _mm512_fmsub_pd(x, cj, one));
        __m512d p = _mm512_fmadd_pd(_mm512_set1_pd(1.0 / 7), r, _mm512_set1_pd(-1.0 / 6));
        p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(1.0 / 5));
        p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(-1.0 / 4));
        p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(1.0 / 3));
        p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(-0.5));
        p = _mm512_fmadd_pd(_mm512_mul_pd(r, r), p, r);
        __m512d lg = _mm512_fmadd_pd(e, _mm512_set1_pd(LN2), _mm512_permutex2var_pd(l_lo, j, l_hi));
        __m512d y = _mm512_mul_pd(_mm512_add_pd(lg, p), inv);
        /* pending: not |y - round(y)| > T * y, so a NaN is pending too */
        __m512d near = _mm512_abs_pd(_mm512_reduce_pd(y, _MM_FROUND_TO_NEAREST_INT));
        __mmask8 pend = _mm512_cmp_pd_mask(near, _mm512_mul_pd(y, t), _CMP_NGT_UQ);
        /* y >= 0 and m is an integer, so truncating min(y, m) floors it and caps it */
        _mm512_storeu_si512(out + i, _mm512_cvttpd_epi64(_mm512_min_pd(y, cap)));
        _mm512_mask_storeu_epi64(out + i, pend, _mm512_castpd_si512(vi));
        npend += __builtin_popcount(pend);
    }
    return npend;
}
#endif

int64_t twinsep_geometric(const uint64_t *key, const uint64_t *counter, int64_t first, int64_t n,
                          double f, double lnq, double m, int64_t *out)
{
    double inv_lnq = 1.0 / lnq, v[GEO_BATCH];
#if defined(__x86_64__)
    int vector = __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq");
#endif
    int64_t npend = 0;
    for (int64_t at = first; at < n; at += GEO_BATCH) {
        int64_t len = n - at < GEO_BATCH ? n - at : GEO_BATCH, i = 0;
        twinsep_philox_fill(key, counter, at, len, f, v);
#if defined(__x86_64__)
        if (vector) {
            npend += geometric_avx512(v, len, inv_lnq, m, out + at);
            i = len - len % 8;
        }
#endif
        for (; i < len; i++)
            if ((out[at + i] = geometric1(v[i], inv_lnq, m)) < 0) {
                memcpy(out + at + i, v + i, 8);
                npend++;
            }
    }
    return npend;
}

/* Spectra: twinsep_histogram counts a piece x[lo..hi) of a stream of int64 (width 8) or
 * uint32 (width 4) values into the rows of table, each twinsep_histogram_cap (SUB_TOP)
 * entries: row r takes the piece's values at or above ends[r - 1] and below ends[r] (ends
 * ascending, hi at most the last), so one call counts every row the piece overlaps.  When
 * every value lies in [0, SUB_TOP), it adds the count of each value v of row r to
 * table[r * SUB_TOP + v] and returns top, the greatest value plus one (0 for an empty piece).
 * Otherwise it returns -1 and the caller counts; the rows before the one that held the value
 * may already have been counted into.  Each row's part takes one pass: each value v is
 * counted as v & (SUB_TOP - 1) into SUB interleaved sub-tables, element i into
 * sub[v * SUB + i % SUB], so that a run of one value (the geometric law's s = 0) does not
 * wait on its own last increment, and the values are ORed together; an OR below SUB_TOP
 * shows that every value lay in [0, SUB_TOP) (a negative int64 reads as 2**63 or more), so
 * the sub-tables hold the row's histogram, and every value lies below the power of two above
 * the OR's top bit, so only the bins below it are added into the row and zeroed for the next
 * row.  The sub-tables are a fixed 32 KB on the stack, zeroed once a call.  The pass is
 * inlined once per width, so its loop reads one fixed type.
 */
#define SUB 4
#define SUB_TOP 1024 /* a power of two */

const int64_t twinsep_histogram_cap = SUB_TOP;

INLINE uint64_t at(const void *x, int width, int64_t i) /* a negative int64 is 2**63 or more */
{
    return width == 8 ? (uint64_t)((const int64_t *)x)[i] : ((const uint32_t *)x)[i];
}

INLINE int64_t histogram(const void *x, int width, int64_t lo, int64_t hi, const int64_t *ends,
                         int64_t *table)
{
    int64_t sub[SUB * SUB_TOP] = {0}, most = 0, i = lo;
    for (int64_t *row = table; i < hi; row += SUB_TOP, ends++) {
        int64_t end = *ends < hi ? *ends : hi;
        uint64_t any = 0;
        for (; i + SUB <= end; i += SUB) { /* written out: gcc -O2 keeps a loop over k */
            uint64_t v0 = at(x, width, i), v1 = at(x, width, i + 1);
            uint64_t v2 = at(x, width, i + 2), v3 = at(x, width, i + 3);
            any |= v0 | v1 | v2 | v3;
            sub[(v0 & (SUB_TOP - 1)) * SUB]++;
            sub[(v1 & (SUB_TOP - 1)) * SUB + 1]++;
            sub[(v2 & (SUB_TOP - 1)) * SUB + 2]++;
            sub[(v3 & (SUB_TOP - 1)) * SUB + 3]++;
        }
        for (; i < end; i++) {
            any |= at(x, width, i);
            sub[(at(x, width, i) & (SUB_TOP - 1)) * SUB]++;
        }
        if (any >= SUB_TOP)
            return -1;
        int64_t top = (int64_t)2 << (63 - __builtin_clzll(any | 1)); /* above every value */
        for (int64_t v = 0; v < top; v++) {
            int64_t c = 0;
            for (int k = 0; k < SUB; k++) {
                c += sub[SUB * v + k];
                sub[SUB * v + k] = 0;
            }
            row[v] += c;
            most = c && v >= most ? v + 1 : most;
        }
    }
    return most;
}

int64_t twinsep_histogram(const void *x, int64_t lo, int64_t hi, int64_t width,
                          const int64_t *ends, int64_t *table)
{
    return width == 8 ? histogram(x, 8, lo, hi, ends, table) : histogram(x, 4, lo, hi, ends, table);
}
