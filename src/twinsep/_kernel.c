/* twinsep's compiled kernel.  Its entry points: twinsep_sieve_chunk, the fused twin sieve
 * below; for the Monte Carlo sampler, twinsep_philox_fill, its scaled uniforms, and
 * twinsep_geometric, its draws from them in one pass; and twinsep_histogram, for spectra,
 * with the size of its table, twinsep_histogram_cap (all at the end).
 *
 * Fused twin kernel: sieve one chunk [low, high) and summarise it.
 *
 * Wheel: one byte covers 30 integers, bits 0..7 <-> residues 1, 7, 11, 13,
 * 17, 19, 23, 29 (mod 30).  Byte 0 starts at low - low % 30; bits below low
 * and at or above high are clear.  The bytes are sieved in blocks of
 * `block` bytes, a power of two from 8 to 2**28.  A prime p crosses p*m, m
 * coprime to 30, as 8 progressions, one per residue of m mod 30: each is a
 * stride-p byte progression with a fixed bit.  The primes fall in three
 * tiers:
 *   presieve  7..97: a block starts as the AND, one 64-bit word at a time,
 *             of eight byte patterns built once per call, each periodic in
 *             the product of one group of PRESIEVE (7387 to 33611 bytes);
 *             the presieved primes in range are then set back;
 *   middle    base primes 97 < p < block: each progression crosses the
 *             block in a stride-p loop, from max(p*p, low) on, and carries
 *             its next byte to the next block;
 *   large     base primes p >= block, whose progressions hit a block at
 *             most once: a bucket sieve (Oliveira e Silva, Herzog and
 *             Pardi, Math. Comp. 83, 2014).  Each progression waits in the
 *             bucket of the block it hits next; each block drains only its
 *             own bucket and files every entry again in the bucket of its
 *             next hit, or drops it past the chunk.  A bucket is a chain of
 *             pages drawn from one pool, and a drained page is reused.
 * A scan over each finished block, one 64-bit word (240 integers) at a
 * time, counts primes with popcount and finds twins alone: lower members
 * sit at bits 2, 4, 7 of a byte (11, 17, 29 mod 30), so the word's own
 * twins are x & x >> 1 & TWIN_LOWER, and one more spans the previous
 * word when its bit 63 and this word's bit 0 are both primes.  Only a word
 * that reaches a checkpoint walks every prime.  The scan emits the fields
 * of a ChunkSummary directly, so the caller allocates only the outputs:
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

/* cross the middle progressions into the block of len bytes at chunk byte b0 */
static HOT void cross(uint8_t *flags, int64_t b0, int64_t len, int64_t *next, const uint8_t *mask,
                      const int64_t *p, int64_t n)
{
    for (int64_t k = 0; k < n; k++) {
        int64_t j = next[k] - b0, step = p[k / 8];
        uint8_t m = mask[k];
        for (; j < len; j += step)
            flags[j] &= m;
        next[k] = b0 + j;
    }
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

static void twin(struct scan *s, int64_t lower, int64_t index)
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

/* scan a finished block of len bytes whose byte 0 starts at the integer v */
static HOT void scan(struct scan *s, const uint8_t *flags, int64_t len, int64_t v)
{
    for (int64_t i = 0; i < len; i += 8) {
        uint64_t x, y;
        memcpy(&x, flags + i, 8);
        if (!x)
            continue;
        int64_t v0 = v + 30 * i;
        uint64_t lower = x & x >> 1 & TWIN_LOWER;
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
    /* working memory: per middle progression its next byte and bit mask; a bucket per block
     * and the page pool, which holds every large progression with one page per bucket to
     * spare (a page holds about the entries of one block, so many small blocks stay cheap);
     * the block, cut to the chunk (span bytes, 8 of padding); each pattern for one period, or
     * for the chunk if that is shorter (lim bytes), and 8 more */
    int64_t nmid = 8 * (k1 - k0), nlarge = 8 * (k2 - k1), span = block < nbytes ? block : nbytes;
    int64_t cap = nlarge / nblk < PAGE_MAX ? nlarge / nblk + 8 : PAGE_MAX;
    int64_t stride = offsetof(struct page, h) + cap * sizeof(hit);
    int64_t npages = nlarge ? nlarge / cap + nblk + 2 : 0, period[NGROUP], lim[NGROUP], size = 0;
    for (int g = 0; g < NGROUP; g++) {
        period[g] = PRESIEVE[g][0] * PRESIEVE[g][1] * PRESIEVE[g][2];
        lim[g] = period[g] < nbytes ? period[g] : nbytes;
        size += lim[g] + 8;
    }
    int64_t *next = malloc(9 * nmid + sizeof(struct bucket) * nblk + stride * npages + span + 8 +
                           size);
    if (!next)
        return -1;
    struct buckets bk = {(struct bucket *)(next + nmid), NULL, cap, shift + 3};
    uint8_t *pool = (uint8_t *)(bk.of + nblk), *mask = pool + stride * npages;
    uint8_t *flags = mask + nmid, *pat[NGROUP];
    int64_t at[NGROUP] = {0}; /* each pattern's byte at the next block */
    for (int g = 0; g < NGROUP; g++) {
        pat[g] = g ? pat[g - 1] + lim[g - 1] + 8 : flags + span + 8;
        pattern(pat[g], w0 / 30 % period[g], lim[g] + 8, PRESIEVE[g]);
    }
    memset(bk.of, 0, sizeof(struct bucket) * nblk);
    for (int64_t i = npages - 1; i >= 0; i--) {
        struct page *pg = (struct page *)(pool + stride * i);
        pg->next = bk.spare;
        bk.spare = pg;
    }
    for (int64_t k = k0; k < k2; k++) {
        int64_t p = base[k], m0 = (low + p - 1) / p, i = 0;
        if (m0 < p)
            m0 = p;
        for (int r = m0 % 30; i < 8; i++) {
            int64_t byte = (p * (m0 + (R[i] - r + 30) % 30) - w0) / 30;
            if (k < k1) {
                next[8 * (k - k0) + i] = byte;
                mask[8 * (k - k0) + i] = (uint8_t)~(1 << bit_of(p * R[i] % 30));
            } else if (byte < nbytes)
                file(&bk, (uint64_t)p << 32 | (uint64_t)byte << 3 | bit_of(p * R[i] % 30));
        }
    }

    struct scan s = {0, 0, 0, -1, -1, 0, -1, 0, 0, ngrid, grid, seps, recs, rows};
    for (int64_t b0 = 0; b0 < nbytes; b0 += block) {
        int64_t len = nbytes - b0 < block ? nbytes - b0 : block;
        presieve(flags, len, pat, at, lim);
        memset(flags + len, 0, 8); /* zero-padded to a whole word */
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
        cross(flags, b0, len, next, mask, base + k0, nmid);
        if (nlarge)
            drain(&bk, flags, b0, nbytes);
        scan(&s, flags, len, w0 + 30 * b0);
    }
    while (s.g < ngrid)
        row(&s);
    int64_t res[6] = {s.primes, s.twins, s.tw_low, s.tw_first, s.tw_last, s.nrec};
    memcpy(out, res, sizeof res);
    free(next);
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

/* The sampler's draws: twinsep_geometric writes, for i < n, out[i] = min(floor(y_i), m) with
 * y_i = log1p(v_i) / lnq and v_i = f * u_i, u_i the double first + i of the Philox stream
 * above.  The caller passes f = -s with s in (0, 1], lnq = log(q) < 0 and m an integer >= 0,
 * or +inf for no cap.  The draws are fused: twinsep_philox_fill writes GEO_BATCH of the v_i
 * at a time into a buffer on the stack, and they are transformed from there, 8 at a time
 * with AVX-512F/DQ (chosen at run time); the scalar path takes the rest and other CPUs.
 * Neither divides nor calls libm.
 *
 * Each y_i is approximated, not taken from numpy's log1p, and a certificate proves its floor:
 * a draw is settled only when its approximation y' lies farther than T * y' (T = 2**-26) from
 * every integer.  Every other draw is left pending: twinsep_geometric returns their number k
 * and writes, for each, its index in out to pend_idx[0..k) and its v to pend_v[0..k), for
 * the caller to finish with numpy's log1p, division, floor and minimum; out[] at a pending
 * index is unspecified.  A quotient of 0 (v = -0.0) is never settled, nor is any draw once
 * T * y' >= 1/2 (y' >= 2**25: from s0 of about 1e7 on, nearly every draw is pending), so a
 * settled draw is in range of the cast.
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

struct draws { /* where the draws go: out[i], or the pending list */
    double inv_lnq, m;
    int64_t *out, *pend_idx, npend;
    double *pend_v;
};

static void draw(struct draws *g, int64_t i, double v) /* draw i from v */
{
    if ((g->out[i] = geometric1(v, g->inv_lnq, g->m)) < 0) {
        g->pend_idx[g->npend] = i;
        g->pend_v[g->npend++] = v;
    }
}

#if defined(__x86_64__)
/* draws at .. at + n - 1 from v[0..n), 8 at a time; returns how many it made (n rounded down
 * to a multiple of 8) */
static HOT AVX512 int64_t geometric_avx512(const double *v, int64_t n, struct draws *g,
                                           int64_t at)
{
    const __m512d one = _mm512_set1_pd(1.0), inv = _mm512_set1_pd(g->inv_lnq);
    const __m512d cap = _mm512_set1_pd(g->m), t = _mm512_set1_pd(GEO_T);
    const __m512d c_lo = _mm512_loadu_pd(GEO_C), c_hi = _mm512_loadu_pd(GEO_C + 8);
    const __m512d l_lo = _mm512_loadu_pd(GEO_L), l_hi = _mm512_loadu_pd(GEO_L + 8);
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
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
        _mm512_storeu_si512(g->out + at + i, _mm512_cvttpd_epi64(_mm512_min_pd(y, cap)));
        for (; pend; pend &= pend - 1) {
            int lane = __builtin_ctz(pend);
            g->pend_idx[g->npend] = at + i + lane;
            g->pend_v[g->npend++] = v[i + lane];
        }
    }
    return i;
}
#endif

int64_t twinsep_geometric(const uint64_t *key, const uint64_t *counter, int64_t first, int64_t n,
                          double f, double lnq, double m, int64_t *out, int64_t *pend_idx,
                          double *pend_v)
{
    struct draws g = {1.0 / lnq, m, out, pend_idx, 0, pend_v};
    double v[GEO_BATCH];
#if defined(__x86_64__)
    int vector = __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq");
#endif
    for (int64_t at = 0; at < n; at += GEO_BATCH) {
        int64_t len = n - at < GEO_BATCH ? n - at : GEO_BATCH, i = 0;
        twinsep_philox_fill(key, counter, first + at, len, f, v);
#if defined(__x86_64__)
        if (vector)
            i = geometric_avx512(v, len, &g, at);
#endif
        for (; i < len; i++)
            draw(&g, at + i, v[i]);
    }
    return g.npend;
}

/* Spectra: twinsep_histogram histograms a stream x[0..n) of int64 (width 8) or uint32
 * (width 4) values.  It returns -1 when some value is negative, and otherwise top, the
 * greatest value plus one (0 when n = 0; INT64_MAX for a value INT64_MAX).  counts holds
 * twinsep_histogram_cap (SUB_TOP) entries; when top <= SUB_TOP it has also added the count of
 * each value v to counts[v], and otherwise it leaves counts as they were.  It takes one
 * pass: each value v is counted as v & (SUB_TOP - 1) into SUB interleaved sub-tables,
 * element i into sub[v * SUB + i % SUB], so that a run of one value (the geometric law's
 * s = 0) does not wait on its own last increment, and the values are ORed together; an OR
 * below SUB_TOP shows that every value lay in [0, SUB_TOP), so the sub-tables hold the
 * histogram.  The sub-tables are a fixed 32 KB on the stack.  Otherwise (a negative int64
 * reads as 2**63 or more) a scalar pass finds the least and greatest value, and the caller
 * counts.  The pass is inlined once per width, so its loop reads one fixed type.
 */
#define SUB 4
#define SUB_TOP 1024 /* a power of two */
#define INLINE static inline __attribute__((always_inline))

const int64_t twinsep_histogram_cap = SUB_TOP;

INLINE uint64_t at(const void *x, int width, int64_t i) /* a negative int64 is 2**63 or more */
{
    return width == 8 ? (uint64_t)((const int64_t *)x)[i] : ((const uint32_t *)x)[i];
}

INLINE int64_t bin(const int64_t *sub, int64_t v) /* the count of v over the sub-tables */
{
    int64_t c = 0;
    for (int k = 0; k < SUB; k++)
        c += sub[SUB * v + k];
    return c;
}

INLINE int64_t histogram(const void *x, int64_t n, int width, int64_t *counts)
{
    int64_t sub[SUB * SUB_TOP] = {0}, i = 0;
    uint64_t any = 0;
    for (; i + SUB <= n; i += SUB) { /* written out: gcc -O2 keeps a loop over k */
        uint64_t v0 = at(x, width, i), v1 = at(x, width, i + 1);
        uint64_t v2 = at(x, width, i + 2), v3 = at(x, width, i + 3);
        any |= v0 | v1 | v2 | v3;
        sub[(v0 & (SUB_TOP - 1)) * SUB]++;
        sub[(v1 & (SUB_TOP - 1)) * SUB + 1]++;
        sub[(v2 & (SUB_TOP - 1)) * SUB + 2]++;
        sub[(v3 & (SUB_TOP - 1)) * SUB + 3]++;
    }
    for (; i < n; i++) {
        any |= at(x, width, i);
        sub[(at(x, width, i) & (SUB_TOP - 1)) * SUB]++;
    }
    if (any < SUB_TOP) {
        int64_t top = SUB_TOP;
        while (top > 0 && !bin(sub, top - 1))
            top--;
        for (int64_t v = 0; v < top; v++)
            counts[v] += bin(sub, v);
        return top;
    }
    int64_t lo = INT64_MAX, hi = INT64_MIN;
    for (i = 0; i < n; i++) {
        int64_t v = (int64_t)at(x, width, i);
        lo = v < lo ? v : lo;
        hi = v > hi ? v : hi;
    }
    return lo < 0 ? -1 : hi < INT64_MAX ? hi + 1 : hi; /* saturated at INT64_MAX */
}

int64_t twinsep_histogram(const void *x, int64_t n, int64_t width, int64_t *counts)
{
    return width == 8 ? histogram(x, n, 8, counts) : histogram(x, n, 4, counts);
}
