/* Fused twin kernel: sieve one chunk [low, high) and summarise it.
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
 * twins are x & x >> 1 & TWIN_LOWER, and one more straddles the previous
 * word when its bit 63 and this word's bit 0 are both primes.  Only a word
 * that reaches a checkpoint walks every prime.  The scan emits the fields
 * of a ChunkSummary directly, so the caller allocates only the outputs:
 *   seps[t - 1]     separation closed by the chunk's t-th own twin (t >= 1);
 *   recs[2r], [2r+1] r-th running-maximum record: (separation, lower member);
 *   rows[3g..3g+2]  at grid[g]: primes <= n, twins with upper member <= n,
 *                   index of the last such twin's lower member or -1;
 *   out[0..7]       primes, twins, first prime, last prime (0 if none),
 *                   first twin's lower member and index (-1 if none),
 *                   last twin's index (-1 if none), record count.
 * Prime indices are 0-based within the chunk.  base holds every odd prime
 * <= isqrt(high - 1), ascending; low is odd and at least 9, high is at most
 * 2**62 + 1, and high - low is below 2**33.  Returns 0, or -1 when the
 * working memory cannot be allocated.
 */
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

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
    int64_t first, last, g, ngrid; /* first and last prime (0 before the first), next checkpoint */
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
            if (x & 1 && s->last == v0 - 1) /* the twin (v0 - 1, v0 + 1) straddles two words */
                twin(s, s->last, s->primes - 1);
            for (y = lower; y; y &= y - 1) {
                int t = __builtin_ctzll(y);
                twin(s, value(v0, t), s->primes + __builtin_popcountll(x & ((1ULL << t) - 1)));
            }
            s->primes += __builtin_popcountll(x);
        }
        if (!s->first)
            s->first = value(v0, __builtin_ctzll(x));
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

    struct scan s = {0, 0, 0, -1, -1, 0, -1, 0, 0, 0, ngrid, grid, seps, recs, rows};
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
    int64_t res[8] = {s.primes, s.twins, s.first, s.last, s.tw_low, s.tw_first, s.tw_last, s.nrec};
    memcpy(out, res, sizeof res);
    free(next);
    return 0;
}
