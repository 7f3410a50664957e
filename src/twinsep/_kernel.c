/* Fused twin kernel: sieve one chunk [low, high) and summarise it.
 *
 * Wheel: one byte covers 30 integers, bits 0..7 <-> residues 1, 7, 11, 13,
 * 17, 19, 23, 29 (mod 30).  Byte 0 starts at low - low % 30; bits below low
 * and at or above high are clear.  The bytes are sieved in blocks of
 * `block` bytes, a positive multiple of 8:
 *   presieve  a block starts as the AND of two byte patterns, of periods
 *             7*11*13 = 1001 and 17*19*23 = 7429 bytes, that clear the
 *             multiples of 7..23; those primes are then set back in range;
 *   marking   a base prime p >= 29 crosses p*m, m >= p coprime to 30, as
 *             8 progressions, one per residue of m mod 30: each is a
 *             stride-p byte loop with a fixed bit, and carries its next
 *             byte from block to block.
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
 * <= isqrt(high - 1), ascending; low is odd and at least 9, and high is at
 * most 2**62 + 1.  Returns 0, or -1 when the working memory cannot be
 * allocated.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#if __BYTE_ORDER__ != __ORDER_LITTLE_ENDIAN__
#error "the scan reads wheel byte 0 as the low byte of a 64-bit word"
#endif

/* bits 2, 4, 7 of each byte (lower members); bit 63 pairs with the next word */
#define TWIN_LOWER 0x1494949494949494ULL

static const int64_t R[8] = {1, 7, 11, 13, 17, 19, 23, 29};
static const int64_t PRESIEVED[6] = {7, 11, 13, 17, 19, 23};

struct scan {
    int64_t primes, twins, tw_low, tw_first, tw_last, nrec, best;
    uint32_t *seps;
    int64_t *recs;
};

static int bit_of(int64_t residue) /* residue is coprime to 30 */
{
    int b = 0;
    while (R[b] != residue)
        b++;
    return b;
}

static uint8_t bits_below(int64_t r) /* the bits of residues < r */
{
    uint8_t m = 0;
    for (int b = 0; b < 8; b++)
        m |= (R[b] < r) << b;
    return m;
}

/* The wheel bytes from 0 with the multiples of p[0..2] clear: one period, p[0]*p[1]*p[2]
 * bytes, then its first block bytes again, so any block starts at an offset below the period.
 * Each p crosses p*m, m = R[i] (mod 30), as a stride-p byte progression with a fixed bit. */
static void pattern(uint8_t *pat, int64_t block, const int64_t *p)
{
    int64_t period = p[0] * p[1] * p[2];
    memset(pat, 0xff, period);
    for (int k = 0; k < 3; k++)
        for (int i = 0; i < 8; i++) {
            uint8_t m = (uint8_t)~(1 << bit_of(p[k] * R[i] % 30));
            for (int64_t j = p[k] * R[i] / 30; j < period; j += p[k])
                pat[j] &= m;
        }
    for (int64_t j = period; j < period + block; j++)
        pat[j] = pat[j - period];
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

static void row(int64_t *r, const struct scan *s)
{
    r[0] = s->primes;
    r[1] = s->twins;
    r[2] = s->tw_last;
}

int64_t twinsep_sieve_chunk(int64_t low, int64_t high, int64_t block,
                            const int64_t *base, int64_t nbase,
                            const int64_t *grid, int64_t ngrid,
                            uint32_t *seps, int64_t *recs, int64_t *rows, int64_t *out)
{
    int64_t w0 = low - low % 30, nbytes = (high - w0 + 29) / 30, k0 = 0, nb = 0;
    /* working memory: per progression its next byte and bit mask; the block, cut to the
     * chunk (span bytes, 8 of padding); two patterns, each continued for span bytes */
    int64_t span = block < nbytes ? block : nbytes;
    int64_t *next = malloc(9 * 8 * (nbase + 1) + 3 * span + 8 + 1001 + 7429);
    if (!next)
        return -1;
    uint8_t *mask = (uint8_t *)(next + 8 * (nbase + 1)), *flags = mask + 8 * (nbase + 1);
    uint8_t *pat1 = flags + span + 8, *pat2 = pat1 + 1001 + span;
    pattern(pat1, span, PRESIEVED);
    pattern(pat2, span, PRESIEVED + 3);
    while (k0 < nbase && base[k0] < 29)
        k0++;
    for (; k0 + nb < nbase && base[k0 + nb] * base[k0 + nb] < high; nb++) {
        int64_t p = base[k0 + nb], m0 = (low + p - 1) / p;
        if (m0 < p)
            m0 = p;
        for (int i = 0; i < 8; i++) {
            int64_t m = m0 + (R[i] - m0 % 30 + 30) % 30;
            next[8 * nb + i] = (p * m - w0) / 30;
            mask[8 * nb + i] = (uint8_t)~(1 << bit_of(p * R[i] % 30));
        }
    }

    struct scan s = {0, 0, 0, -1, -1, 0, -1, seps, recs};
    int64_t first = 0, last = 0, g = 0; /* first and last prime, 0 before the first */
    for (int64_t b0 = 0; b0 < nbytes; b0 += block) {
        int64_t len = nbytes - b0 < block ? nbytes - b0 : block;
        const uint8_t *a = pat1 + (w0 / 30 + b0) % 1001, *c = pat2 + (w0 / 30 + b0) % 7429;
        for (int64_t j = 0; j < len; j++)
            flags[j] = a[j] & c[j];
        memset(flags + len, 0, 8); /* zero-padded to a whole word */
        if (b0 == 0) {
            for (int i = 0; i < 6; i++) /* a presieved prime in range means w0 == 0 */
                if (low <= PRESIEVED[i] && PRESIEVED[i] < high)
                    flags[0] |= 1 << bit_of(PRESIEVED[i]);
            flags[0] &= ~bits_below(low - w0);
        }
        if (b0 + len == nbytes)
            flags[len - 1] &= bits_below(high - w0 - 30 * (nbytes - 1));
        for (int64_t k = 0; k < 8 * nb; k++) {
            int64_t p = base[k0 + k / 8], j = next[k] - b0;
            uint8_t m = mask[k];
            for (; j < len; j += p)
                flags[j] &= m;
            next[k] = b0 + j;
        }

        for (int64_t i = 0; i < len; i += 8) {
            uint64_t x, y;
            memcpy(&x, flags + i, 8);
            if (!x)
                continue;
            int64_t v0 = w0 + 30 * (b0 + i);
            uint64_t lower = x & x >> 1 & TWIN_LOWER;
            if (g < ngrid && grid[g] < v0 + 240) {
                uint64_t upper = lower << 1 | (last == v0 - 1);
                for (y = x; y; y &= y - 1) {
                    int t = __builtin_ctzll(y);
                    int64_t v = value(v0, t);
                    for (; g < ngrid && grid[g] < v; g++)
                        row(rows + 3 * g, &s);
                    if (upper >> t & 1)
                        twin(&s, v - 2, s.primes - 1);
                    s.primes++;
                }
            } else {
                if (x & 1 && last == v0 - 1) /* the twin (v0 - 1, v0 + 1) straddles two words */
                    twin(&s, last, s.primes - 1);
                for (y = lower; y; y &= y - 1) {
                    int t = __builtin_ctzll(y);
                    twin(&s, value(v0, t), s.primes + __builtin_popcountll(x & ((1ULL << t) - 1)));
                }
                s.primes += __builtin_popcountll(x);
            }
            if (!first)
                first = value(v0, __builtin_ctzll(x));
            last = value(v0, 63 - __builtin_clzll(x));
        }
    }
    for (; g < ngrid; g++)
        row(rows + 3 * g, &s);
    int64_t res[8] = {s.primes, s.twins, first, last, s.tw_low, s.tw_first, s.tw_last, s.nrec};
    memcpy(out, res, sizeof res);
    free(next);
    return 0;
}
