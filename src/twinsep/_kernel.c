/* Fused twin kernel: sieve one chunk [low, high) and summarise it.
 *
 * One byte per odd number (flag i <-> low + 2i), sieved in blocks of
 * `block` flags; each base prime carries its next multiple from block to
 * block.  A scan over each finished block, 64 flags to a word, emits the
 * fields of a ChunkSummary directly, so the caller allocates only the
 * outputs:
 *   seps[t - 1]     separation closed by the chunk's t-th own twin (t >= 1);
 *   recs[2r], [2r+1] r-th running-maximum record: (separation, lower member);
 *   rows[3g..3g+2]  at grid[g]: primes <= n, twins with upper member <= n,
 *                   index of the last such twin's lower member or -1;
 *   out[0..7]       primes, twins, first prime, last prime (0 if none),
 *                   first twin's lower member and index (-1 if none),
 *                   last twin's index (-1 if none), record count.
 * Prime indices are 0-based within the chunk.  base holds every odd prime
 * <= isqrt(high - 1), ascending; low is odd and at least 9.  Returns 0, or
 * -1 when the working memory cannot be allocated.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

int64_t twinsep_sieve_chunk(int64_t low, int64_t high, int64_t block,
                            const int64_t *base, int64_t nbase,
                            const int64_t *grid, int64_t ngrid,
                            uint32_t *seps, int64_t *recs, int64_t *rows, int64_t *out)
{
    int64_t odds = (high - low + 1) / 2, nb = 0;
    int64_t *next = malloc((nbase + 1) * sizeof *next);
    uint8_t *flags = malloc(block + 64); /* zero-padded to whole 64-flag words */
    if (!next || !flags) {
        free(next);
        free(flags);
        return -1;
    }
    for (; nb < nbase && base[nb] * base[nb] < high; nb++) {
        int64_t p = base[nb], m = p * p;
        if (m < low)
            m = (low + p - 1) / p * p;
        if (m % 2 == 0)
            m += p;
        next[nb] = (m - low) / 2;
    }

    int64_t primes = 0, twins = 0, first = 0, last = 0, tw_low = 0, tw_first = -1;
    int64_t tw_last = -1, nrec = 0, best = -1, g = 0;
    for (int64_t b0 = 0; b0 < odds; b0 += block) {
        int64_t len = odds - b0 < block ? odds - b0 : block;
        memset(flags, 1, len);
        memset(flags + len, 0, 64);
        for (int64_t k = 0; k < nb; k++) {
            int64_t p = base[k], j = next[k] - b0;
            for (; j < len; j += p)
                flags[j] = 0;
            next[k] = b0 + j;
        }
        for (int64_t i0 = 0; i0 < len; i0 += 64) {
            uint64_t bits = 0, w; /* bit 8k + j <- flag i0 + 8k + j, each flag 0 or 1 */
            for (int k = 0; k < 8; k++) {
                memcpy(&w, flags + i0 + 8 * k, 8);
                bits |= (w * 0x0102040810204080ULL >> 56) << (8 * k);
            }
            for (; bits; bits &= bits - 1) {
                int64_t v = low + 2 * (b0 + i0 + __builtin_ctzll(bits));
                for (; g < ngrid && grid[g] < v; g++) {
                    rows[3 * g] = primes;
                    rows[3 * g + 1] = twins;
                    rows[3 * g + 2] = tw_last;
                }
                if (v - last == 2) { /* last is 0 before the first prime, and v >= 11 */
                    if (twins) {
                        int64_t sep = primes - 1 - tw_last - 2;
                        seps[twins - 1] = (uint32_t)sep;
                        if (sep > best) {
                            best = sep;
                            recs[2 * nrec] = sep;
                            recs[2 * nrec++ + 1] = last;
                        }
                    } else {
                        tw_low = last;
                        tw_first = primes - 1;
                    }
                    tw_last = primes - 1;
                    twins++;
                }
                if (!first)
                    first = v;
                last = v;
                primes++;
            }
        }
    }
    for (; g < ngrid; g++) {
        rows[3 * g] = primes;
        rows[3 * g + 1] = twins;
        rows[3 * g + 2] = tw_last;
    }
    int64_t res[8] = {primes, twins, first, last, tw_low, tw_first, tw_last, nrec};
    memcpy(out, res, sizeof res);
    free(next);
    free(flags);
    return 0;
}
