/* Validation accuracy of every nonempty prefix of many walks after one shared
 * prefix, in one pass.
 *
 * The compiled twin of fedsel.valuation.CoalitionOracle.walk_values: for walk
 * w and step j in 1..steps, correct[w * steps + j - 1] counts the rows that
 * the oracle scores correctly on the subset sorted(prefix + perm[:j]), the
 * same count the oracle's call gives for it. members[q] holds the scores of
 * the member of rank q in ascending id order, prefix lists `shared` distinct
 * member ranks and perms (walks, steps) each walk's distinct ranks, none of
 * them in the prefix, so a subset sorted by id is a subset sorted by rank.
 * counts[j - 1] is the averaging denominator of the subset of size
 * shared + j. A truncated Monte-Carlo call has no prefix; a greedy sweep
 * passes its chosen set as the prefix and each candidate as a walk of one
 * step.
 *
 * Scores are read in place, class-major: class c of row r is at
 * base[c * ld + r] and members[q][c * ld + r], so each loop below runs over
 * the contiguous rows of one class and vectorises. Per block of `block` rows
 * each member's max_c |score| is taken once into the thread's scratch. The
 * prefix's member scores are summed once per block, in the order given, and
 * each walk adds its member scores to that sum in walk order, one add per
 * score and step; A_r = sum_j max_c |a_j[r,c]| over the prefix and the walk
 * is kept as a second running sum. Each step then forms
 * V' = base + run * (1 / count) and each row's first maximum w.
 *
 * Certificate. Fix a row r, a class c and a subset of s members (prefix and
 * walk steps together) with count N, and write a_1..a_s for its member
 * scores, S for their exact sum, b for the base score, u = 2^-53 and
 * g = (s-1)u / (1 - (s-1)u). The reference adds the members in ascending
 * rank order to T, then V = fl(b + fl(T / N)); this loop has R, their sum in
 * prefix-then-walk order, and V' = fl(b + fl(R * fl(1 / N))). Both are
 * recursive sums, so |T - S| and |R - S| are at most g sum_j |a_j| (Higham,
 * Accuracy and Stability of Numerical Algorithms, 2002, eq. 4.4). With
 * X = sum_j |a_j| / N and every rounding fl(x) = x (1 + d), |d| <= u:
 *   |fl(T / N) - S / N|          <= g X + u (1 + g) X,
 *   |fl(R * fl(1 / N)) - S / N|  <= g X + (2u + u^2)(1 + g) X,
 *   |V - V'| <= |fl(T / N) - fl(R * fl(1 / N))| + u |b + fl(T / N)| + u |b + fl(R * fl(1 / N))|
 *            <= (2g + (5u + 4u^2 + u^3)(1 + g)) X + 2u |b|
 *             = (2s + 3) u X + 2u |b| + O(s^2 u^2) X.
 * X <= A_r / N and |b| <= beta_r = max_c |base[r,c]|, and for s < 2^20 the
 * O(s^2 u^2) terms are below 5u X, so for every class
 *   |V_c - V'_c| <= B_r = (2s + 8) u (A_r / N + beta_r).
 * The factor 1 + 2^-20 on B_r covers the roundings of A_r, of B_r itself and
 * of the test below. Gradual underflow adds at most 2^-1075 to each product
 * and quotient (a sum that lands among the subnormals is exact), so at most
 * 2^-1074 to |V - V'|, plus as much in B_r's own products: the floor of
 * 2^-1070 covers them. If fl(V'_w - V'_c) > 2 B_r for the runner-up c, then
 * V_w - V_c > 0 for every class c != w: w is the reference's unique, and so
 * first, maximum too. With A_r and beta_r at most 2^1020 no sum overflows.
 *
 * Exact path. Every other row (an exact or near tie, a bound past 2^1020, a
 * subset of 2^20 or more members) is scored as the reference scores it: the
 * subset's members, prefix included, summed in ascending rank order, divided
 * by the count, added to the base, first maximum. exact_rows counts these
 * rows.
 *
 * base and each members[q] hold k rows of stride ld >= n, labels n entries.
 * scratch holds players * (block + 1) + (2k + 7) * block doubles.
 */
#include <math.h>
#include <stdint.h>

static inline int64_t certified(double top, double second, double spread, double beta,
                                double inv, double coef)
{
    const double bound = (spread * inv + beta) * coef + 0x1p-1070;
    return (spread <= 0x1p1020) & (beta <= 0x1p1020) & (top - second > 2.0 * bound);
}

/* Each row's max_c |x[c * ld + r]| into peak. */
static inline void row_peaks(const double *x, int64_t k, int64_t ld, int64_t height, double *peak)
{
    for (int64_t r = 0; r < height; r++) peak[r] = 0.0;
    for (int64_t c = 0; c < k; c++)
        for (int64_t r = 0; r < height; r++) {
            const double a = fabs(x[c * ld + r]);
            peak[r] = a > peak[r] ? a : peak[r];
        }
}

FEDSEL_CLONES  /* from _isa.c */
void walk_values(int64_t n, int64_t k, int64_t ld, int64_t block, const double *base,
                 const double *const *members, int64_t players, const int64_t *labels,
                 int64_t shared, const int64_t *prefix, int64_t walks, int64_t steps,
                 const int64_t *perms, const double *counts, int64_t *correct,
                 int64_t *exact_rows, double *scratch)
{
    double *const peak = scratch;                   /* (players, block): max_c |a| */
    double *const pre = peak + players * block;     /* (k, block): prefix sum */
    double *const run = pre + k * block;            /* (k, block): prefix-then-walk sum */
    double *const beta = run + k * block, *const pre_spread = beta + block;
    double *const spread = pre_spread + block, *const top = spread + block;
    double *const second = top + block, *const best = second + block;
    double *const label = best + block;
    double *const in = label + block;               /* (players): 1 in the subset */
    for (int64_t q = 0; q < players; q++) in[q] = 0.0;
    for (int64_t j = 0; j < shared; j++) in[prefix[j]] = 1.0;
    for (int64_t i = 0; i < walks * steps; i++) correct[i] = 0;
    *exact_rows = 0;
    for (int64_t start = 0; start < n; start += block) {
        const int64_t height = n - start < block ? n - start : block;
        const double *const base_t = base + start;
        row_peaks(base_t, k, ld, height, beta);
        for (int64_t r = 0; r < height; r++) label[r] = (double)labels[start + r];
        for (int64_t q = 0; q < players; q++)
            row_peaks(members[q] + start, k, ld, height, peak + q * block);
        for (int64_t j = 0; j < shared; j++) {
            const double *restrict a = members[prefix[j]] + start;
            const double *restrict a_peak = peak + prefix[j] * block;
            for (int64_t c = 0; c < k; c++) {
                double *restrict sum = pre + c * block;
                const double *restrict add = a + c * ld;
                if (j)
                    for (int64_t r = 0; r < height; r++) sum[r] += add[r];
                else
                    for (int64_t r = 0; r < height; r++) sum[r] = add[r];
            }
            if (j)
                for (int64_t r = 0; r < height; r++) pre_spread[r] += a_peak[r];
            else
                for (int64_t r = 0; r < height; r++) pre_spread[r] = a_peak[r];
        }
        for (int64_t w = 0; w < walks; w++) {
            const int64_t *perm = perms + w * steps;
            for (int64_t step = 1; step <= steps; step++) {
                const int64_t q = perm[step - 1];
                const double *restrict a = members[q] + start;
                const double *restrict a_peak = peak + q * block;
                in[q] = 1.0;
                for (int64_t c = 0; c < k; c++) {
                    double *restrict sum = run + c * block;
                    const double *restrict add = a + c * ld, *restrict prior = pre + c * block;
                    if (step > 1)
                        for (int64_t r = 0; r < height; r++) sum[r] += add[r];
                    else if (shared)
                        for (int64_t r = 0; r < height; r++) sum[r] = prior[r] + add[r];
                    else
                        for (int64_t r = 0; r < height; r++) sum[r] = add[r];
                }
                if (step > 1)
                    for (int64_t r = 0; r < height; r++) spread[r] += a_peak[r];
                else if (shared)
                    for (int64_t r = 0; r < height; r++) spread[r] = pre_spread[r] + a_peak[r];
                else
                    for (int64_t r = 0; r < height; r++) spread[r] = a_peak[r];

                const int64_t size = shared + step;
                const double count = counts[step - 1], inv = 1.0 / count;
                for (int64_t r = 0; r < height; r++) {
                    top[r] = -INFINITY;
                    second[r] = -INFINITY;
                    best[r] = 0.0;
                }
                for (int64_t c = 0; c < k; c++) {
                    const double *restrict b = base_t + c * ld, *restrict sum = run + c * block;
                    const double class = (double)c;
                    for (int64_t r = 0; r < height; r++) {
                        /* min and max forms: no masked stores, so AVX2 blends */
                        const double v = b[r] + sum[r] * inv, t = top[r], s = second[r];
                        const double lower = v > t ? t : v, w = best[r];
                        second[r] = lower > s ? lower : s;
                        best[r] = v > t ? class : w;
                        top[r] = v > t ? v : t;
                    }
                }

                const double coef =
                    size < (1 << 20) ? (2.0 * size + 8.0) * 0x1p-53 * (1.0 + 0x1p-20) : INFINITY;
                int64_t hits = 0, pending = 0;
                for (int64_t r = 0; r < height; r++) {
                    const int64_t sure = certified(top[r], second[r], spread[r], beta[r], inv, coef);
                    hits += sure & (int64_t)(best[r] == label[r]);
                    pending += !sure;
                }
                for (int64_t r = 0; pending && r < height; r++) {
                    if (certified(top[r], second[r], spread[r], beta[r], inv, coef)) continue;
                    pending--;
                    double most = 0.0;
                    int64_t first = 0;
                    for (int64_t c = 0; c < k; c++) {
                        double total = 0.0;
                        int empty = 1;
                        for (int64_t p = 0; p < players; p++) {
                            if (in[p] == 0.0) continue;
                            const double x = members[p][start + c * ld + r];
                            total = empty ? x : total + x;
                            empty = 0;
                        }
                        const double v = base_t[c * ld + r] + total / count;
                        if (c == 0 || v > most) {
                            most = v;
                            first = c;
                        }
                    }
                    hits += first == labels[start + r];
                    *exact_rows += 1;
                }
                correct[w * steps + step - 1] += hits;
            }
            for (int64_t j = 0; j < steps; j++) in[perm[j]] = 0.0;
        }
    }
}
