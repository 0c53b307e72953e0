/* Validation accuracy of many coalitions in one pass over the validation rows.
 *
 * The compiled twin of fedsel.valuation.CoalitionOracle.__call__: for every
 * subset the member scores are summed sequentially in the subset's order,
 * the total is divided by the subset's count and added to the base scores,
 * and each row predicts its first maximum class, exactly as the numpy path
 * does, so the correct-row counts give bitwise-equal values. Build without
 * -ffast-math. Every score must be finite: np.argmax ranks NaN first, this
 * loop does not.
 *
 * Rows are visited in blocks of `block` rows on the outside and the subsets
 * on the inside, so each member's block of scores is read from memory once
 * per call rather than once per subset. Within a block, partial[j] holds the
 * sum of the first j + 1 members of the previous subset; a subset that shares
 * its first `same` members with the previous one recomputes only partial[same]
 * onwards, so the caller puts subsets with common leading members next to
 * each other.
 *
 * All arrays are C-contiguous: base (n, k), each members[p] (n, k), labels
 * (n), offsets (subsets + 1) into rows, which lists each subset's member
 * indices in summation order, counts (subsets) the averaging denominators,
 * correct (subsets) the output, partial (longest subset, block, k) and
 * scores (block, k) scratch.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

FEDSEL_CLONES  /* from _isa.c */
void coalition_values(int64_t n, int64_t k, int64_t block, const double *base,
                      const double *const *members, const int64_t *labels, int64_t subsets,
                      const int64_t *offsets, const int64_t *rows, const double *counts,
                      int64_t *correct, double *partial, double *scores)
{
    const int64_t stride = block * k;
    for (int64_t s = 0; s < subsets; s++) correct[s] = 0;
    for (int64_t start = 0; start < n; start += block) {
        const int64_t height = n - start < block ? n - start : block;
        const int64_t width = height * k;
        const double *b = base + start * k;
        const int64_t *previous = rows;
        int64_t previous_size = 0;
        for (int64_t s = 0; s < subsets; s++) {
            const int64_t *current = rows + offsets[s];
            const int64_t size = offsets[s + 1] - offsets[s];
            int64_t same = 0;
            while (same < size && same < previous_size && current[same] == previous[same]) same++;
            for (int64_t j = same; j < size; j++) {
                const double *restrict m = members[current[j]] + start * k;
                double *restrict out = partial + j * stride;
                if (j == 0) {
                    memcpy(out, m, (size_t)width * sizeof(double));
                } else {
                    const double *restrict in = out - stride;
                    for (int64_t e = 0; e < width; e++) out[e] = in[e] + m[e];
                }
            }
            previous = current;
            previous_size = size;

            /* the base plus the averaged total, then each row's first maximum */
            const double *top_scores = b;
            if (size) {
                const double *restrict total = partial + (size - 1) * stride;
                const double count = counts[s];
                for (int64_t e = 0; e < width; e++) scores[e] = b[e] + total[e] / count;
                top_scores = scores;
            }
            int64_t hits = 0;
            for (int64_t r = 0; r < height; r++) {
                const double *row = top_scores + r * k;
                int64_t best = 0;
                for (int64_t c = 1; c < k; c++)
                    if (row[c] > row[best]) best = c;
                hits += best == labels[start + r];
            }
            correct[s] += hits;
        }
    }
}

/* Validation accuracy of every proper prefix of many walks, in one pass.
 *
 * The compiled twin of fedsel.valuation.CoalitionOracle.walk_values: for walk
 * w and prefix size s in 1..length-1, correct[w * (length - 1) + s - 1] counts
 * the rows that the oracle scores correctly on the subset sorted(perm[:s]),
 * the same count coalition_values gives for it. members[q] holds the scores of
 * the member of rank q in ascending id order, and perms (walks, length) lists
 * each walk's distinct member ranks, so a prefix sorted by id is a prefix
 * sorted by rank. counts[s - 1] is the averaging denominator of size s.
 *
 * Per block of `block` rows the base and every member's scores are copied
 * class-major, (k, block), into the thread's scratch, so each loop below runs
 * over the rows of one class and vectorises. Per walk, the member scores are
 * added in walk order to one running sum, one add per score and step, and
 * A_r = sum_j max_c |a_j[r,c]| is kept as a second running sum. Each step then
 * forms V' = base + run * (1 / count) and each row's first maximum w.
 *
 * Certificate. Fix a row r, a class c and a prefix of size s with count N,
 * and write a_1..a_s for its member scores, S for their exact sum, b for the
 * base score, u = 2^-53 and g = (s-1)u / (1 - (s-1)u). The reference adds the
 * members in ascending rank order to T, then V = fl(b + fl(T / N)); this loop
 * has R, their sum in walk order, and V' = fl(b + fl(R * fl(1 / N))). Both
 * are recursive sums, so |T - S| and |R - S| are at most g sum_j |a_j| (Higham,
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
 * prefix of 2^20 or more members) is scored as the reference scores it: the
 * prefix's members summed in ascending rank order, divided by the count,
 * added to the base, first maximum. exact_rows counts these rows.
 *
 * scratch holds players * (k + 1) * block + (2k + 6) * block + players
 * doubles.
 */
static inline int64_t certified(double top, double second, double spread, double beta,
                                double inv, double coef)
{
    const double bound = (spread * inv + beta) * coef + 0x1p-1070;
    return (spread <= 0x1p1020) & (beta <= 0x1p1020) & (top - second > 2.0 * bound);
}

FEDSEL_CLONES  /* from _isa.c */
void walk_values(int64_t n, int64_t k, int64_t block, const double *base,
                 const double *const *members, int64_t players, const int64_t *labels,
                 int64_t walks, int64_t length, const int64_t *perms, const double *counts,
                 int64_t *correct, int64_t *exact_rows, double *scratch)
{
    const int64_t steps = length - 1;
    double *const scores = scratch;                    /* (players, k, block) */
    double *const peak = scores + players * k * block; /* (players, block): max_c |a| */
    double *const base_t = peak + players * block;     /* (k, block) */
    double *const run = base_t + k * block;            /* (k, block): walk-order sum */
    double *const beta = run + k * block, *const spread = beta + block;
    double *const top = spread + block, *const second = top + block;
    double *const best = second + block, *const label = best + block;
    double *const in = label + block;                  /* (players): 1 in the prefix */
    for (int64_t i = 0; i < walks * steps; i++) correct[i] = 0;
    *exact_rows = 0;
    for (int64_t start = 0; start < n; start += block) {
        const int64_t height = n - start < block ? n - start : block;
        for (int64_t r = 0; r < height; r++) {
            const double *b = base + (start + r) * k;
            double most = 0.0;
            for (int64_t c = 0; c < k; c++) {
                base_t[c * block + r] = b[c];
                most = fabs(b[c]) > most ? fabs(b[c]) : most;
            }
            beta[r] = most;
            label[r] = (double)labels[start + r];
        }
        for (int64_t q = 0; q < players; q++) {
            double *a = scores + q * k * block;
            for (int64_t r = 0; r < height; r++) {
                const double *m = members[q] + (start + r) * k;
                double most = 0.0;
                for (int64_t c = 0; c < k; c++) {
                    a[c * block + r] = m[c];
                    most = fabs(m[c]) > most ? fabs(m[c]) : most;
                }
                peak[q * block + r] = most;
            }
        }
        for (int64_t w = 0; w < walks; w++) {
            const int64_t *perm = perms + w * length;
            for (int64_t q = 0; q < players; q++) in[q] = 0.0;
            for (int64_t size = 1; size <= steps; size++) {
                const int64_t q = perm[size - 1];
                const double *restrict a = scores + q * k * block;
                const double *restrict a_peak = peak + q * block;
                in[q] = 1.0;
                for (int64_t c = 0; c < k; c++) {
                    double *restrict sum = run + c * block;
                    const double *restrict add = a + c * block;
                    if (size == 1)
                        for (int64_t r = 0; r < height; r++) sum[r] = add[r];
                    else
                        for (int64_t r = 0; r < height; r++) sum[r] += add[r];
                }
                if (size == 1)
                    for (int64_t r = 0; r < height; r++) spread[r] = a_peak[r];
                else
                    for (int64_t r = 0; r < height; r++) spread[r] += a_peak[r];

                const double count = counts[size - 1], inv = 1.0 / count;
                for (int64_t r = 0; r < height; r++) {
                    top[r] = -INFINITY;
                    second[r] = -INFINITY;
                    best[r] = 0.0;
                }
                for (int64_t c = 0; c < k; c++) {
                    const double *restrict b = base_t + c * block, *restrict sum = run + c * block;
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
                            const double x = scores[(p * k + c) * block + r];
                            total = empty ? x : total + x;
                            empty = 0;
                        }
                        const double v = base_t[c * block + r] + total / count;
                        if (c == 0 || v > most) {
                            most = v;
                            first = c;
                        }
                    }
                    hits += first == labels[start + r];
                    *exact_rows += 1;
                }
                correct[w * steps + size - 1] += hits;
            }
        }
    }
}
