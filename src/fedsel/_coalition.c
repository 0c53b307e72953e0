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
#include <stdint.h>
#include <string.h>

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
