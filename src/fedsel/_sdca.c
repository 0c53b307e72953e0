/* Closed-form dual coordinate ascent over K one-vs-rest columns.
 *
 * The compiled twin of fedsel.solver._coordinate_passes: the same visit
 * orders, the same operations in the same order, so rho and margins come out
 * bitwise-equal to the numpy loop. Build without FMA contraction and without
 * -ffast-math. All arrays are C-contiguous: orders (epochs, n), labels,
 * alpha0 and rho (n, k), gram (n, n), qii (n). The margins are held K-major,
 * (k, n), so the rank-1 update after each step is k contiguous loops over the
 * samples, which the compiler vectorises; every element is still one rounded
 * product followed by one rounded add. A column updates its rho and margins
 * only when its own step moved: columns share only the visit order and the
 * Gram row, and a zero step would add only zeros.
 * loss 0 is the smoothed hinge of width gamma, loss 1 the squared loss.
 */
#include <stdint.h>

FEDSEL_CLONES  /* from _isa.c */
void sdca_passes(int64_t n, int64_t k, int64_t epochs, const int64_t *orders,
                 int32_t loss, double gamma, const double *labels, const double *alpha0,
                 const double *gram, const double *qii, double *rho, double *margins)
{
    for (int64_t step = 0; step < epochs * n; step++) {
        const int64_t i = orders[step];
        const double *y = labels + i * k, *a0 = alpha0 + i * k;
        double *r = rho + i * k;
        const double q = qii[i];
        const double *restrict g = gram + i * n;
        for (int64_t c = 0; c < k; c++) {
            const double a = a0[c] + r[c], m = margins[c * n + i];
            double d;
            if (loss == 0) {
                const double s = y[c] * a;
                double clipped = s + (1.0 - y[c] * m - gamma * s) / (gamma + q);
                if (clipped < 0.0) clipped = 0.0;  /* np.clip: -0.0 and NaN pass */
                if (clipped > 1.0) clipped = 1.0;
                d = y[c] * clipped - a;
            } else {
                d = (y[c] - a - m) / (1.0 + q);
            }
            if (d == 0.0) continue;  /* np.flatnonzero: NaN moves, -0.0 does not */
            r[c] += d;
            double *restrict mc = margins + c * n;
            for (int64_t j = 0; j < n; j++) {
                const double product = g[j] * d;
                mc[j] += product;
            }
        }
    }
}
