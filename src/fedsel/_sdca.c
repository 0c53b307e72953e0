/* Closed-form dual coordinate ascent over K one-vs-rest columns, and the
 * local solve's theta certificate.
 *
 * sdca_passes is the compiled twin of fedsel.solver._coordinate_passes: the
 * same visit orders, the same operations in the same order, so rho and
 * margins come out bitwise-equal to the numpy loop. Build without FMA
 * contraction and without -ffast-math. All arrays are C-contiguous: orders
 * (epochs, n), labels, alpha0 and rho (n, k), gram (n, n), qii (n). The
 * margins are held K-major, (k, n), so the rank-1 update after each step is k
 * contiguous loops over the samples, which the compiler vectorises; every
 * element is still one rounded product followed by one rounded add. A column
 * updates its rho and margins only when its own step moved: columns share
 * only the visit order and the Gram row, and a zero step would add only zeros.
 * loss 0 is the smoothed hinge of width gamma, loss 1 the squared loss.
 *
 * sdca_certificate is the twin of fedsel.solver._certificate_sums, and
 * sdca_job runs one device's whole local solve: both are described below.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

static inline __attribute__((always_inline)) void
coordinate_passes(int64_t n, int64_t k, int64_t epochs, const int64_t *orders, int32_t loss,
                  double gamma, const double *labels, const double *alpha0, const double *gram,
                  const double *qii, double *rho, double *margins)
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

FEDSEL_CLONES  /* from _isa.c */
void sdca_passes(int64_t n, int64_t k, int64_t epochs, const int64_t *orders,
                 int32_t loss, double gamma, const double *labels, const double *alpha0,
                 const double *gram, const double *qii, double *rho, double *margins)
{
    coordinate_passes(n, k, epochs, orders, loss, gamma, labels, alpha0, gram, qii, rho, margins);
}

/* The certificate's inputs: labels, alpha0, rho and base (n, k), margins
 * K-major (k, n). */
typedef struct {
    int64_t n, k;
    int32_t loss;
    double gamma;
    const double *labels, *alpha0, *rho, *base, *margins;
} certificate_inputs;

static inline double clip01(double s)
{
    if (s < 0.0) s = 0.0;  /* np.clip: -0.0 and NaN pass */
    if (s > 1.0) s = 1.0;
    return s;
}

/* Sample i's three summands in column c, each rounded as numpy rounds its
 * array expression: conj0 - conj1, rho * base and value + conj1 + beta * margin,
 * with alpha0 and beta = alpha0 + rho projected onto the conjugate's domain
 * (losses.py: project_dual, conjugate, value). A conjugate outside its domain,
 * NaN included, is +inf. */
static inline void certificate_terms(const certificate_inputs *in, int64_t i, int64_t c,
                                     double terms[3])
{
    const int64_t at = i * in->k + c;
    const double y = in->labels[at], a = in->alpha0[at], r = in->rho[at];
    const double m = in->margins[c * in->n + i];
    double alpha, beta, conj0, conj1, value;
    if (in->loss == 0) {
        const double g = in->gamma, half = 0.5 * g;
        alpha = y * clip01(y * a);
        beta = y * clip01(y * (a + r));
        const double u0 = -alpha, t0 = y * u0, u1 = -beta, t1 = y * u1;
        conj0 = (t0 >= -1.0 && t0 <= 0.0) ? t0 + half * u0 * u0 : INFINITY;
        conj1 = (t1 >= -1.0 && t1 <= 0.0) ? t1 + half * u1 * u1 : INFINITY;
        const double z = 1.0 - y * m;
        value = z <= 0.0 ? 0.0 : (z >= g ? z - half : z * z / (2.0 * g));
    } else {
        alpha = a;
        beta = a + r;
        const double u0 = -alpha, u1 = -beta, diff = m - y;
        conj0 = 0.5 * u0 * u0 + u0 * y;
        conj1 = 0.5 * u1 * u1 + u1 * y;
        value = 0.5 * diff * diff;
    }
    terms[0] = conj0 - conj1;
    terms[1] = r * in->base[at];
    terms[2] = value + conj1 + beta * m;
}

/* numpy's pairwise sum of rows [start, start + n) of column 0, for the three
 * summands at once: below 8 rows one running sum from +0.0, up to 128 rows
 * eight interleaved sums added as a tree and then the remainder, above that
 * two halves split on a multiple of 8. */
static void pairwise_terms(const certificate_inputs *in, int64_t start, int64_t n, double out[3])
{
    double t[3];
    if (n < 8) {
        out[0] = out[1] = out[2] = 0.0;
        for (int64_t i = start; i < start + n; i++) {
            certificate_terms(in, i, 0, t);
            for (int s = 0; s < 3; s++) out[s] += t[s];
        }
    } else if (n <= 128) {
        double r[3][8];
        for (int j = 0; j < 8; j++) {
            certificate_terms(in, start + j, 0, t);
            for (int s = 0; s < 3; s++) r[s][j] = t[s];
        }
        int64_t i = 8;
        for (; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++) {
                certificate_terms(in, start + i + j, 0, t);
                for (int s = 0; s < 3; s++) r[s][j] += t[s];
            }
        for (int s = 0; s < 3; s++)
            out[s] = ((r[s][0] + r[s][1]) + (r[s][2] + r[s][3])) +
                     ((r[s][4] + r[s][5]) + (r[s][6] + r[s][7]));
        for (; i < n; i++) {
            certificate_terms(in, start + i, 0, t);
            for (int s = 0; s < 3; s++) out[s] += t[s];
        }
    } else {
        int64_t half = n / 2;
        half -= half % 8;
        double low[3], high[3];
        pairwise_terms(in, start, half, low);
        pairwise_terms(in, start + half, n - half, high);
        for (int s = 0; s < 3; s++) out[s] = low[s] + high[s];
    }
}

/* The certificate's three (k,) column sums into sums (3, k), as numpy's
 * .sum(axis=0) of C-contiguous (n, k) arrays adds them: from +0.0, row after
 * row when k > 1, and by numpy's pairwise sum when the one column is
 * contiguous (k = 1). */
static inline __attribute__((always_inline)) void
sdca_certificate(const certificate_inputs *in, double *sums)
{
    const int64_t n = in->n, k = in->k;
    if (k == 1) {
        double total[3];
        pairwise_terms(in, 0, n, total);
        for (int s = 0; s < 3; s++) sums[s] = 0.0 + total[s];
        return;
    }
    for (int64_t j = 0; j < 3 * k; j++) sums[j] = 0.0;
    double t[3];
    for (int64_t i = 0; i < n; i++)
        for (int64_t c = 0; c < k; c++) {
            certificate_terms(in, i, c, t);
            for (int s = 0; s < 3; s++) sums[s * k + c] += t[s];
        }
}

/* One device's local solve: the coordinate passes from the row-major base
 * margins (n, k), then the certificate's column sums into sums (3, k). rho
 * (n, k) must be zero on entry. The one-vs-rest targets are +1 in the column
 * of the sample's class, classes (n), and -1 elsewhere. The targets and the
 * K-major margins live only while the job runs. Returns 0, or -1 when that
 * scratch cannot be allocated (rho and sums are then untouched). */
FEDSEL_CLONES
int sdca_job(int64_t n, int64_t k, int64_t epochs, const int64_t *orders, int32_t loss,
             double gamma, const int64_t *classes, const double *alpha0, const double *gram,
             const double *qii, const double *base, double *rho, double *sums)
{
    double *labels = malloc(sizeof(double) * (size_t)(n * k));
    double *margins = malloc(sizeof(double) * (size_t)(n * k));
    if (n * k > 0 && (labels == NULL || margins == NULL)) {
        free(labels);
        free(margins);
        return -1;
    }
    for (int64_t i = 0; i < n; i++)
        for (int64_t c = 0; c < k; c++) {
            labels[i * k + c] = classes[i] == c ? 1.0 : -1.0;
            margins[c * n + i] = base[i * k + c];
        }
    coordinate_passes(n, k, epochs, orders, loss, gamma, labels, alpha0, gram, qii, rho, margins);
    const certificate_inputs in = {n, k, loss, gamma, labels, alpha0, rho, base, margins};
    sdca_certificate(&in, sums);
    free(labels);
    free(margins);
    return 0;
}
