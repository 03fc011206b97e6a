/* Compiled pairwise-interaction aggregation.
 *
 * Bit-identical twin of mvsde._core.pairwise_py.pair_aggregate: same
 * per-pair expression tree, same ascending-partner accumulation order per
 * row, same final division by N. Each unordered pair is evaluated once and
 * mirrored by negation, which IEEE-754 makes exact; the skipped diagonal
 * contributes an exact zero in the reference, so the sums agree bit for
 * bit. Build with floating-point contraction disabled (-ffp-contract=off),
 * otherwise fused multiply-adds break the equality.
 *
 * Plain C with no Python or NumPy headers; mvsde._core loads it with
 * ctypes. X, F and G are C-contiguous n x d float64 arrays, and F and G
 * must be zero on entry. The all-zero-kernel short-circuit is done by the
 * caller.
 */

#include <math.h>
#include <stddef.h>

void mvsde_pair_aggregate(const double *restrict X, ptrdiff_t n,
                          ptrdiff_t d, double kf1, double kfq, double qf,
                          double cg, double tam, double te, double tame_g,
                          double *restrict F, double *restrict G)
{
    ptrdiff_t i, j, c;
    double r2, r, rq, rte, w, coeff, gw, v, dn = (double)n;

    for (i = 0; i < n; i++) {
        const double *xi = X + i * d;
        for (j = i + 1; j < n; j++) {
            const double *xj = X + j * d;
            r2 = 0.0;
            for (c = 0; c < d; c++) {
                v = xi[c] - xj[c];
                r2 = r2 + v * v;
            }
            r = sqrt(r2);
            if (qf == 2.0)
                rq = r2;
            else if (qf == 0.0)
                rq = 1.0;
            else
                rq = pow(r, qf);
            if (tam == 0.0) {
                w = 1.0;
            } else {
                if (te == 2.0)
                    rte = r2;
                else if (te == 4.0)
                    rte = r2 * r2;
                else if (te == 0.0)
                    rte = 1.0;
                else
                    rte = pow(r, te);
                w = 1.0 / (1.0 + tam * rte);
            }
            coeff = (kf1 + kfq * rq) * w;
            gw = tame_g != 0.0 ? cg * w : cg;
            for (c = 0; c < d; c++) {
                v = xi[c] - xj[c];
                F[i * d + c] = F[i * d + c] + coeff * v;
                F[j * d + c] = F[j * d + c] - coeff * v;
                G[i * d + c] = G[i * d + c] + gw * v;
                G[j * d + c] = G[j * d + c] - gw * v;
            }
        }
    }
    for (i = 0; i < n * d; i++) {
        F[i] = F[i] / dn;
        G[i] = G[i] / dn;
    }
}
