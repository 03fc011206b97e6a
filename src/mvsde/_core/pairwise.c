/* Compiled pair kernel, fused step kernel, correctly rounded row sum,
 * Philox stream block and inverse normal CDF.
 *
 * mvsde_pair_aggregate is the bit-identical twin of
 * mvsde._core.pairwise_py.pair_aggregate: same per-pair expression tree,
 * same exponent special cases with libm pow for every other exponent,
 * same final division by N. Each unordered pair is evaluated once and
 * mirrored by negation, which IEEE-754 makes exact; the skipped diagonal
 * contributes an exact zero in the reference. The loop runs in passes
 * that the compiler vectorises, on a structure-of-arrays copy of X, for a
 * block of four rows: each row's r2 (from 0.0, over the components in
 * ascending order) and pair factors (one loop per exponent case, with sqrt
 * only where pow needs r), vectorised over the partners j; then the
 * block's mirrored terms into every later row, in ascending row order,
 * vectorised over j; then the block's own sums with the rows in the vector
 * lanes, each lane one row's chain, ascending in j (scalar chains for a
 * short last block). So each row still sums its partners in ascending
 * order, the reference's order: the mirrored terms of the rows before it,
 * then its own. Every value sees the operations of the reference in its
 * order, and vector +, -, * and / round as their scalar forms do, so the
 * sums agree bit for bit.
 *
 * mvsde_advance runs whole steps of mvsde.scheme.step for a block of steps
 * with no Python in the loop, bit for bit. It repeats step's NumPy
 * operation order: x.mean(axis=0) and np.sum(x * x, axis=-1) as NumPy's
 * add.reduce sums them (np_sum below), the self drift and diffusion
 * diagonal term by term, the pair sums from mvsde_pair_aggregate, then
 * x + (b + F) h and + (s + G) dW. As NumPy does, it evaluates the self
 * terms in passes over the particles, which the compiler vectorises: the
 * squared norms, the powers of the norms, then the drift and the noise
 * element by element, with each coefficient switch and exponent case
 * fixed outside the loop, and a branch-free test of the new state for a
 * non-finite value. Every element still sees step's operations in step's
 * order, and vector +, -, *, / and sqrt round as their scalar forms do,
 * so the bits are the same. It runs every model: each power site
 * keeps step's special cases (q_b in {0, 1, 2} gives 1, r and r * r, the
 * taming exponent e in {0, 2, 4} gives 1, r2 and r2 * r2) and sends
 * any other exponent to libm pow, as pairwise_py.power does on the NumPy
 * side. On request it also writes the squared norm of every particle
 * after every step, as np.sum(x * x, axis=-1) gives it, so the observers
 * that need every step (the moment and divergence trackers) read a block
 * of steps per call instead of stopping the kernel after each one, and a
 * copy of the state after each step a keep mask selects, straight into
 * the next row of the one array a StateRecorder owns for its run.
 *
 * mvsde_fsum_rows gives each row of a matrix math.fsum's correctly rounded
 * sum without a Python call per row. Every row first runs one compensated
 * pass, TwoSum with a rigorous error bound (Ogita, Rump and Oishi,
 * "Accurate sum and dot product", SIAM J. Sci. Comput. 26, 2005), in eight
 * lanes along the row, two vectors of four, so that eight add-latency
 * chains overlap, and then folds the lanes together by TwoSum. The pass
 * returns its result only where the bound proves it is the
 * round-to-nearest value of the exact sum, which is the value fsum returns
 * (see fsum_certified); any other row, among them every row with a
 * non-finite term, a huge sum or a zero or subnormal result, goes to
 * math.fsum's own algorithm (Shewchuk's nonoverlapping expansions,
 * "Adaptive precision floating-point arithmetic", DCG 18, 1997) in
 * fsum_row. Both give fsum's bits, so the moment rows do.
 *
 * mvsde_philox_uniforms fills a block of uniform doubles from one
 * Philox4x64-10 stream per particle (Salmon, Moraes, Dror and Shaw,
 * "Parallel random numbers: as easy as 1, 2, 3", SC'11), exactly as
 * numpy.random.Philox and Generator.random produce them, so the Brownian
 * tableau and the initial states get the streams' bits with no Python
 * loop over particles.
 *
 * mvsde_ndtri is the inverse standard normal CDF, in place: Stephen L.
 * Moshier's Cephes ndtri transcribed term for term from the copy SciPy
 * 1.17 ships (xsf, cephes/ndtri.h and cephes/polevl.h), so the tableau and
 * the gaussian initial states get scipy.special.ndtri's bits without
 * importing SciPy. Only the NumPy fallback's ndtri and the exact_assignment
 * W2 route import SciPy.
 *
 * Build with floating-point contraction disabled (-ffp-contract=off),
 * otherwise fused multiply-adds break the equality, and with nothing that
 * lets the compiler reassociate (-ffast-math, -fassociative-math); setup.py
 * passes -O3 -ffp-contract=off -fno-math-errno, the last so that sqrt needs
 * no errno branch and vectorises. Plain C with no Python or NumPy headers,
 * apart from the unsigned __int128 of the Philox multiplications and the
 * always_inline and target_clones attributes, which GCC and Clang provide,
 * and one #pragma GCC unroll, which steers the vectoriser only and so
 * changes no value under a compiler that ignores it; mvsde._core loads it
 * with ctypes.
 *
 * Runtime dispatch. pair_factors, mvsde_pair_aggregate, row_norms,
 * step_once and mvsde_fsum_rows carry STEP_CLONES: on x86-64 ELF with
 * glibc, where the compiler has target_clones, each is compiled twice,
 * for AVX2 (four doubles per
 * instruction) and for the x86-64 baseline (SSE2, two), and the dynamic
 * loader picks one per function through an ifunc, once, by the CPU: an
 * AVX2 CPU, AVX-512 ones included, takes the AVX2 clone, any other the
 * baseline one. The ALWAYS_INLINE helpers are inlined into each clone and
 * compiled for its target. Elsewhere STEP_CLONES is empty and the build is
 * the baseline one alone. Both clones give the same bits: +, -, *, / and
 * sqrt round alike at every vector width, -ffp-contract=off forbids FMA in
 * the AVX2 clone too, nothing is reassociated, and pow stays scalar libm.
 * There is no AVX-512 (x86-64-v4) clone: at N = 1024 it ran 0.98-1.13x
 * the AVX2 clone's speed (d = 1, 2, 3, 8), too little for a third copy.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* Raised whenever a kernel's signature, struct mvsde_coeffs or the size of
 * its work array changes; mvsde._core loads no library whose value differs
 * from its own, so a stale build runs NumPy instead of passing arguments
 * that its kernels would misread or a work array they would overrun. */
const int mvsde_abi = 4;

/* The pair loop takes the rows in blocks of PAIR_ROWS and the components in
 * chunks of PAIR_CHUNK, with compile-time counts for both. A full block
 * sums its own terms in tiles of PAIR_TILE partners with its rows in the
 * vector lanes (pair_block_chunk), as 2 * PAIR_CHUNK chains of PAIR_ROWS
 * lanes: one AVX2 vector or two SSE2 ones each. At N = 1024 and d = 4 to
 * 9, chunks of 3 ran 1.2-1.4x faster than chunks of 4 in the baseline build
 * and 1.3-1.7x in the AVX2 clone. At N = 1024 and d = 3 and 8, tiles of 2
 * ran 1.01-1.06x and tiles of 8 1.2-1.5x slower than tiles of 4 in both.
 * mvsde._core sizes the pair scratch from mvsde_pair_rows. */
#define PAIR_ROWS 4
#define PAIR_CHUNK 3
#define PAIR_TILE 4
const int mvsde_pair_rows = PAIR_ROWS;

#define ALWAYS_INLINE static inline __attribute__((always_inline))

/* See "Runtime dispatch" above; __GLIBC__ comes from the headers above. */
#if defined(__x86_64__) && defined(__ELF__) && defined(__GLIBC__)         \
    && defined(__has_attribute)
#if __has_attribute(target_clones)
#define STEP_CLONES __attribute__((target_clones("avx2", "default")))
#endif
#endif
#ifndef STEP_CLONES
#define STEP_CLONES
#endif

/* Calls body(k) with k = min(left, PAIR_CHUNK), a compile-time constant in
 * each case; left >= 1. */
#define PAIR_CHUNKED(left, body)                                           \
    switch ((left) < PAIR_CHUNK ? (left) : PAIR_CHUNK) {                   \
    case 1: body(1); break;                                                \
    case 2: body(2); break;                                                \
    default: body(3); break;                                               \
    }

/* r2[j] of the partners j0 <= j < n, summed over the k components of a
 * chunk whose structure-of-arrays rows start at xs (stride n) and whose
 * values in the row are xi: from 0.0 for the first chunk, otherwise onwards
 * from the sum of the chunks before it. */
ALWAYS_INLINE void pair_r2_chunk(const double *restrict xs, ptrdiff_t n,
                                 const double *xi, int k, int first,
                                 ptrdiff_t j0, double *restrict r2)
{
    double a[PAIR_CHUNK], s, v;
    ptrdiff_t j;
    int c;

    for (c = 0; c < k; c++)
        a[c] = xi[c];
    for (j = j0; j < n; j++) {
        s = first ? 0.0 : r2[j];
        for (c = 0; c < k; c++) {
            v = a[c] - xs[c * n + j];
            s = s + v * v;
        }
        r2[j] = s;
    }
}

/* Exponent cases of the pair factors: the weight w is a constant (tam is 0
 * or te is 0), 1 / (1 + tam r2), 1 / (1 + tam r2 r2) or libm pow's; r^qf
 * is r2, 1 or libm pow's. */
enum { W_CONST, W_R2, W_R4, W_POW };
enum { Q_R2, Q_ONE, Q_POW };

/* The pair factors of the partners j0 <= j < n from their r2, as
 * pairwise_py.pair_factors computes them: cf[j] = (kf1 + kfq r^qf) w and
 * gw[j] = cg w (cg when tame_g is 0), w = 1 / (1 + tam r^te), exactly 1
 * when tam is 0. cf holds r2 on entry. wm and qm are compile-time exponent
 * cases, and r = sqrt(r2) is taken only where libm pow needs it. */
ALWAYS_INLINE void pair_factors_case(double *restrict cf,
                                     double *restrict gw, ptrdiff_t j0,
                                     ptrdiff_t n, int wm, int qm, double wc,
                                     double kf1, double kfq, double qf,
                                     double cg, double tam, double te,
                                     double tame_g)
{
    double r2, w, rq;
    ptrdiff_t j;

    for (j = j0; j < n; j++) {
        r2 = cf[j];
        if (wm == W_CONST)
            w = wc;
        else if (wm == W_R2)
            w = 1.0 / (1.0 + tam * r2);
        else if (wm == W_R4)
            w = 1.0 / (1.0 + tam * (r2 * r2));
        else
            w = 1.0 / (1.0 + tam * pow(sqrt(r2), te));
        if (qm == Q_R2)
            rq = r2;
        else if (qm == Q_ONE)
            rq = 1.0;
        else
            rq = pow(sqrt(r2), qf);
        cf[j] = (kf1 + kfq * rq) * w;
        gw[j] = tame_g != 0.0 ? cg * w : cg;
    }
}

STEP_CLONES
static void pair_factors(double *restrict cf, double *restrict gw,
                         ptrdiff_t j0, ptrdiff_t n, double kf1, double kfq,
                         double qf, double cg, double tam, double te,
                         double tame_g)
{
    int wm = tam == 0.0 || te == 0.0 ? W_CONST
             : te == 2.0             ? W_R2
             : te == 4.0             ? W_R4
                                     : W_POW;
    int qm = qf == 2.0 ? Q_R2 : qf == 0.0 ? Q_ONE : Q_POW;
    /* w at tam == 0 is exactly 1; at te == 0 it is 1 / (1 + tam 1) */
    double wc = tam == 0.0 ? 1.0 : 1.0 / (1.0 + tam * 1.0);

#define CASE(w, q)                                                         \
    case 3 * (w) + (q):                                                    \
        pair_factors_case(cf, gw, j0, n, w, q, wc, kf1, kfq, qf, cg, tam,  \
                          te, tame_g);                                     \
        break;
#define CASES(w) CASE(w, Q_R2) CASE(w, Q_ONE) CASE(w, Q_POW)
    switch (3 * wm + qm) {
        CASES(W_CONST)
        CASES(W_R2)
        CASES(W_R4)
        CASES(W_POW)
    }
#undef CASES
#undef CASE
}

/* The terms of the block of `rows` rows from i0 on the k components of a
 * chunk: xs, fs and gs are the chunk's structure-of-arrays rows (stride
 * n), x and f, g the chunk's first column of X, F and G (stride d), and
 * cf + r n and gw + r n the pair factors of block row r. Row i's sum is
 * its mirrored terms, -f(x_j, x_i) from every row j < i in ascending j,
 * then its own terms in ascending j; fs and gs hold the mirrored part.
 * The pairs inside the block go first, row by row. Then the mirrored terms
 * of every partner j past the block, one pass over j per component that
 * vectorises, and the block's own sums over those partners in ascending j.
 * A full block takes them in tiles of PAIR_TILE partners: in each tile the
 * loop over its rows is the one the compiler vectorises, so each vector
 * lane holds one row's sums and adds that row's terms of the tile one
 * after another, the operations of the row's scalar chain on the same
 * values, and no sum is reassociated. The pragma keeps the compiler from
 * unrolling that loop, which would leave it nothing to vectorise but the
 * partners. The partners after the last whole tile, and every partner of a
 * short last block (1 to PAIR_ROWS - 1 rows), go one at a time, one chain
 * per row, component and array. The rows sit in the lanes through a loop
 * rather than a vector extension type: the baseline build has no register
 * for a four-double vector and kept it in memory, 1.9-3.1x slower than
 * scalar chains at N = 1024, d = 3 and 8. Nothing adds to a row after its
 * block, so its sums go to f and g, divided by dn. */
ALWAYS_INLINE void pair_block_chunk(const double *restrict xs, ptrdiff_t n,
                                    const double *x, ptrdiff_t d, int k,
                                    ptrdiff_t i0, int rows,
                                    const double *restrict cf,
                                    const double *restrict gw,
                                    double *restrict fs, double *restrict gs,
                                    double *f, double *g, double dn)
{
    double a[PAIR_CHUNK][PAIR_ROWS], af[PAIR_CHUNK][PAIR_ROWS],
        ag[PAIR_CHUNK][PAIR_ROWS], v, sf, sg;
    ptrdiff_t j, j1 = i0 + rows;
    int r, c, t;

    for (r = 0; r < rows; r++)
        for (c = 0; c < k; c++)
            a[c][r] = x[(i0 + r) * d + c];
    for (r = 0; r < rows; r++) {
        for (c = 0; c < k; c++) {
            af[c][r] = fs[c * n + i0 + r];
            ag[c][r] = gs[c * n + i0 + r];
        }
        for (j = i0 + r + 1; j < j1; j++)
            for (c = 0; c < k; c++) {
                v = a[c][r] - xs[c * n + j];
                af[c][r] = af[c][r] + cf[r * n + j] * v;
                ag[c][r] = ag[c][r] + gw[r * n + j] * v;
                fs[c * n + j] = fs[c * n + j] - cf[r * n + j] * v;
                gs[c * n + j] = gs[c * n + j] - gw[r * n + j] * v;
            }
    }
    for (c = 0; c < k; c++)
        for (j = j1; j < n; j++) {
            sf = fs[c * n + j];
            sg = gs[c * n + j];
            for (r = 0; r < rows; r++) {
                v = a[c][r] - xs[c * n + j];
                sf = sf - cf[r * n + j] * v;
                sg = sg - gw[r * n + j] * v;
            }
            fs[c * n + j] = sf;
            gs[c * n + j] = sg;
        }
    j = j1;
    if (rows == PAIR_ROWS)
        for (; j + PAIR_TILE <= n; j += PAIR_TILE)
#pragma GCC unroll 1
            for (r = 0; r < PAIR_ROWS; r++)
                for (t = 0; t < PAIR_TILE; t++)
                    for (c = 0; c < k; c++) {
                        v = a[c][r] - xs[c * n + j + t];
                        af[c][r] = af[c][r] + cf[r * n + j + t] * v;
                        ag[c][r] = ag[c][r] + gw[r * n + j + t] * v;
                    }
    for (; j < n; j++)
        for (r = 0; r < rows; r++)
            for (c = 0; c < k; c++) {
                v = a[c][r] - xs[c * n + j];
                af[c][r] = af[c][r] + cf[r * n + j] * v;
                ag[c][r] = ag[c][r] + gw[r * n + j] * v;
            }
    for (r = 0; r < rows; r++)
        for (c = 0; c < k; c++) {
            f[(i0 + r) * d + c] = af[c][r] / dn;
            g[(i0 + r) * d + c] = ag[c][r] / dn;
        }
}

/* X is a C-contiguous n x d float64 array with d >= 1; F and G (n x d as
 * well) are overwritten with the pair sums. work holds
 * 3 n d + 2 PAIR_ROWS n = 3 n d + 8 n doubles: the structure-of-arrays copy
 * of X, the mirrored sums of F and G in the same layout, and the pair
 * factors of one block of rows. The all-zero-kernel short-circuit is done
 * by the caller. */
STEP_CLONES
void mvsde_pair_aggregate(const double *restrict X, ptrdiff_t n,
                          ptrdiff_t d, double kf1, double kfq, double qf,
                          double cg, double tam, double te, double tame_g,
                          double *restrict F, double *restrict G,
                          double *restrict work)
{
    double *xs = work, *fs = xs + n * d, *gs = fs + n * d;
    double *cf = gs + n * d, *gw = cf + PAIR_ROWS * n, dn = (double)n;
    ptrdiff_t i, i0, j, c, c0;
    int rows;

    for (j = 0; j < n; j++)
        for (c = 0; c < d; c++)
            xs[c * n + j] = X[j * d + c];
    memset(fs, 0, 2 * (size_t)(n * d) * sizeof(double));
    for (i0 = 0; i0 < n; i0 += PAIR_ROWS) {
        rows = n - i0 < PAIR_ROWS ? (int)(n - i0) : PAIR_ROWS;
        for (i = i0; i < i0 + rows; i++) {
            double *r2 = cf + (i - i0) * n, *w = gw + (i - i0) * n;
            const double *xi = X + i * d;
#define R2(k) pair_r2_chunk(xs, n, xi, k, 1, i + 1, r2)
            PAIR_CHUNKED(d, R2)
#undef R2
            for (c0 = PAIR_CHUNK; c0 < d; c0 += PAIR_CHUNK) {
#define R2(k) pair_r2_chunk(xs + c0 * n, n, xi + c0, k, 0, i + 1, r2)
                PAIR_CHUNKED(d - c0, R2)
#undef R2
            }
            pair_factors(r2, w, i + 1, n, kf1, kfq, qf, cg, tam, te, tame_g);
        }
        for (c0 = 0; c0 < d; c0 += PAIR_CHUNK) {
#define BLOCK(k, r) pair_block_chunk(xs + c0 * n, n, X + c0, d, k, i0, r, \
                                     cf, gw, fs + c0 * n, gs + c0 * n,     \
                                     F + c0, G + c0, dn)
#define FULL(k) BLOCK(k, PAIR_ROWS)
#define LAST(k) BLOCK(k, rows)
            if (rows == PAIR_ROWS) {
                PAIR_CHUNKED(d - c0, FULL)
            } else {
                PAIR_CHUNKED(d - c0, LAST)
            }
#undef LAST
#undef FULL
#undef BLOCK
        }
    }
}

/* Coefficients of one run of the scheme; mirrored by mvsde._core._Coeffs.
 * The self drift is beta1 x + betaq x |x|^q_b plus kap_pair * (mean - x)
 * (pairwise measure mode) and lam * mean (functional mode). The diffusion
 * diagonal s0 + s1 x + c_s (mean - x) covers the first k_noise = min(d, l)
 * components. When gamma != 0 both are divided by 1 + gamma |x|^e, and the
 * pair kernel kf1, kfq, q_f, c_g of mvsde_pair_aggregate is tamed at the
 * same gamma and e, g included. */
struct mvsde_coeffs {
    double h;
    double beta1, betaq, q_b, lam, kap_pair;
    double s0, s1, c_s, gamma, e;
    double kf1, kfq, q_f, c_g;
    ptrdiff_t k_noise;
};

/* NumPy's pairwise summation, the inner loop of add.reduce: sequential
 * below 8 terms, 8 accumulators up to 128, above that split in two halves
 * at n/2 rounded down to a multiple of 8. */
static double np_sum(const double *a, ptrdiff_t n)
{
    ptrdiff_t i, j, n2;
    double r[8], res;

    if (n < 8) {
        res = 0.0;
        for (i = 0; i < n; i++)
            res = res + a[i];
        return res;
    }
    if (n <= 128) {
        for (j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - n % 8; i += 8)
            for (j = 0; j < 8; j++)
                r[j] = r[j] + a[i + j];
        res = ((r[0] + r[1]) + (r[2] + r[3]))
              + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res = res + a[i];
        return res;
    }
    n2 = n / 2;
    n2 -= n2 % 8;
    return np_sum(a, n2) + np_sum(a + n2, n - n2);
}

/* Calls body(k) with the literal k = 1 when d is 1 and with k = d
 * otherwise, so that at d = 1 a pass over the elements of the n x d rows
 * vectorises over the rows. */
#define BY_DIM(d, body)                                                    \
    if ((d) == 1) {                                                        \
        body(1);                                                           \
    } else {                                                               \
        body(d);                                                           \
    }

/* r2[i] = np.sum(x * x, axis=-1)[i] for the n rows of x (n x d), as NumPy
 * sums it: from 0.0 in ascending components below 8 components, where
 * np_sum is sequential, and np_sum of the row's squares, kept in sq (d
 * doubles), from 8 on; either sum is then added to 0.0. */
ALWAYS_INLINE void row_norms_dim(const double *restrict x, ptrdiff_t n,
                                 ptrdiff_t d, double *restrict sq,
                                 double *restrict r2)
{
    double s;
    ptrdiff_t i, c;

    if (d < 8) {
        for (i = 0; i < n; i++) {
            s = 0.0;
            for (c = 0; c < d; c++)
                s = s + x[i * d + c] * x[i * d + c];
            r2[i] = 0.0 + s;
        }
    } else {
        for (i = 0; i < n; i++) {
            for (c = 0; c < d; c++)
                sq[c] = x[i * d + c] * x[i * d + c];
            r2[i] = 0.0 + np_sum(sq, d);
        }
    }
}

STEP_CLONES
static void row_norms(const double *restrict x, ptrdiff_t n, ptrdiff_t d,
                      double *restrict sq, double *restrict r2)
{
#define NORMS(k) row_norms_dim(x, n, k, sq, r2)
    BY_DIM(d, NORMS)
#undef NORMS
}

/* y = x + (b + F) h over the elements of the n x d rows, with step's self
 * drift b = beta1 v [+ betaq v pw] [+ kap_pair (mean - v)] [+ lam mean]
 * [/ den] of each element v. The switches are loop invariants, which
 * -O3 unswitches out of the loop. F is added even when zero: b + 0.0
 * makes -0.0 +0.0. */
ALWAYS_INLINE void drift_pass(const struct mvsde_coeffs *cf,
                              const double *restrict x, double *restrict y,
                              ptrdiff_t n, ptrdiff_t d,
                              const double *restrict F,
                              const double *restrict mean,
                              const double *restrict pw,
                              const double *restrict den)
{
    const double h = cf->h, beta1 = cf->beta1, betaq = cf->betaq;
    const double kap = cf->kap_pair, lam = cf->lam;
    const int grow = betaq != 0.0, pull = kap != 0.0, shift = lam != 0.0,
              tame = cf->gamma != 0.0;
    double v, b;
    ptrdiff_t i, c;

    for (i = 0; i < n; i++)
        for (c = 0; c < d; c++) {
            v = x[i * d + c];
            b = beta1 * v;
            if (grow)
                b = b + betaq * v * pw[i];
            if (pull)
                b = b + kap * (mean[c] - v);
            if (shift)
                b = b + lam * mean[c];
            if (tame)
                b = b / den[i];
            y[i * d + c] = v + (b + F[i * d + c]) * h;
        }
}

/* y += (s + G) dW on the first k components of each row, with step's
 * noise diagonal s = s0 [+ s1 v] [+ c_s (mean - v)] [/ den]; particle i's
 * noise row starts at dw[i * dw_row]. */
ALWAYS_INLINE void noise_pass(const struct mvsde_coeffs *cf,
                              const double *restrict x, double *restrict y,
                              ptrdiff_t n, ptrdiff_t d, ptrdiff_t k,
                              const double *restrict G,
                              const double *restrict mean,
                              const double *restrict den,
                              const double *restrict dw, ptrdiff_t dw_row)
{
    const double s0 = cf->s0, s1 = cf->s1, c_s = cf->c_s;
    const int lin = s1 != 0.0, pull = c_s != 0.0,
              tame = cf->gamma != 0.0;
    double v, s;
    ptrdiff_t i, c;

    for (i = 0; i < n; i++)
        for (c = 0; c < k; c++) {
            v = x[i * d + c];
            s = s0;
            if (lin)
                s = s + s1 * v;
            if (pull)
                s = s + c_s * (mean[c] - v);
            if (tame)
                s = s / den[i];
            y[i * d + c] = y[i * d + c] + (s + G[i * d + c])
                                          * dw[i * dw_row + c];
        }
}

/* One step from x into y, as mvsde.scheme.step computes it; work holds F
 * and G (n x d each), the mean (d), the squares of one row (d) and
 * mvsde_pair_aggregate's scratch (at least 3 n doubles), whose first 3 n
 * hold the vectors r2, pw and den once the pair sums are done. When r2_out
 * is not NULL it receives the squared norm of every row of y. Returns 0
 * when y holds a non-finite value.
 *
 * The self terms run as passes over the particles: the squared norms r2,
 * then pw = |x|^q_b and den = 1 + gamma |x|^e with one loop per
 * exponent case (libm pow, which stays scalar, only outside the special
 * cases), then the drift and the noise over the elements, with the
 * coefficient switches as loop invariants, then one test of every element
 * of y. Each element sees the operations of step in its order:
 * only the order in which the elements are visited changed, and that
 * changes no bit. */
STEP_CLONES
static int step_once(const struct mvsde_coeffs *cf, const double *x,
                     double *y, ptrdiff_t n, ptrdiff_t d, const double *dw,
                     ptrdiff_t dw_row, double *work, double *r2_out)
{
    double *F = work, *G = work + n * d, *mean = G + n * d, *sq = mean + d;
    double *r2 = sq + d, *pw = r2 + n, *den = pw + n;
    double dn = (double)n, q = cf->q_b, e = cf->e, gamma = cf->gamma, r;
    double bad = 0.0;
    ptrdiff_t i, c, k = cf->k_noise;

    if (cf->lam != 0.0 || cf->kap_pair != 0.0 || cf->c_s != 0.0) {
        /* x.mean(axis=0): one pairwise reduction at d == 1, an ascending
         * loop per component otherwise, both from 0.0 */
        if (d == 1) {
            mean[0] = (0.0 + np_sum(x, n)) / dn;
        } else {
            for (c = 0; c < d; c++)
                mean[c] = 0.0;
            for (i = 0; i < n; i++)
                for (c = 0; c < d; c++)
                    mean[c] = mean[c] + x[i * d + c];
            for (c = 0; c < d; c++)
                mean[c] = mean[c] / dn;
        }
    }
    if (cf->kf1 != 0.0 || cf->kfq != 0.0 || cf->c_g != 0.0)
        mvsde_pair_aggregate(x, n, d, cf->kf1, cf->kfq, cf->q_f, cf->c_g,
                             gamma, e, 1.0, F, G, r2);
    else
        memset(F, 0, 2 * (size_t)(n * d) * sizeof(double));

    if (cf->betaq != 0.0 || gamma != 0.0)
        row_norms(x, n, d, sq, r2);
    if (cf->betaq != 0.0) {
        if (q == 2.0)
            for (i = 0; i < n; i++) {
                r = sqrt(r2[i]);
                pw[i] = r * r;
            }
        else if (q == 1.0)
            for (i = 0; i < n; i++)
                pw[i] = sqrt(r2[i]);
        else if (q == 0.0)
            for (i = 0; i < n; i++)
                pw[i] = 1.0;
        else
            for (i = 0; i < n; i++)
                pw[i] = pow(sqrt(r2[i]), q);
    }
    if (gamma != 0.0) {
        if (e == 2.0)
            for (i = 0; i < n; i++)
                den[i] = 1.0 + gamma * r2[i];
        else if (e == 4.0)
            for (i = 0; i < n; i++)
                den[i] = 1.0 + gamma * (r2[i] * r2[i]);
        else if (e == 0.0)
            for (i = 0; i < n; i++)
                den[i] = 1.0 + gamma * 1.0;
        else
            for (i = 0; i < n; i++)
                den[i] = 1.0 + gamma * pow(sqrt(r2[i]), e);
    }

#define DRIFT(dk) drift_pass(cf, x, y, n, dk, F, mean, pw, den)
    BY_DIM(d, DRIFT)
    /* k <= d, so k is 1 at d = 1 */
#define NOISE(dk) noise_pass(cf, x, y, n, dk, (dk) == 1 ? 1 : k, G, mean, \
                             den, dw, dw_row)
    if (k > 0) {
        BY_DIM(d, NOISE)
    }
#undef NOISE
#undef DRIFT

    /* v * 0.0 is 0.0 for a finite v and nan for inf and nan; the select
     * compiles to a mask, not a branch per element */
    for (i = 0; i < n * d; i++)
        bad = y[i] * 0.0 != 0.0 ? 1.0 : bad;
    if (r2_out != NULL)
        row_norms(y, n, d, sq, r2_out);
    return bad == 0.0;
}

/* Advance the n x d ensemble in X by up to `steps` steps, alternating
 * between X and Y, and leave the last state in X. Step s reads its noise
 * row of particle i at dw[s * dw_step + i * dw_row]. Stops after the first
 * step that produces a non-finite value. Returns the number of steps with
 * a finite result: a return r < steps means step r + 1 was done and
 * overflowed. work holds 2 n d + 2 d doubles and then the scratch of
 * mvsde_pair_aggregate, as step_once lays them out. When obs is not NULL
 * (steps x n), row s receives the squared particle norms of the state that
 * step s of the call produced. When keep is not NULL (steps flags), the
 * state that step s produced is copied into the next n x d row of rec
 * wherever keep[s] is nonzero. Both cover every step done, the
 * overflowing one included. */
ptrdiff_t mvsde_advance(const struct mvsde_coeffs *cf, double *X, double *Y,
                        ptrdiff_t n, ptrdiff_t d, const double *dw,
                        ptrdiff_t dw_step, ptrdiff_t dw_row, ptrdiff_t steps,
                        double *work, double *obs, const uint8_t *keep,
                        double *rec)
{
    double *cur = X, *next = Y, *tmp;
    size_t bytes = (size_t)(n * d) * sizeof(double);
    ptrdiff_t s;
    int finite = 1;

    for (s = 0; s < steps && finite; s++) {
        finite = step_once(cf, cur, next, n, d, dw + s * dw_step, dw_row,
                           work, obs != NULL ? obs + s * n : NULL);
        if (keep != NULL && keep[s]) {
            memcpy(rec, next, bytes);
            rec += n * d;
        }
        tmp = cur;
        cur = next;
        next = tmp;
    }
    if (cur != X)
        memcpy(X, cur, bytes);
    return finite ? s : s - 1;
}

/* Partials of a correctly rounded sum: Shewchuk's expansions are
 * nonoverlapping, so they never hold more values than there are bit
 * positions from 2^-1074 to 2^1023. */
#define FSUM_PARTIALS 2100

/* Correctly rounded sum of one row, math.fsum's algorithm: Shewchuk's
 * grow-expansion over the terms, then the partials added from the top with
 * fsum's correction for round-half-even across partials. */
static double fsum_row(const double *a, ptrdiff_t n)
{
    double p[FSUM_PARTIALS], x, y, t, hi, yr, lo = 0.0, xsave;
    double special = 0.0, inf_sum = 0.0;
    ptrdiff_t i, j, k, m = 0;

    for (k = 0; k < n; k++) {
        x = a[k];
        xsave = x;
        for (i = j = 0; j < m; j++) {
            y = p[j];
            if (fabs(x) < fabs(y)) {
                t = x;
                x = y;
                y = t;
            }
            hi = x + y;
            yr = hi - x;
            lo = y - yr;
            if (lo != 0.0)
                p[i++] = lo;
            x = hi;
        }
        m = i;
        if (x != 0.0) {
            if (!isfinite(x)) {
                /* finite terms overflowed: fsum raises OverflowError */
                if (isfinite(xsave))
                    return INFINITY;
                if (isinf(xsave))
                    inf_sum += xsave;
                special += xsave;
                m = 0;
            } else {
                p[m++] = x;
            }
        }
    }
    if (special != 0.0)
        /* inf and -inf in one row (fsum raises ValueError) give nan */
        return isnan(inf_sum) ? NAN : special;

    hi = 0.0;
    if (m > 0) {
        hi = p[--m];
        while (m > 0) {
            x = hi;
            y = p[--m];
            hi = x + y;
            yr = hi - x;
            lo = y - yr;
            if (lo != 0.0)
                break;
        }
        if (m > 0 && ((lo < 0.0 && p[m - 1] < 0.0)
                      || (lo > 0.0 && p[m - 1] > 0.0))) {
            y = lo * 2.0;
            x = hi + y;
            yr = x - hi;
            if (y == yr)
                hi = x;
        }
    }
    return hi;
}

/* The compensated pass of one row runs FSUM_LANES TwoSum chains, lane l
 * over the terms j = l mod FSUM_LANES, in two vectors of four doubles: a
 * single chain is one run of dependent adds, and eight independent ones
 * keep the adder busy. fsum_v4 is a GCC and Clang vector extension type;
 * no function takes or returns one by value, whose ABI would differ
 * between the AVX2 and the baseline clone. */
#define FSUM_LANES 8
typedef double fsum_v4 __attribute__((vector_size(32)));
typedef int64_t fsum_v4i __attribute__((vector_size(32)));

/* |x| of each element: the sign bit cleared, as fabs does. */
#define FSUM_ABS(x) ((fsum_v4)((fsum_v4i)(x) & INT64_MAX))

/* One TwoSum step of four lanes: s + x rounded into s, its exact error
 * added to c, |error| to ea and |x| to sa. */
#define FSUM_STEP(s, c, ea, sa, x)                                         \
    do {                                                                   \
        fsum_v4 t_ = (s) + (x), z_ = t_ - (s);                             \
        fsum_v4 e_ = ((s) - (t_ - z_)) + ((x) - z_);                       \
        (s) = t_;                                                          \
        (c) += e_;                                                         \
        (ea) += FSUM_ABS(e_);                                              \
        (sa) += FSUM_ABS(x);                                               \
    } while (0)

/* The sum of the n terms of row a, from the compensated pass's totals over
 * it. The pass runs TwoSum chains from 0.0 (FSUM_STEP): for each term x
 * of a chain, t = s + x and its exact error e, s = t, c += e, ea += |e|,
 * sa += |x|. The last, partial group of terms is padded with zeros, which
 * add an exact 0 to every total and so change no value. The lanes are then
 * folded in a tree, lane l + w into lane l for w = 4, 2, 1: s by TwoSum,
 * whose error e joins c and ea as c += c' + e and ea += ea' + |e|, and
 * sa += sa'. res = s + c rounded and r, its error, are TwoSum(s, c). With
 * m = floor(n / 8) + 7, res is returned when
 *   sa < 2^1000, n < 2^40, |res| >= 2^-1000 and
 *   |r| + ea * (4 (m + 1) * 2^-53) < half,
 *   half = (|res| - nextafter(|res|, 0)) / 2,
 * and fsum_row's value otherwise. Why that is fsum's value:
 * - sa < 2^1000 holds for no row with an inf or a nan and keeps every s, c,
 *   t and ea far from overflow, so every TwoSum, the fold's too, is exact:
 *   the exact sum is S = s + sum(e) over the errors e of all of them, and
 *   res + r = s + c exactly. It also leaves out every finite row whose sum
 *   passes the float range, where fsum raises OverflowError.
 * - c is a floating-point sum of these e, in a tree in which each e meets
 *   at most ceil(n / 8) + 6 <= m roundings (one per term of its chain, then
 *   at most two per fold level), so |sum(e) - c| <= gamma(m) * sum(|e|)
 *   (Higham, "Accuracy and Stability of Numerical Algorithms", 2nd ed.,
 *   section 4.2), gamma(k) = k u / (1 - k u), u = 2^-53.
 * - ea sums the |e| in the same tree, so it is at least
 *   sum(|e|) (1 - u)^m, and the product rounds once more; with n < 2^40
 *   the bound term is more than 3.9 gamma(m) sum(|e|). A
 *   product in the subnormal range can lose up to 2^-1075 more; that slack
 *   covers it unless sum(|e|) < 2^-1022, and then every partial sum of c is
 *   below 2^-1021, where additions are exact, and c = sum(e).
 * - half is exact, as |res| >= 2^-1000, and rounding is monotone: the
 *   floating-point |r| + bound below half means the exact one is too.
 *   Then |S - res| <= |r| + |sum(e) - c| < half: S lies closer to res than
 *   half the gap toward zero, which is no wider than the gap away from
 *   zero. So res is the nearest double to S, S is no tie, and res is
 *   nonzero and normal, so its sign is S's: res is the value fsum returns.
 */
ALWAYS_INLINE double fsum_certified(const double *a, ptrdiff_t n, double s,
                                    double c, double ea, double sa)
{
    double res = s + c, z = res - s, r = (s - (res - z)) + (c - z);
    double ares = fabs(res);
    ptrdiff_t m = n / FSUM_LANES + 7;

    if (sa < 0x1p1000 && n < ((ptrdiff_t)1 << 40) && ares >= 0x1p-1000
        && fabs(r) + ea * ((double)(4 * (m + 1)) * 0x1p-53)
               < (ares - nextafter(ares, 0.0)) / 2.0)
        return res;
    return fsum_row(a, n);
}

/* The correctly rounded sum of the n terms of row a: the lane pass, then
 * fsum_certified. */
ALWAYS_INLINE double fsum_lanes(const double *a, ptrdiff_t n)
{
    fsum_v4 s0 = {0}, c0 = {0}, ea0 = {0}, sa0 = {0}, x0, x1;
    fsum_v4 s1 = {0}, c1 = {0}, ea1 = {0}, sa1 = {0};
    double s[FSUM_LANES], c[FSUM_LANES], ea[FSUM_LANES], sa[FSUM_LANES];
    double pad[FSUM_LANES] = {0}, t, z, e;
    ptrdiff_t j;
    int w, l;

    for (j = 0; j < n; j += FSUM_LANES) {
        const double *x = a + j;
        if (n - j < FSUM_LANES) {
            memcpy(pad, x, (size_t)(n - j) * sizeof *x);
            x = pad;
        }
        memcpy(&x0, x, sizeof x0);
        memcpy(&x1, x + 4, sizeof x1);
        FSUM_STEP(s0, c0, ea0, sa0, x0);
        FSUM_STEP(s1, c1, ea1, sa1, x1);
    }
    /* lanes 0-3 from the first vector, 4-7 from the second */
    memcpy(s, &s0, sizeof s0);
    memcpy(s + 4, &s1, sizeof s1);
    memcpy(c, &c0, sizeof c0);
    memcpy(c + 4, &c1, sizeof c1);
    memcpy(ea, &ea0, sizeof ea0);
    memcpy(ea + 4, &ea1, sizeof ea1);
    memcpy(sa, &sa0, sizeof sa0);
    memcpy(sa + 4, &sa1, sizeof sa1);
    for (w = FSUM_LANES / 2; w >= 1; w /= 2) {
        for (l = 0; l < w; l++) {
            t = s[l] + s[l + w];
            z = t - s[l];
            e = (s[l] - (t - z)) + (s[l + w] - z);
            s[l] = t;
            c[l] += c[l + w] + e;
            ea[l] += ea[l + w] + fabs(e);
            sa[l] += sa[l + w];
        }
    }
    return fsum_certified(a, n, s[0], c[0], ea[0], sa[0]);
}

/* out[r] = the correctly rounded sum of row r of the C-contiguous
 * rows x cols array a: math.fsum's value where fsum returns one, +inf
 * where it raises OverflowError (finite terms whose sum leaves the float
 * range) and nan where it raises ValueError (inf and -inf in one row). */
STEP_CLONES
void mvsde_fsum_rows(const double *a, ptrdiff_t rows, ptrdiff_t cols,
                     double *out)
{
    ptrdiff_t r;

    for (r = 0; r < rows; r++)
        out[r] = fsum_lanes(a + r * cols, cols);
}

/* Philox4x64-10 multipliers and Weyl key increments, as in numpy's
 * philox.h */
#define PHILOX_M0 0xD2E7470EE14C6C93ULL
#define PHILOX_M1 0xCA5A826395121157ULL
#define PHILOX_W0 0x9E3779B97F4A7C15ULL
#define PHILOX_W1 0xBB67AE8584CAA73BULL

/* The 4 words of one Philox4x64-10 block at counter (ctr, 0, 0, 0) and
 * key (k0, k1): ten rounds, the key bumped before every round but the
 * first. */
static void philox_block(uint64_t ctr, uint64_t k0, uint64_t k1,
                         uint64_t out[4])
{
    uint64_t c0 = ctr, c1 = 0, c2 = 0, c3 = 0;
    unsigned __int128 p0, p1;
    int round;

    /* unrolled, the rounds' multiplications overlap */
#pragma GCC unroll 10
    for (round = 0; round < 10; round++) {
        if (round > 0) {
            k0 += PHILOX_W0;
            k1 += PHILOX_W1;
        }
        p0 = (unsigned __int128)PHILOX_M0 * c0;
        p1 = (unsigned __int128)PHILOX_M1 * c2;
        c0 = (uint64_t)(p1 >> 64) ^ c1 ^ k0;
        c1 = (uint64_t)p1;
        c2 = (uint64_t)(p0 >> 64) ^ c3 ^ k1;
        c3 = (uint64_t)p0;
    }
    out[0] = c0;
    out[1] = c1;
    out[2] = c2;
    out[3] = c3;
}

/* Stream i (0 <= i < n) is numpy.random.Philox(counter=0, key=(key0, i)):
 * the counter's low word is incremented before each 4-word block, and its
 * j-th double, (word >> 11) * 2^-53 as Generator.random gives it, goes to
 * out[j / l][i][j % l] of the C-contiguous s x n x l array out. A stream
 * holds s * l doubles, far fewer than the 2^66 at which the counter's low
 * word would carry. The loop runs over the blocks, then over the streams,
 * so at l = 1 the 4 words of each stream's block land in 4 rows that the
 * streams fill side by side, not 4 rows apart in one column. */
void mvsde_philox_uniforms(uint64_t key0, ptrdiff_t n, ptrdiff_t s,
                           ptrdiff_t l, double *out)
{
    uint64_t words[4];
    ptrdiff_t total = s * l, j0, r0, c0, r, c, i;
    int w, width;

    for (j0 = 0; j0 < total; j0 += 4) {
        width = total - j0 < 4 ? (int)(total - j0) : 4;
        r0 = j0 / l;
        c0 = j0 % l;
        for (i = 0; i < n; i++) {
            philox_block((uint64_t)(j0 / 4 + 1), key0, (uint64_t)i, words);
            r = r0;
            c = c0;
            for (w = 0; w < width; w++) {
                out[(r * n + i) * l + c] = (double)(words[w] >> 11)
                                           * (1.0 / 9007199254740992.0);
                if (++c == l) {
                    c = 0;
                    r++;
                }
            }
        }
    }
}

/* Cephes ndtri's rational approximations: P0/Q0 for |y - 1/2| <= 3/8 in
 * y^2, P1/Q1 for z = 1/sqrt(-2 log y) with y between exp(-32) and exp(-2),
 * P2/Q2 below exp(-32). The Q tables omit their leading coefficient 1. */
static const double NDTRI_P0[5] = {
    -5.99633501014107895267E1, 9.80010754185999661536E1,
    -5.66762857469070293439E1, 1.39312609387279679503E1,
    -1.23916583867381258016E0,
};
static const double NDTRI_Q0[8] = {
    1.95448858338141759834E0, 4.67627912898881538453E0,
    8.63602421390890590575E1, -2.25462687854119370527E2,
    2.00260212380060660359E2, -8.20372256168333339912E1,
    1.59056225126211695515E1, -1.18331621121330003142E0,
};
static const double NDTRI_P1[9] = {
    4.05544892305962419923E0, 3.15251094599893866154E1,
    5.71628192246421288162E1, 4.40805073893200834700E1,
    1.46849561928858024014E1, 2.18663306850790267539E0,
    -1.40256079171354495875E-1, -3.50424626827848203418E-2,
    -8.57456785154685413611E-4,
};
static const double NDTRI_Q1[8] = {
    1.57799883256466749731E1, 4.53907635128879210584E1,
    4.13172038254672030440E1, 1.50425385692907503408E1,
    2.50464946208309415979E0, -1.42182922854787788574E-1,
    -3.80806407691578277194E-2, -9.33259480895457427372E-4,
};
static const double NDTRI_P2[9] = {
    3.23774891776946035970E0, 6.91522889068984211695E0,
    3.93881025292474443415E0, 1.33303460815807542389E0,
    2.01485389549179081538E-1, 1.23716634817820021358E-2,
    3.01581553508235416007E-4, 2.65806974686737550832E-6,
    6.23974539184983293730E-9,
};
static const double NDTRI_Q2[8] = {
    6.02427039364742014255E0, 3.67983563856160859403E0,
    1.37702099489081330271E0, 2.16236993594496635890E-1,
    1.34204006088543189037E-2, 3.28014464682127739104E-4,
    2.89247864745380683936E-6, 6.79019408009981274425E-9,
};

/* Cephes polevl: coef[0] x^deg + ... + coef[deg] in Horner's order */
static inline double polevl(double x, const double *coef, int deg)
{
    double ans = coef[0];
    int i;

#pragma GCC unroll 8
    for (i = 1; i <= deg; i++)
        ans = ans * x + coef[i];
    return ans;
}

/* Cephes p1evl: polevl with a leading coefficient 1 that coef omits */
static inline double p1evl(double x, const double *coef, int deg)
{
    double ans = x + coef[0];
    int i;

#pragma GCC unroll 8
    for (i = 1; i < deg; i++)
        ans = ans * x + coef[i];
    return ans;
}

/* Cephes ndtri of one y0 in [0, 1] */
static double ndtri_one(double y0)
{
    double x, y, z, y2, x0, x1;
    int code = 1;

    if (y0 == 0.0)
        return -INFINITY;
    if (y0 == 1.0)
        return INFINITY;
    if (y0 < 0.0 || y0 > 1.0)
        return NAN;
    y = y0;
    if (y > 1.0 - 0.13533528323661269189) { /* exp(-2) */
        y = 1.0 - y;
        code = 0;
    }
    if (y > 0.13533528323661269189) {
        y = y - 0.5;
        y2 = y * y;
        x = y + y * (y2 * polevl(y2, NDTRI_P0, 4) / p1evl(y2, NDTRI_Q0, 8));
        return x * 2.50662827463100050242E0; /* sqrt(2 pi) */
    }
    x = sqrt(-2.0 * log(y));
    x0 = x - log(x) / x;
    z = 1.0 / x;
    if (x < 8.0) /* y > exp(-32) */
        x1 = z * polevl(z, NDTRI_P1, 8) / p1evl(z, NDTRI_Q1, 8);
    else
        x1 = z * polevl(z, NDTRI_P2, 8) / p1evl(z, NDTRI_Q2, 8);
    x = x0 - x1;
    if (code != 0)
        x = -x;
    return x;
}

/* a[i] = ndtri(a[i]) for the n doubles of a: scipy.special.ndtri's value,
 * -inf at 0, +inf at 1 and nan outside [0, 1]. */
void mvsde_ndtri(double *a, ptrdiff_t n)
{
    ptrdiff_t i;

    for (i = 0; i < n; i++)
        a[i] = ndtri_one(a[i]);
}
