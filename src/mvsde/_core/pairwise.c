/* Compiled pair kernel, fused step kernel, correctly rounded row sum,
 * Philox stream block, inverse normal CDF, Brownian increments and the
 * text of float lists.
 *
 * mvsde_pair_aggregate is the bit-identical twin of
 * mvsde._core.pairwise_py.pair_aggregate at tame_g = 1, g tamed as the
 * scheme tames it: same per-pair expression tree,
 * same exponent special cases with libm pow for every other exponent,
 * same final division by N. Each unordered pair is evaluated once and
 * mirrored by negation, which IEEE-754 makes exact. The skipped diagonal
 * contributes an exact zero in the reference for a finite row: its
 * x_i - x_i is +0.0, and a sum that starts at +0.0 is never -0.0, so
 * adding a signed zero changes nothing. A row with an infinite coordinate
 * has a nan there instead, which is why mvsde.scheme.simulate refuses a
 * non-finite state. The loop takes the rows in blocks of four, on a
 * structure-of-arrays copy of X, and the partners past a block in tiles of
 * four, each tile in one pass: v = x_i - x_j of its 16 pairs with the
 * block's rows in the vector lanes and the partner broadcast, their r2
 * (from 0.0, over the components in ascending order), the pair factors in
 * the lanes (scalar libm pow lane by lane in the pow cases, sqrt only
 * where pow needs r), then per component the products P = cf v and
 * Q = gw v, formed once, added to the rows' own sums in partner order and,
 * through a 4 x 4 transpose, subtracted from the partners' mirrored sums
 * in row order. The pairs inside a block and the partners after its last
 * whole tile take one scalar chain each. So each row still sums its
 * partners in ascending order, the reference's order: the mirrored terms
 * of the rows before it, then its own. Every value sees the operations of
 * the reference in its order, vector +, -, * and / round as their scalar
 * forms do and a shuffle only moves values, so the sums agree bit for bit.
 * At d >= 2 on a CPU with AVX-512 the blocks have eight rows (see "The
 * wide tile" below).
 *
 * mvsde_advance runs whole steps of mvsde.scheme.step for a block of steps
 * with no Python in the loop, bit for bit. It repeats step's NumPy
 * operation order: x.mean(axis=0) and np.sum(x * x, axis=-1) as NumPy's
 * add.reduce sums them (np_sum below), the self drift and diffusion
 * diagonal term by term, the pair sums from mvsde_pair_aggregate, then
 * x + (b + F) h and + (s + G) dW. It reads the finest Brownian table and
 * forms a step's dW at level n_max / r itself, as the sum of the r finest
 * rows the step covers (see "Level sums" below). As NumPy does, it
 * evaluates the self terms in passes over the particles, which the compiler
 * vectorises: the squared norms, the powers of the norms, then the drift
 * and the noise element by element, with each coefficient switch and
 * exponent case fixed outside the loop, and a branch-free test of the new
 * state for a non-finite value. Every element still sees step's operations
 * in step's order, and vector +, -, *, / and sqrt round as their scalar
 * forms do, so the bits are the same. It runs every model: each power site
 * keeps step's special cases (q_b in {0, 1, 2} gives 1, r and r * r, the
 * taming exponent e in {0, 2, 4} gives 1, r2 and r2 * r2) and sends any
 * other exponent to libm pow, as pairwise_py.power does on the NumPy side.
 * One site takes other operations, with a proof that they give the same
 * bits: at d = 1 and q_b = 2, |x|^q_b is the squared norm r2 itself, not
 * sqrt(r2) * sqrt(r2), because in round to nearest RN(RN(sqrt(r2))^2) is
 * r2 whenever r2 is the rounded square of one double (see step_once).
 * On request it also writes the squared norm of every particle after every
 * step, as np.sum(x * x, axis=-1) gives it, so the observers that need
 * every step (the moment and divergence trackers) read a block of steps per
 * call instead of stopping the kernel after each one, and a copy of the
 * state after each step a keep mask selects, straight into the next row of
 * the one array a StateRecorder owns for its run.
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
 * W2 route import SciPy. ndtri_one is the scalar transcription. The kernel
 * runs four values at a time (Giles, "Approximating the erfinv function",
 * GPU Computing Gems Jade, 2011, on branch-light vector evaluation): each
 * lane takes ndtri_one's fold y = 1 - y0 above 1 - exp(-2) by a bit
 * select and its central rational branch, and the lanes outside that
 * branch are gathered, without a branch, into a list. Four at a time
 * again, the gathered lanes that lie in the P1/Q1 tail take its
 * operations, with the two log calls scalar libm lane by lane; every other
 * lane (0, 1, values outside [0, 1], nan, y below about exp(-32)) goes
 * through ndtri_one. A lane's value is that of the branch ndtri_one takes
 * for it, computed by the same operations in the same order: vector +,
 * -, *, / and sqrt round as their scalar forms do, the select and the
 * sign flip only move bits, and -ffp-contract=off keeps out FMA. So the
 * values are ndtri_one's, bit for bit, at any lane position.
 *
 * mvsde_quantized_increments turns a block of Philox uniforms into the
 * tableau's increments in place, in the NumPy chain's operations:
 * rint(ndtri(max(u, 2^-54)) * sqrt(1 / n_max) / 2^-26) * 2^-26 + 0.0.
 *
 * mvsde_repr_join writes finite doubles, joined by a separator, as
 * float.__repr__ does, with Ryu's digits (Adams, "Ryu: fast
 * float-to-string conversion", PLDI 2018): the shortest decimal that
 * reads back to the double (round to nearest, ties to even) and, of
 * those, the closest to it. repr takes its digits from David Gay's dtoa
 * in mode 0, which defines them the same way, so they are equal, and
 * repr_one lays them out as repr does: fixed for a decimal exponent
 * -4 <= E < 16, with ".0" on an integral value, else d.ddde+XX with at
 * least two exponent digits, and "-" on every negative value, -0.0 too.
 * Its power-of-5 tables are computed from exact multiword integers when
 * the library is loaded (repr_tables), so no table literal is in this
 * file. A non-finite value makes it return -1.
 *
 * Level sums. The finest increments are integer multiples of 2^-26 with
 * no -0.0, and |ndtri(u)| < 8.3 on [2^-54, 1 - 2^-53], so each is below
 * 8.3 / sqrt(n_max) + 2^-27 in magnitude. A step at level n_max / r adds
 * r <= n_max of them, and every partial sum is a multiple of 2^-26 below
 * 8.3 sqrt(r) + r 2^-27 < 2^16 (r <= 2^24 under the table's element cap),
 * far inside the 2^27 up to which such multiples are doubles: every
 * addition is exact, and no partial sum is -0.0. So the sum has one value
 * in any order, rng.level_increments's NumPy sum included.
 *
 * Build with floating-point contraction disabled (-ffp-contract=off),
 * otherwise fused multiply-adds break the equality, and with nothing that
 * lets the compiler reassociate (-ffast-math, -fassociative-math); setup.py
 * passes -O3 -ffp-contract=off -fno-math-errno, the last so that sqrt needs
 * no errno branch and vectorises. Plain C with no Python or NumPy headers,
 * apart from the unsigned __int128 of the Philox multiplications and of
 * Ryu's products, the vector extension types and shuffles of the pair
 * tiles and the row sum, the always_inline, target_clones, target and
 * constructor attributes, __builtin_cpu_supports and the two AVX-512
 * intrinsics of the wide tile, which GCC and Clang provide, and
 * #pragma GCC unroll, which steers the compiler only and so changes no
 * value under a compiler that ignores it; mvsde._core loads it with
 * ctypes.
 *
 * Runtime dispatch. mvsde_pair_aggregate, row_norms, step_once,
 * mvsde_fsum_rows, mvsde_ndtri and mvsde_quantized_increments carry
 * STEP_CLONES: on x86-64 ELF with glibc, where the compiler has
 * target_clones, each is compiled twice, for AVX2 (four doubles per
 * instruction) and for the x86-64 baseline (SSE2, two, so a vector of four
 * doubles takes two registers), and the dynamic loader picks one per
 * function through an ifunc, once, by the CPU: an AVX2 CPU, AVX-512 ones
 * included, takes the AVX2 clone, any other the baseline one. The
 * ALWAYS_INLINE helpers are inlined into each clone and compiled for its
 * target. Elsewhere STEP_CLONES is empty and the build is the baseline one
 * alone. Both clones give the same bits: +, -, *, / and sqrt round alike at
 * every vector width, -ffp-contract=off forbids FMA in the AVX2 clone too,
 * nothing is reassociated, and pow and log stay scalar libm. AVX-512 runs
 * in one function of its own, the wide tile below, not in a third clone:
 * on a 2-vCPU Xeon VM (AVX-512), a whole-file x86-64-v4 build of the 4-row
 * tile took 1.07-1.59x the AVX2 clone's time per pair (poc-rate kernel,
 * d = 1, 3 and 8, N = 64 and 1024, medians of 31 interleaved rounds),
 * with 512-bit vectors preferred or not.
 *
 * The wide tile. pair_aggregate_wide, compiled with WIDE_TILE's
 * target("avx512f,avx512dq,avx512vl"), runs mvsde_pair_aggregate's loop
 * in blocks of WIDE_ROWS = 8 rows, the rows in the lanes of a 512-bit
 * vector, and the partners past a block in tiles of four (wide_tile). A
 * tile keeps its differences v = x_r - x_j in registers from the r2 pass
 * to the P = cf v, Q = gw v pass up to PAIR_DIMS components. The pair
 * factors of the exponent cases without pow (W_CONST, W_R2, W_R4 with
 * Q_R2 or Q_ONE) are formed in the vector lanes by pair_factors's
 * operations; the pow cases go through its lane arrays and scalar libm
 * pow. The rows' own sums take the products in partner order, and the
 * partners' mirrored sums take them in row order through an 8 x 4
 * transpose. The pairs inside a block are taken as two 4-row blocks take
 * them (pair_one among each half's rows, pair_tile from the first half to
 * the second), and the 1 to 3 partners after the last whole tile by
 * pair_one. So each row still sums its mirrored terms in ascending row
 * order, then its own in ascending partner order, every value sees the
 * reference's operations in its order, vector +, -, * and / round as
 * their scalar forms do, shuffles and broadcasts only move values, and
 * -ffp-contract=off keeps FMA out of this target too: the bits are the
 * 4-row tile's. mvsde_pair_aggregate calls it at d >= 2 when
 * __builtin_cpu_supports reports every feature that target names; d = 1,
 * other CPUs and builds without runtime dispatch keep the 4-row tile. On
 * the 2-vCPU Xeon VM (poc-rate kernel, medians of 41 interleaved rounds,
 * three runs) it took 1.09-1.10x, 0.99x, 0.93-0.94x, 0.88x, 0.84-0.90x
 * and 0.84x the 4-row AVX2 clone's time per call at d = 3 and N = 16, 32,
 * 64, 128, 256 and 1024, and 0.71x at d = 8, N = 1024. With pair_one
 * taking all 28 pairs inside each block it took 1.23-1.31x at N = 16 and
 * 1.01-1.03x at N = 64. At d = 1, 8-row blocks took 1.17-1.18x at N = 64,
 * the strong-rate shape, and 0.91-0.99x at N = 1024, hence d >= 2.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* Raised whenever a kernel's signature, struct mvsde_coeffs or the size of
 * its work array changes; mvsde._core loads no library whose value differs
 * from its own, so a stale build runs NumPy instead of passing arguments
 * that its kernels would misread or a work array they would overrun. */
const int mvsde_abi = 7;

/* The pair loop takes the rows in blocks of PAIR_ROWS, or of WIDE_ROWS in
 * the wide tile (see "The wide tile" above), and the partners past a block
 * in tiles of PAIR_TILE (pair_tile, wide_tile). Each row of the
 * structure-of-arrays scratch holds n + WIDE_ROWS doubles: with rows of
 * exactly n doubles, at N = 1024 every row starts a multiple of 4096 bytes
 * from every other, and the tile's loads stall on its stores to other rows
 * at the same page offset. Up to PAIR_DIMS components a block keeps
 * its rows' values and sums on the stack, beyond in the scratch, in
 * dk x WIDE_ROWS arrays of which a 4-row block uses the first 4 columns.
 * mvsde._core sizes the scratch from mvsde_pair_rows, the taller of the
 * two blocks. On a 2-vCPU Xeon VM (AVX-512), at the poc-rate kernel and
 * N = 64 and 1024, the 4-row loop took 0.51-0.54x the time per pair of
 * the three passes per block it replaced at d = 1 (2.0 -> 1.1 ns at
 * N = 1024), 0.62-0.69x at d = 3 and 0.72-0.75x at d = 8 in the AVX2
 * clone, and 0.81-0.95x in the baseline build (medians of 41 interleaved
 * rounds). Tiles of 2 partners ran 1.1-1.3x slower than tiles of 4 in the
 * AVX2 clone, rows of exactly n about 1.4x slower at d = 8 and N = 1024. */
#define PAIR_ROWS 4
#define WIDE_ROWS 8
#define PAIR_TILE 4
#define PAIR_LANES (WIDE_ROWS * PAIR_TILE) /* the most pairs of one tile */
#define PAIR_DIMS 3
const int mvsde_pair_rows = WIDE_ROWS;

#define ALWAYS_INLINE static inline __attribute__((always_inline))

/* Four doubles, and four int64 lanes for masks and bit operations: the
 * rows of a pair block (PAIR_ROWS is 4), four TwoSum chains of the row sum
 * and four values of the inverse normal CDF. GCC and Clang vector
 * extension types, which no function takes or returns by value, whose ABI
 * would differ between the AVX2 and the baseline clone. A vec4 is loaded
 * with memcpy and stored lane by lane (VEC4_STORE), which the AVX2 clone
 * merges into one store; the baseline clone copied a memcpy'd store
 * through the stack. */
typedef double vec4 __attribute__((vector_size(4 * sizeof(double))));
typedef int64_t vec4i __attribute__((vector_size(sizeof(vec4))));
#define VEC4_STORE(dst, v)                                                 \
    do {                                                                   \
        int l_;                                                            \
        for (l_ = 0; l_ < 4; l_++)                                         \
            (dst)[l_] = (v)[l_];                                           \
    } while (0)

/* See "Runtime dispatch" above; __GLIBC__ comes from the headers above. */
#if defined(__x86_64__) && defined(__ELF__) && defined(__GLIBC__)         \
    && defined(__has_attribute)
#if __has_attribute(target_clones)
#define STEP_CLONES __attribute__((target_clones("avx2", "default")))
#define WIDE_TILE __attribute__((target("avx512f,avx512dq,avx512vl")))
#endif
#endif
#ifndef STEP_CLONES
#define STEP_CLONES
#endif

/* Exponent cases of the pair factors: the weight w is a constant (tam is 0
 * or te is 0), 1 / (1 + tam r2), 1 / (1 + tam r2 r2) or libm pow's; r^qf
 * is r2, 1 or libm pow's. */
enum { W_CONST, W_R2, W_R4, W_POW };
enum { Q_R2, Q_ONE, Q_POW };

/* The pair kernel of one call with its exponent cases; wc is the weight of
 * W_CONST. */
struct pair_kernel {
    double kf1, kfq, qf, cg, tam, te, wc;
    int wm, qm;
};

/* The pair factors of the m squared radii r2[l], as
 * pairwise_py.pair_factors computes them: cf[l] = (kf1 + kfq r^qf) w and
 * gw[l] = cg w, w = 1 / (1 + tam r^te), exactly 1 when tam is 0, with
 * r = sqrt(r2) taken only where libm pow needs it.
 * Each exponent case is one loop over the m lanes, which the compiler
 * vectorises but for the pow cases, where each lane calls scalar libm
 * pow. */
ALWAYS_INLINE void pair_factors(const struct pair_kernel *k,
                                const double *r2, double *cf, double *gw,
                                int m)
{
    double w[PAIR_LANES], rq[PAIR_LANES];
    int l;

    switch (k->wm) {
    case W_CONST:
        for (l = 0; l < m; l++)
            w[l] = k->wc;
        break;
    case W_R2:
        for (l = 0; l < m; l++)
            w[l] = 1.0 / (1.0 + k->tam * r2[l]);
        break;
    case W_R4:
        for (l = 0; l < m; l++)
            w[l] = 1.0 / (1.0 + k->tam * (r2[l] * r2[l]));
        break;
    default:
        for (l = 0; l < m; l++)
            w[l] = 1.0 / (1.0 + k->tam * pow(sqrt(r2[l]), k->te));
    }
    switch (k->qm) {
    case Q_R2:
        for (l = 0; l < m; l++)
            rq[l] = r2[l];
        break;
    case Q_ONE:
        for (l = 0; l < m; l++)
            rq[l] = 1.0;
        break;
    default:
        for (l = 0; l < m; l++)
            rq[l] = pow(sqrt(r2[l]), k->qf);
    }
    for (l = 0; l < m; l++) {
        cf[l] = (k->kf1 + k->kfq * rq[l]) * w[l];
        gw[l] = k->cg * w[l];
    }
}

/* The pair of block row r, whose dk components are a[c][r], and partner j
 * as one scalar chain per value: r2 from 0.0 over the components in
 * ascending order, the factors, then per component P = cf v and Q = gw v
 * with v = x_r - x_j, added to the row's sums af[c][r] and ag[c][r] and
 * subtracted from the partner's in fs and gs (structure-of-arrays rows of
 * stride ns, as xs). */
ALWAYS_INLINE void pair_one(const struct pair_kernel *k,
                            const double *restrict xs, ptrdiff_t ns,
                            ptrdiff_t dk, double (*a)[WIDE_ROWS],
                            double (*af)[WIDE_ROWS], double (*ag)[WIDE_ROWS],
                            int r, ptrdiff_t j, double *restrict fs,
                            double *restrict gs)
{
    double r2 = 0.0, cf, gw, v;
    ptrdiff_t c;

    for (c = 0; c < dk; c++) {
        v = a[c][r] - xs[c * ns + j];
        r2 = r2 + v * v;
    }
    pair_factors(k, &r2, &cf, &gw, 1);
    for (c = 0; c < dk; c++) {
        v = a[c][r] - xs[c * ns + j];
        af[c][r] = af[c][r] + cf * v;
        ag[c][r] = ag[c][r] + gw * v;
        fs[c * ns + j] = fs[c * ns + j] - cf * v;
        gs[c * ns + j] = gs[c * ns + j] - gw * v;
    }
}

/* Lanes i, j, k and l of the eight lanes of a and then b; WIDE_SHUFFLE
 * takes eight of the sixteen lanes of two vec8. */
#if defined(__has_builtin)
#if __has_builtin(__builtin_shufflevector)
#define PAIR_SHUFFLE(a, b, i, j, k, l)                                     \
    __builtin_shufflevector(a, b, i, j, k, l)
#define WIDE_SHUFFLE(a, b, ...) __builtin_shufflevector(a, b, __VA_ARGS__)
#endif
#endif
#ifndef PAIR_SHUFFLE /* GCC before 12 */
#define PAIR_SHUFFLE(a, b, i, j, k, l)                                     \
    __builtin_shuffle(a, b, (vec4i){i, j, k, l})
#define WIDE_SHUFFLE(a, b, ...) __builtin_shuffle(a, b, (vec8i){__VA_ARGS__})
#endif

/* A full block's rows, whose dk components are the lanes of a[c], against
 * the PAIR_TILE partners from j, in one pass: v of every pair with the
 * rows in the vector lanes and the partner broadcast; r2 from 0.0 over the
 * components in ascending order; the factors in the lanes; then per
 * component the products P = cf v and Q = gw v, each formed once, added
 * to the rows' sums af[c] and ag[c] in partner order and, through a 4 x 4
 * transpose, subtracted from the partners' sums in fs and gs in row
 * order. */
ALWAYS_INLINE void pair_tile(const struct pair_kernel *k,
                             const double *restrict xs, ptrdiff_t ns,
                             ptrdiff_t dk, double (*a)[WIDE_ROWS],
                             double (*af)[WIDE_ROWS], double (*ag)[WIDE_ROWS],
                             ptrdiff_t j, double *restrict fs,
                             double *restrict gs)
{
    vec4 r2[PAIR_TILE], cf[PAIR_TILE], gw[PAIR_TILE], p[PAIR_TILE],
        q[PAIR_TILE], av, s, v, u0, u1, u2, u3;
    double lr2[PAIR_ROWS * PAIR_TILE], lcf[PAIR_ROWS * PAIR_TILE],
        lgw[PAIR_ROWS * PAIR_TILE];
    ptrdiff_t c;
    int t;

    for (t = 0; t < PAIR_TILE; t++)
        r2[t] = (vec4){0.0};
    for (c = 0; c < dk; c++) {
        memcpy(&av, a[c], sizeof av);
        for (t = 0; t < PAIR_TILE; t++) {
            v = av - xs[c * ns + j + t];
            r2[t] = r2[t] + v * v;
        }
    }
    memcpy(lr2, r2, sizeof r2);
    pair_factors(k, lr2, lcf, lgw, PAIR_ROWS * PAIR_TILE);
    memcpy(cf, lcf, sizeof cf);
    memcpy(gw, lgw, sizeof gw);
    for (c = 0; c < dk; c++) {
        memcpy(&av, a[c], sizeof av);
        for (t = 0; t < PAIR_TILE; t++) {
            v = av - xs[c * ns + j + t];
            p[t] = cf[t] * v;
            q[t] = gw[t] * v;
        }
        /* own + m[0] + ... + m[3], lane by lane, and the partners' sums
         * - (m[0][r], ..., m[3][r]) for r = 0, ..., 3 */
#define PAIR_OWN(own, m)                                                   \
        memcpy(&s, own[c], sizeof s);                                      \
        for (t = 0; t < PAIR_TILE; t++)                                    \
            s = s + m[t];                                                  \
        VEC4_STORE(own[c], s);
#define PAIR_MIRROR(sums, m)                                               \
        u0 = PAIR_SHUFFLE(m[0], m[1], 0, 4, 2, 6);                         \
        u1 = PAIR_SHUFFLE(m[0], m[1], 1, 5, 3, 7);                         \
        u2 = PAIR_SHUFFLE(m[2], m[3], 0, 4, 2, 6);                         \
        u3 = PAIR_SHUFFLE(m[2], m[3], 1, 5, 3, 7);                         \
        memcpy(&s, sums + c * ns + j, sizeof s);                           \
        s = s - PAIR_SHUFFLE(u0, u2, 0, 1, 4, 5);                          \
        s = s - PAIR_SHUFFLE(u1, u3, 0, 1, 4, 5);                          \
        s = s - PAIR_SHUFFLE(u0, u2, 2, 3, 6, 7);                          \
        s = s - PAIR_SHUFFLE(u1, u3, 2, 3, 6, 7);                          \
        VEC4_STORE(sums + c * ns + j, s);
        PAIR_OWN(af, p)
        PAIR_OWN(ag, q)
        PAIR_MIRROR(fs, p)
        PAIR_MIRROR(gs, q)
#undef PAIR_MIRROR
#undef PAIR_OWN
    }
}

/* The start of rows r0 to rows - 1 of the block from i0, on dk
 * components. Row i's sum is its mirrored terms, -f(x_j, x_i) from every
 * row j < i in ascending j, then its own terms in ascending j; fs and gs
 * hold the mirrored part of every later row. The rows' values and sums go
 * to columns r0 to rows - 1 of a, af and ag, then the pairs among these
 * rows are taken, row by row. */
ALWAYS_INLINE void block_open(const struct pair_kernel *k,
                              const double *restrict xs, ptrdiff_t ns,
                              ptrdiff_t dk, ptrdiff_t i0, int r0, int rows,
                              double (*a)[WIDE_ROWS],
                              double (*af)[WIDE_ROWS],
                              double (*ag)[WIDE_ROWS], double *restrict fs,
                              double *restrict gs)
{
    ptrdiff_t j, c;
    int r;

    for (r = r0; r < rows; r++)
        for (c = 0; c < dk; c++)
            a[c][r] = xs[c * ns + i0 + r];
    for (r = r0; r < rows; r++) {
        for (c = 0; c < dk; c++) {
            af[c][r] = fs[c * ns + i0 + r];
            ag[c][r] = gs[c * ns + i0 + r];
        }
        for (j = i0 + r + 1; j < i0 + rows; j++)
            pair_one(k, xs, ns, dk, a, af, ag, r, j, fs, gs);
    }
}

/* The end of the block that block_open started, once its tiles have taken
 * the partners before j: the partners from j to the last of the n rows one
 * at a time. Nothing adds to a row after its block, so its sums go to F
 * and G, divided by dn. */
ALWAYS_INLINE void block_close(const struct pair_kernel *k,
                               const double *restrict xs, ptrdiff_t n,
                               ptrdiff_t ns, ptrdiff_t dk, ptrdiff_t i0,
                               int rows, ptrdiff_t j, double (*a)[WIDE_ROWS],
                               double (*af)[WIDE_ROWS],
                               double (*ag)[WIDE_ROWS], double *restrict fs,
                               double *restrict gs, double *F, double *G,
                               double dn)
{
    ptrdiff_t c;
    int r;

    for (; j < n; j++)
        for (r = 0; r < rows; r++)
            pair_one(k, xs, ns, dk, a, af, ag, r, j, fs, gs);
    for (r = 0; r < rows; r++)
        for (c = 0; c < dk; c++) {
            F[(i0 + r) * dk + c] = af[c][r] / dn;
            G[(i0 + r) * dk + c] = ag[c][r] / dn;
        }
}

/* The terms of the block of `rows` rows from i0 of the n rows: the pairs
 * inside the block, the partners past it in tiles, and those after the
 * last whole tile one at a time. Only the last block can be short (1 to
 * PAIR_ROWS - 1 rows); it has no partners past it. */
ALWAYS_INLINE void pair_block(const struct pair_kernel *k,
                              const double *restrict xs, ptrdiff_t n,
                              ptrdiff_t ns, ptrdiff_t dk, ptrdiff_t i0,
                              int rows, double (*a)[WIDE_ROWS],
                              double (*af)[WIDE_ROWS],
                              double (*ag)[WIDE_ROWS], double *restrict fs,
                              double *restrict gs, double *F, double *G,
                              double dn)
{
    ptrdiff_t j = i0 + rows;

    block_open(k, xs, ns, dk, i0, 0, rows, a, af, ag, fs, gs);
    for (; j + PAIR_TILE <= n; j += PAIR_TILE)
        pair_tile(k, xs, ns, dk, a, af, ag, j, fs, gs);
    block_close(k, xs, n, ns, dk, i0, rows, j, a, af, ag, fs, gs, F, G, dn);
}

/* The n rows in blocks of h, each by block(dk): with the literal dk up to
 * PAIR_DIMS, whose component loops unroll, and a block's arrays on the
 * stack (la, laf, lag); beyond, with dk = d and the arrays in the scratch
 * (wa). */
#define PAIR_BLOCKS(block, h)                                              \
    for (i0 = 0; i0 < n; i0 += (h)) {                                      \
        rows = n - i0 < (h) ? (int)(n - i0) : (h);                         \
        switch (d) {                                                       \
        case 1: PAIR_BLOCK(block, 1); break;                               \
        case 2: PAIR_BLOCK(block, 2); break;                               \
        case 3: PAIR_BLOCK(block, 3); break;                               \
        default: PAIR_BLOCK(block, d); break;                              \
        }                                                                  \
    }
#define PAIR_BLOCK(block, dk)                                              \
    if ((dk) <= PAIR_DIMS)                                                 \
        block(k, xs, n, ns, dk, i0, rows, la, laf, lag, fs, gs, F, G, dn); \
    else                                                                   \
        block(k, xs, n, ns, dk, i0, rows, wa, wa + d, wa + 2 * d, fs, gs,  \
              F, G, dn)

#ifdef WIDE_TILE
#include <immintrin.h>

/* Eight doubles and eight int64 lanes: the rows of a wide block, on which
 * only code compiled for WIDE_TILE's target does arithmetic. */
typedef double vec8 __attribute__((vector_size(8 * sizeof(double))));
typedef int64_t vec8i __attribute__((vector_size(sizeof(vec8))));

/* The pair factors of a wide tile's 32 pairs, r2[t] lane r for row r and
 * partner t, as pair_factors forms them: in the vector lanes in the
 * exponent cases without pow, through pair_factors's lane arrays and
 * scalar libm pow in the others. */
ALWAYS_INLINE void wide_factors(const struct pair_kernel *k, const vec8 *r2,
                                vec8 *cf, vec8 *gw)
{
    double lr2[PAIR_LANES], lcf[PAIR_LANES], lgw[PAIR_LANES];
    vec8 w, rq;
    int t;

    if (k->wm == W_POW || k->qm == Q_POW) {
        memcpy(lr2, r2, sizeof lr2);
        pair_factors(k, lr2, lcf, lgw, PAIR_LANES);
        memcpy(cf, lcf, sizeof lcf);
        memcpy(gw, lgw, sizeof lgw);
        return;
    }
    for (t = 0; t < PAIR_TILE; t++) {
        if (k->wm == W_CONST)
            w = (vec8){0.0} + k->wc;
        else if (k->wm == W_R2)
            w = 1.0 / (1.0 + k->tam * r2[t]);
        else
            w = 1.0 / (1.0 + k->tam * (r2[t] * r2[t]));
        if (k->qm == Q_R2)
            rq = r2[t];
        else
            rq = (vec8){0.0} + 1.0;
        cf[t] = (k->kf1 + k->kfq * rq) * w;
        gw[t] = k->cg * w;
    }
}

/* pair_tile on a full block of WIDE_ROWS rows, in the lanes of a vec8:
 * the differences v stay in registers between the r2 pass and the product
 * pass up to PAIR_DIMS components (beyond, the product pass forms them
 * again), the factors come from wide_factors, and the partners' sums
 * take - (m[0][r], ..., m[3][r]) for block rows r = 0, ..., 7 through an
 * 8 x 4 transpose whose vectors hold two block rows each,
 * e[r] = (row r + 4 | row r) for r < 4. The partners' four sums, loaded
 * into both halves of a vec8, take e[0] to e[3], so that the upper half
 * holds the sums less rows 0 to 3; that half, copied to both, takes e[0]
 * to e[3] again, and the lower half then holds the sums less rows 0 to 7
 * in row order. The other half of each subtraction is discarded. */
WIDE_TILE
ALWAYS_INLINE void wide_tile(const struct pair_kernel *k,
                             const double *restrict xs, ptrdiff_t ns,
                             ptrdiff_t dk, double (*a)[WIDE_ROWS],
                             double (*af)[WIDE_ROWS], double (*ag)[WIDE_ROWS],
                             ptrdiff_t j, double *restrict fs,
                             double *restrict gs)
{
    vec8 kv[PAIR_DIMS][PAIR_TILE], r2[PAIR_TILE], cf[PAIR_TILE],
        gw[PAIR_TILE], p[PAIR_TILE], q[PAIR_TILE], av, s8, v, u0, u1, u2,
        u3, e[4];
    double *x;
    ptrdiff_t c;
    int t;

    for (t = 0; t < PAIR_TILE; t++)
        r2[t] = (vec8){0.0};
    for (c = 0; c < dk; c++) {
        memcpy(&av, a[c], sizeof av);
        for (t = 0; t < PAIR_TILE; t++) {
            v = av - xs[c * ns + j + t];
            if (dk <= PAIR_DIMS)
                kv[c][t] = v;
            r2[t] = r2[t] + v * v;
        }
    }
    wide_factors(k, r2, cf, gw);
    for (c = 0; c < dk; c++) {
        memcpy(&av, a[c], sizeof av);
        for (t = 0; t < PAIR_TILE; t++) {
            if (dk <= PAIR_DIMS)
                v = kv[c][t];
            else
                v = av - xs[c * ns + j + t];
            p[t] = cf[t] * v;
            q[t] = gw[t] * v;
        }
        /* own + m[0] + ... + m[3], lane by lane, and the partners' sums
         * less rows 0 to 7 of the transpose of m */
#define WIDE_OWN(own, m)                                                   \
        memcpy(&s8, own[c], sizeof s8);                                    \
        for (t = 0; t < PAIR_TILE; t++)                                    \
            s8 = s8 + m[t];                                                \
        memcpy(own[c], &s8, sizeof s8);
#define WIDE_MIRROR(sums, m)                                               \
        u0 = WIDE_SHUFFLE(m[0], m[1], 0, 8, 2, 10, 4, 12, 6, 14);          \
        u1 = WIDE_SHUFFLE(m[0], m[1], 1, 9, 3, 11, 5, 13, 7, 15);          \
        u2 = WIDE_SHUFFLE(m[2], m[3], 0, 8, 2, 10, 4, 12, 6, 14);          \
        u3 = WIDE_SHUFFLE(m[2], m[3], 1, 9, 3, 11, 5, 13, 7, 15);          \
        e[0] = WIDE_SHUFFLE(u0, u2, 4, 5, 12, 13, 0, 1, 8, 9);             \
        e[1] = WIDE_SHUFFLE(u1, u3, 4, 5, 12, 13, 0, 1, 8, 9);             \
        e[2] = WIDE_SHUFFLE(u0, u2, 6, 7, 14, 15, 2, 3, 10, 11);           \
        e[3] = WIDE_SHUFFLE(u1, u3, 6, 7, 14, 15, 2, 3, 10, 11);           \
        x = sums + c * ns + j;                                             \
        s8 = _mm512_broadcast_f64x4(_mm256_loadu_pd(x));                   \
        for (t = 0; t < 4; t++)                                            \
            s8 = s8 - e[t];                                                \
        s8 = WIDE_SHUFFLE(s8, s8, 4, 5, 6, 7, 4, 5, 6, 7);                 \
        for (t = 0; t < 4; t++)                                            \
            s8 = s8 - e[t];                                                \
        VEC4_STORE(x, s8);
        WIDE_OWN(af, p)
        WIDE_OWN(ag, q)
        WIDE_MIRROR(fs, p)
        WIDE_MIRROR(gs, q)
#undef WIDE_MIRROR
#undef WIDE_OWN
    }
}

/* pair_block with WIDE_ROWS rows and the wide tile. The pairs inside the
 * block are taken as in two blocks of PAIR_ROWS: those among its first 4
 * rows, those of these rows with the next 4 in one pair_tile (one at a
 * time in a short last block), then those among the next 4. */
WIDE_TILE
ALWAYS_INLINE void wide_block(const struct pair_kernel *k,
                              const double *restrict xs, ptrdiff_t n,
                              ptrdiff_t ns, ptrdiff_t dk, ptrdiff_t i0,
                              int rows, double (*a)[WIDE_ROWS],
                              double (*af)[WIDE_ROWS],
                              double (*ag)[WIDE_ROWS], double *restrict fs,
                              double *restrict gs, double *F, double *G,
                              double dn)
{
    ptrdiff_t j = i0 + PAIR_ROWS;
    int r;

    block_open(k, xs, ns, dk, i0, 0, rows < PAIR_ROWS ? rows : PAIR_ROWS, a,
               af, ag, fs, gs);
    if (rows == WIDE_ROWS)
        pair_tile(k, xs, ns, dk, a, af, ag, j, fs, gs);
    else
        for (; j < i0 + rows; j++)
            for (r = 0; r < PAIR_ROWS; r++)
                pair_one(k, xs, ns, dk, a, af, ag, r, j, fs, gs);
    block_open(k, xs, ns, dk, i0, PAIR_ROWS, rows, a, af, ag, fs, gs);
    for (j = i0 + rows; j + PAIR_TILE <= n; j += PAIR_TILE)
        wide_tile(k, xs, ns, dk, a, af, ag, j, fs, gs);
    block_close(k, xs, n, ns, dk, i0, rows, j, a, af, ag, fs, gs, F, G, dn);
}

/* The blocks of mvsde_pair_aggregate in WIDE_ROWS rows, on the scratch
 * that it laid out, compiled for AVX-512F, DQ and VL and called only on a
 * CPU that has them. */
WIDE_TILE
static void pair_aggregate_wide(const struct pair_kernel *k,
                                const double *restrict xs, ptrdiff_t n,
                                ptrdiff_t ns, ptrdiff_t d,
                                double *restrict fs, double *restrict gs,
                                double *F, double *G, double dn)
{
    double (*wa)[WIDE_ROWS] = (double (*)[WIDE_ROWS])(gs + ns * d);
    double la[PAIR_DIMS][WIDE_ROWS], laf[PAIR_DIMS][WIDE_ROWS],
        lag[PAIR_DIMS][WIDE_ROWS];
    ptrdiff_t i0;
    int rows;

    PAIR_BLOCKS(wide_block, WIDE_ROWS)
}
#endif

/* X is a C-contiguous n x d float64 array with d >= 1; F and G (n x d as
 * well) are overwritten with the pair sums. work holds
 * 3 d (n + 2 WIDE_ROWS) doubles: the structure-of-arrays copy of X and the
 * mirrored sums of F and G, d rows of ns = n + WIDE_ROWS each, then a
 * block's a, af and ag past PAIR_DIMS components. The rows go in blocks of
 * WIDE_ROWS to the wide tile at d >= 2 on a CPU with every feature that
 * WIDE_TILE names, in blocks of PAIR_ROWS otherwise. The all-zero-kernel
 * short-circuit is done by the caller. */
STEP_CLONES
void mvsde_pair_aggregate(const double *restrict X, ptrdiff_t n,
                          ptrdiff_t d, double kf1, double kfq, double qf,
                          double cg, double tam, double te,
                          double *restrict F, double *restrict G,
                          double *restrict work)
{
    const struct pair_kernel kern = {
        kf1, kfq, qf, cg, tam, te,
        /* w at tam == 0 is exactly 1; at te == 0 it is 1 / (1 + tam 1) */
        tam == 0.0 ? 1.0 : 1.0 / (1.0 + tam * 1.0),
        tam == 0.0 || te == 0.0 ? W_CONST
        : te == 2.0             ? W_R2
        : te == 4.0             ? W_R4
                                : W_POW,
        qf == 2.0 ? Q_R2 : qf == 0.0 ? Q_ONE : Q_POW}, *k = &kern;
    ptrdiff_t ns = n + WIDE_ROWS;
    double *xs = work, *fs = xs + ns * d, *gs = fs + ns * d, dn = (double)n;
    double (*wa)[WIDE_ROWS] = (double (*)[WIDE_ROWS])(gs + ns * d);
    double la[PAIR_DIMS][WIDE_ROWS], laf[PAIR_DIMS][WIDE_ROWS],
        lag[PAIR_DIMS][WIDE_ROWS];
    ptrdiff_t i0, j, c;
    int rows;

    for (j = 0; j < n; j++)
        for (c = 0; c < d; c++)
            xs[c * ns + j] = X[j * d + c];
    memset(fs, 0, 2 * (size_t)(ns * d) * sizeof(double));
#ifdef WIDE_TILE
    if (d >= 2 && __builtin_cpu_supports("avx512f")
        && __builtin_cpu_supports("avx512dq")
        && __builtin_cpu_supports("avx512vl")) {
        pair_aggregate_wide(k, xs, n, ns, d, fs, gs, F, G, dn);
        return;
    }
#endif
    PAIR_BLOCKS(pair_block, PAIR_ROWS)
}
#undef PAIR_BLOCK
#undef PAIR_BLOCKS

/* Coefficients of one run of the scheme; mirrored by mvsde._core._Coeffs,
 * whose fields between h and gamma are model.COEFFICIENTS in this order.
 * The self drift is beta1 x + betaq x |x|^q_b plus kap_pair * (mean - x)
 * and lam * mean, the two couplings, linear in the measure. The diffusion
 * diagonal s0 + s1 x + c_s (mean - x) covers the first k_noise = min(d, l)
 * components. When gamma != 0 both are divided by 1 + gamma |x|^e, and the
 * pair kernel kf1, kfq, q_f, c_g of mvsde_pair_aggregate is tamed at the
 * same gamma and e, g included. */
struct mvsde_coeffs {
    double h;
    double beta1, betaq, q_b, lam, kap_pair;
    double s0, s1, c_s;
    double kf1, kfq, q_f, c_g;
    double gamma, e;
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

/* w[i * k + c] = the increment of component c of particle i over the r
 * rows of one step of the finest table, row q at
 * dw[q * dw_step + i * dw_row + c]: row 0, then rows 1 to r - 1 added in
 * turn. Every partial sum is exact (see "Level sums" above), so this is
 * the value of rng.level_increments's NumPy sum. */
ALWAYS_INLINE void level_sum(const double *restrict dw, ptrdiff_t dw_step,
                             ptrdiff_t dw_row, ptrdiff_t r, ptrdiff_t n,
                             ptrdiff_t k, double *restrict w)
{
    ptrdiff_t q, i, c;

    for (i = 0; i < n; i++)
        for (c = 0; c < k; c++)
            w[i * k + c] = dw[i * dw_row + c];
    for (q = 1; q < r; q++)
        for (i = 0; i < n; i++)
            for (c = 0; c < k; c++)
                w[i * k + c] = w[i * k + c] + dw[q * dw_step + i * dw_row + c];
}

/* One step from x into y, as mvsde.scheme.step computes it, with the
 * noise of the r finest rows from dw (see level_sum); work holds F, G and
 * the step's summed noise W (n x d each), the mean (d), the squares of one
 * row (d) and mvsde_pair_aggregate's scratch (at least 3 n doubles), whose
 * first 3 n hold the vectors r2, pw and den once the pair sums are done.
 * When r2_in is not NULL it holds the squared norm of every row of x, as
 * row_norms writes them, and the step reads them there. When r2_out is
 * not NULL it receives the squared norm of every row of y. Returns 0 when
 * y holds a non-finite value.
 *
 * The self terms run as passes over the particles: the squared norms r2,
 * then pw = |x|^q_b and den = 1 + gamma |x|^e with one loop per
 * exponent case (libm pow, which stays scalar, only outside the special
 * cases), then the drift and the noise over the elements, with the
 * coefficient switches as loop invariants, the noise after its level sum
 * when r > 1, then one test of every element of y. Each element sees the
 * operations of step in its order: only the order in which the elements
 * are visited changed, and that changes no bit.
 *
 * The one exception is |x|^2 at d = 1, which step forms as r * r with
 * r = sqrt(r2) and this kernel takes as r2, saving a sqrt per particle
 * and step (sqrt and the taming's division share the divider). At d = 1,
 * r2 = 0.0 + (0.0 + x * x) = RN(x^2), since x * x is never -0.0 and
 * adding +0.0 is exact; let r = RN(sqrt(r2)). Then RN(r * r) = r2:
 * - r2 = +0.0 or +inf: sqrt and the product keep it.
 * - r2 = 2^-1022: r = 2^-511 exactly, and r * r = r2.
 * - r2 normal above 2^-1022: x^2 >= 2^-1022, where rounding has the grid
 *   of an unbounded exponent range, and neither x^2 nor sqrt(r2) leaves
 *   the normal range. In radix 2 with round to nearest,
 *   RN(sqrt(RN(x^2))) = |x| (Boldo, "Stupid is as stupid does: taking the
 *   square root of the square of a floating-point number", ENTCS 317,
 *   2015), so r = |x| and RN(r * r) = RN(x * x) = r2.
 * - r2 subnormal: sqrt(r2) <= 2^-511 sqrt(1 - 2^-52) lies below the
 *   double 2^-511 (1 - 2^-53), so r lies in [2^k, 2^(k+1)) with
 *   k <= -512. Then |r - sqrt(r2)| <= 2^(k-53) and r + sqrt(r2) < 2^(k+2),
 *   so |r^2 - r2| < 2^(2k-51) <= 2^-1075, under half the spacing 2^-1074
 *   of the doubles around r2, and RN(r^2) = r2.
 * At d >= 2, r2 is a rounded sum of squares, not one rounded square, and
 * the identity fails (r2 = 2 gives RN(RN(sqrt(2))^2) = 2 + 2^-51), so
 * those dimensions keep step's operations. model.self_terms keeps them at
 * every d: it is the reference both backends are tested against, and
 * tests/test_fused.py checks the identity itself over every binade. */
STEP_CLONES
static int step_once(const struct mvsde_coeffs *cf, const double *x,
                     double *y, ptrdiff_t n, ptrdiff_t d, const double *dw,
                     ptrdiff_t dw_step, ptrdiff_t dw_row, ptrdiff_t ratio,
                     double *work, const double *r2_in, double *r2_out)
{
    double *F = work, *G = F + n * d, *W = G + n * d, *mean = W + n * d;
    double *sq = mean + d;
    double *r2w = sq + d, *pw = r2w + n, *den = pw + n;
    const double *r2 = r2w;
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
                             gamma, e, F, G, r2w);
    else
        memset(F, 0, 2 * (size_t)(n * d) * sizeof(double));

    if (r2_in != NULL)
        r2 = r2_in;
    else if (cf->betaq != 0.0 || gamma != 0.0)
        row_norms(x, n, d, sq, r2w);
    if (cf->betaq != 0.0) {
        if (q == 2.0 && d == 1)
            /* RN(sqrt(r2))^2 rounds to r2 at d = 1 (see above) */
            for (i = 0; i < n; i++)
                pw[i] = r2[i];
        else if (q == 2.0)
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
#define SUM(dk) level_sum(dw, dw_step, dw_row, ratio, n, (dk) == 1 ? 1 : k, \
                          W)
    if (k > 0 && ratio > 1) {
        BY_DIM(d, SUM)
        dw = W;
        dw_row = k;
    }
#define NOISE(dk) noise_pass(cf, x, y, n, dk, (dk) == 1 ? 1 : k, G, mean, \
                             den, dw, dw_row)
    if (k > 0) {
        BY_DIM(d, NOISE)
    }
#undef NOISE
#undef SUM
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
 * between X and Y, and leave the last state in X. dw is the finest table
 * and ratio the number r of its rows per step: step s takes the sum of rows
 * s r to s r + r - 1, row q of particle i at dw[q * dw_step + i * dw_row].
 * Stops after the first step that produces a non-finite value. Returns the
 * number of steps with a finite result: a return j < steps means step j + 1
 * was done and overflowed. work holds 3 n d + 2 d doubles and then the
 * scratch of mvsde_pair_aggregate, as step_once lays them out. When obs is
 * not NULL (steps x n), row s receives the squared particle norms of the
 * state that step s of the call produced. When keep is not NULL (steps
 * flags), the state that step s produced is copied into the next n x d row
 * of rec wherever keep[s] is nonzero. Both cover every step done, the
 * overflowing one included. */
ptrdiff_t mvsde_advance(const struct mvsde_coeffs *cf, double *X, double *Y,
                        ptrdiff_t n, ptrdiff_t d, const double *dw,
                        ptrdiff_t dw_step, ptrdiff_t dw_row, ptrdiff_t ratio,
                        ptrdiff_t steps, double *work, double *obs,
                        const uint8_t *keep, double *rec)
{
    double *cur = X, *next = Y, *tmp;
    size_t bytes = (size_t)(n * d) * sizeof(double);
    ptrdiff_t s;
    int finite = 1;

    for (s = 0; s < steps && finite; s++) {
        /* row s - 1 of obs holds the norms of cur: step s - 1 wrote
         * them */
        finite = step_once(cf, cur, next, n, d, dw + s * ratio * dw_step,
                           dw_step, dw_row, ratio, work,
                           obs != NULL && s > 0 ? obs + (s - 1) * n : NULL,
                           obs != NULL ? obs + s * n : NULL);
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
 * keep the adder busy. */
#define FSUM_LANES 8

/* |x| of each element: the sign bit cleared, as fabs does. */
#define FSUM_ABS(x) ((vec4)((vec4i)(x) & INT64_MAX))

/* One TwoSum step of four lanes: s + x rounded into s, its exact error
 * added to c, |error| to ea and |x| to sa. */
#define FSUM_STEP(s, c, ea, sa, x)                                         \
    do {                                                                   \
        vec4 t_ = (s) + (x), z_ = t_ - (s);                                \
        vec4 e_ = ((s) - (t_ - z_)) + ((x) - z_);                          \
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
    vec4 s0 = {0}, c0 = {0}, ea0 = {0}, sa0 = {0}, x0, x1;
    vec4 s1 = {0}, c1 = {0}, ea1 = {0}, sa1 = {0};
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

/* exp(-2), the edge of the central branch, and 1 - exp(-2) */
#define NDTRI_LO 0.13533528323661269189
#define NDTRI_HI (1.0 - NDTRI_LO)

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
    if (y > NDTRI_HI) {
        y = 1.0 - y;
        code = 0;
    }
    if (y > NDTRI_LO) {
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

/* Cephes polevl and p1evl on four lanes: the same operations in the same
 * order in each lane. */
ALWAYS_INLINE void polevl4(const vec4 *x, const double *coef, int deg,
                           vec4 *ans)
{
    vec4 v = {coef[0], coef[0], coef[0], coef[0]};
    int i;

#pragma GCC unroll 8
    for (i = 1; i <= deg; i++)
        v = v * *x + coef[i];
    *ans = v;
}

ALWAYS_INLINE void p1evl4(const vec4 *x, const double *coef, int deg,
                          vec4 *ans)
{
    vec4 v = *x + coef[0];
    int i;

#pragma GCC unroll 8
    for (i = 1; i < deg; i++)
        v = v * *x + coef[i];
    *ans = v;
}

/* Values of a ndtri_chunk call, the size of its stack arrays. */
#define NDTRI_CHUNK 256

/* y = 1 - y0 where y0 > 1 - exp(-2), else y0, lane by lane, as ndtri_one's
 * first steps give it; flip is -1 in the lanes it flipped. */
ALWAYS_INLINE void ndtri_fold4(const vec4 *y0, vec4 *y, vec4i *flip)
{
    const vec4 hi = {NDTRI_HI, NDTRI_HI, NDTRI_HI, NDTRI_HI};

    *flip = *y0 > hi;
    *y = (vec4)(((vec4i)(1.0 - *y0) & *flip) | ((vec4i)*y0 & ~*flip));
}

/* a[tail[t]] = ndtri_one(ty[t]) for t < nt, four values at a time. The
 * lanes with 0 < y <= exp(-2) and x < 8 are those where ndtri_one takes
 * its P1/Q1 tail branch; they take its operations in its order, libm log
 * lane by lane and everything else in the lanes. Any other lane (0, 1,
 * outside [0, 1], nan, y below about exp(-32), or a central value) goes
 * through ndtri_one. ty has room for 3 values past nt, which pad the last
 * four. */
ALWAYS_INLINE void ndtri_tails(double *a, double *ty, const ptrdiff_t *tail,
                               ptrdiff_t nt)
{
    const vec4 lo = {NDTRI_LO, NDTRI_LO, NDTRI_LO, NDTRI_LO};
    const vec4 zero = {0.0, 0.0, 0.0, 0.0}, eight = {8.0, 8.0, 8.0, 8.0};
    const vec4i sign = {INT64_MIN, INT64_MIN, INT64_MIN, INT64_MIN};
    vec4 y0, y, v, x, x0, z, p, q;
    vec4i flip, ok;
    ptrdiff_t t;
    int l;

    for (l = 0; l < 3; l++)
        ty[nt + l] = NDTRI_LO;
    for (t = 0; t < nt; t += 4) {
        memcpy(&y0, ty + t, sizeof y0);
        ndtri_fold4(&y0, &y, &flip);
        for (l = 0; l < 4; l++)
            v[l] = log(y[l]);
        v = -2.0 * v;
        for (l = 0; l < 4; l++)
            x[l] = sqrt(v[l]);
        ok = (y > zero) & (y <= lo) & (x < eight);
        for (l = 0; l < 4; l++)
            v[l] = log(x[l]);
        x0 = x - v / x;
        z = 1.0 / x;
        polevl4(&z, NDTRI_P1, 8, &p);
        p1evl4(&z, NDTRI_Q1, 8, &q);
        x = x0 - z * p / q;
        /* -x where ndtri_one's code is 1: the lanes not flipped */
        x = (vec4)((vec4i)x ^ (sign & ~flip));
        for (l = 0; l < 4 && t + l < nt; l++)
            a[tail[t + l]] = ok[l] ? x[l] : ndtri_one(ty[t + l]);
    }
}

/* a[i] = ndtri_one(a[i]) for the m <= NDTRI_CHUNK doubles of a. Four
 * values at a time take ndtri_one's first steps in the lanes, then its
 * central branch, whose result is stored for every lane. A lane whose y is
 * not above exp(-2) (the tails, 0, 1, values outside [0, 1] and nan) is
 * noted with its y0, without a branch, and so are the last m mod 4
 * values; ndtri_tails then finishes the noted values. */
ALWAYS_INLINE void ndtri_chunk(double *a, ptrdiff_t m)
{
    const vec4 lo = {NDTRI_LO, NDTRI_LO, NDTRI_LO, NDTRI_LO};
    double ty[NDTRI_CHUNK + 3];
    ptrdiff_t tail[NDTRI_CHUNK], i, nt = 0;
    vec4 y0, y, y2, p, q, x;
    vec4i flip, central;
    int l;

    for (i = 0; i + 4 <= m; i += 4) {
        memcpy(&y0, a + i, sizeof y0);
        ndtri_fold4(&y0, &y, &flip);
        central = y > lo;
        y = y - 0.5;
        y2 = y * y;
        polevl4(&y2, NDTRI_P0, 4, &p);
        p1evl4(&y2, NDTRI_Q0, 8, &q);
        x = y + y * (y2 * p / q);
        x = x * 2.50662827463100050242E0; /* sqrt(2 pi) */
        for (l = 0; l < 4; l++) {
            ty[nt] = y0[l];
            tail[nt] = i + l;
            nt += central[l] == 0;
        }
        VEC4_STORE(a + i, x);
    }
    for (; i < m; i++) {
        ty[nt] = a[i];
        tail[nt++] = i;
    }
    ndtri_tails(a, ty, tail, nt);
}

/* a[i] = ndtri(a[i]) for the n doubles of a: scipy.special.ndtri's value,
 * -inf at 0, +inf at 1 and nan outside [0, 1]. */
STEP_CLONES
void mvsde_ndtri(double *a, ptrdiff_t n)
{
    ptrdiff_t i;

    for (i = 0; i < n; i += NDTRI_CHUNK)
        ndtri_chunk(a + i, n - i < NDTRI_CHUNK ? n - i : NDTRI_CHUNK);
}

/* The increment grid 2^-26 Z and the floor of the uniforms, as
 * mvsde._core.pairwise_py defines QUANT and U_FLOOR. */
#define QUANT 0x1p-26
#define U_FLOOR 0x1p-54

/* The n uniforms of a turned into increments in place, as
 * pairwise_py.quantized_increments does in NumPy passes: each value u
 * becomes rint(ndtri(max(u, 2^-54)) * scale / QUANT) * QUANT + 0.0. The
 * floor keeps a nan, as np.maximum does, and + 0.0 turns a -0.0 into
 * +0.0. */
STEP_CLONES
void mvsde_quantized_increments(double *a, ptrdiff_t n, double scale)
{
    ptrdiff_t i0, i, m;

    for (i0 = 0; i0 < n; i0 += NDTRI_CHUNK) {
        m = n - i0 < NDTRI_CHUNK ? n - i0 : NDTRI_CHUNK;
        for (i = i0; i < i0 + m; i++)
            a[i] = a[i] < U_FLOOR ? U_FLOOR : a[i];
        ndtri_chunk(a + i0, m);
        for (i = i0; i < i0 + m; i++)
            a[i] = rint(a[i] * scale / QUANT) * QUANT + 0.0;
    }
}

/* Ryu's tables, as (low, high) words: REPR_POW5[i] is 5^i cut to its top
 * REPR_BITS bits, REPR_POW5_INV[q] = floor(2^(len(5^q) - 1 + REPR_BITS) /
 * 5^q) + 1 with len the bit length; doubles need i <= 325, q <= 290. */
#define REPR_BITS 125
#define REPR_POW5_SIZE 326
#define REPR_POW5_INV_SIZE 291
/* 32-bit limbs of 5^i < 2^755 and of floor(2^REPR_TOP / 5^i) */
#define REPR_LIMBS 26
#define REPR_TOP 831
/* len(5^q) for 0 <= q <= 3528, Ryu's pow5bits */
#define REPR_LEN5(q) ((int)((((uint32_t)(q) * 1217359) >> 19) + 1))

static uint64_t REPR_POW5[REPR_POW5_SIZE][2];
static uint64_t REPR_POW5_INV[REPR_POW5_INV_SIZE][2];

/* The most chars of one value's text, "-2.2250738585072014e-308" */
const int mvsde_repr_width = 24;

/* t = bits j to j + 127 of the limbs a, as (low, high) words; bits
 * outside the limbs are 0 */
static void repr_cut(const uint32_t *a, int j, uint64_t *t)
{
    int k;

    t[0] = t[1] = 0;
    for (k = 0; k < 128; k++)
        if (j + k >= 0 && j + k < 32 * REPR_LIMBS)
            t[k / 64] |= (uint64_t)(a[(j + k) / 32] >> ((j + k) % 32) & 1)
                         << (k % 64);
}

/* Fills both tables when the library is loaded, before any thread can
 * call mvsde_repr_join: p runs through 5^i and x through
 * floor(2^REPR_TOP / 5^i), as floor(floor(a / b) / c) = floor(a / (b c)),
 * so REPR_POW5_INV[i] - 1 is x cut at bit REPR_TOP - (len - 1 +
 * REPR_BITS) >= 31. */
__attribute__((constructor)) static void repr_tables(void)
{
    uint32_t p[REPR_LIMBS] = {1}, x[REPR_LIMBS] = {0};
    uint64_t carry, *t;
    int i, w, len;

    x[REPR_TOP / 32] = (uint32_t)1 << (REPR_TOP % 32);
    for (i = 0; i < REPR_POW5_SIZE; i++) {
        if (i > 0) {
            for (carry = 0, w = 0; w < REPR_LIMBS; w++) {
                carry += (uint64_t)p[w] * 5;
                p[w] = (uint32_t)carry;
                carry >>= 32;
            }
            for (carry = 0, w = REPR_LIMBS - 1; w >= 0; w--) {
                carry = carry << 32 | x[w];
                x[w] = (uint32_t)(carry / 5);
                carry %= 5;
            }
        }
        len = REPR_LEN5(i);
        repr_cut(p, len - REPR_BITS, REPR_POW5[i]);
        if (i < REPR_POW5_INV_SIZE) {
            t = REPR_POW5_INV[i];
            repr_cut(x, REPR_TOP - (len - 1 + REPR_BITS), t);
            t[1] += ++t[0] == 0;
        }
    }
}

/* (m mul) >> j for the 128-bit table entry mul and 64 < j */
static inline uint64_t repr_mul_shift(uint64_t m, const uint64_t *mul, int j)
{
    unsigned __int128 b0 = (unsigned __int128)m * mul[0],
                      b2 = (unsigned __int128)m * mul[1];
    return (uint64_t)(((b0 >> 64) + b2) >> (j - 64));
}

/* Whether 5^q divides v > 0 */
static int repr_fives(uint64_t v, int q)
{
    for (; q > 0 && v % 5 == 0; q--)
        v /= 5;
    return q == 0;
}

/* Ryu's d2d: the digits of the finite nonzero double with fields mant and
 * ex, as an integer times 10^*e10. vr, vp and vm are it and the ends of its
 * interval scaled by 10^-e10; vm_zeros and vr_zeros say they are exact. */
static uint64_t repr_shortest(uint64_t mant, int ex, int *e10)
{
    int e2 = (ex == 0 ? 1 : ex) - 1023 - 52 - 2, q, j, removed = 0;
    uint64_t m2 = ex == 0 ? mant : (uint64_t)1 << 52 | mant, mv = 4 * m2;
    uint64_t vr, vp, vm;
    const uint64_t *mul;
    /* the gap below is half the one above at a power of two; an end
     * reads back to the double when its significand is even */
    int mm_shift = mant != 0 || ex <= 1, even = (m2 & 1) == 0;
    int vm_zeros = 0, vr_zeros = 0, last = 0;

    if (e2 >= 0) {
        /* q = floor(log10(2^e2)) less one above e2 = 3 */
        q = (int)(((uint32_t)e2 * 78913) >> 18) - (e2 > 3);
        *e10 = q;
        mul = REPR_POW5_INV[q];
        j = -e2 + q + REPR_BITS - 1 + REPR_LEN5(q);
    } else {
        /* q = floor(log10(5^-e2)) less one above -e2 = 1 */
        q = (int)(((uint32_t)-e2 * 732923) >> 20) - (-e2 > 1);
        *e10 = q + e2;
        mul = REPR_POW5[-e2 - q];
        j = q + REPR_BITS - REPR_LEN5(-e2 - q);
    }
    vr = repr_mul_shift(mv, mul, j);
    vp = repr_mul_shift(mv + 2, mul, j);
    vm = repr_mul_shift(mv - 1 - mm_shift, mul, j);
    if (e2 >= 0 && q <= 21) {
        /* only one of mv, mv + 2 and mm can be a multiple of 5 */
        if (mv % 5 == 0)
            vr_zeros = repr_fives(mv, q);
        else if (even)
            vm_zeros = repr_fives(mv - 1 - mm_shift, q);
        else
            vp -= repr_fives(mv + 2, q);
    } else if (e2 < 0 && q <= 1) {
        /* mv has two trailing zero bits, mv + 2 one */
        vr_zeros = 1;
        if (even)
            vm_zeros = mm_shift;
        else
            vp--;
    } else if (e2 < 0 && q < 63) {
        vr_zeros = (mv & (((uint64_t)1 << q) - 1)) == 0;
    }
    /* drop digits while [vm, vp] holds a shorter number, 8, 4, 2, then 1
     * at a time, and an exact vm's trailing zeros; last is the last digit
     * dropped from vr, and vr_zeros stays set while those before were 0 */
#define REPR_DROP(more, p10, k)                                           \
    while (more) {                                                       \
        vm_zeros &= vm % (p10) == 0;                                     \
        vr_zeros &= last == 0 && vr % ((p10) / 10) == 0;                 \
        last = (int)(vr % (p10) / ((p10) / 10));                         \
        vr /= (p10);                                                     \
        vp /= (p10);                                                     \
        vm /= (p10);                                                     \
        removed += (k);                                                  \
    }
    REPR_DROP(vp / 100000000 > vm / 100000000, 100000000, 8)
    REPR_DROP(vp / 10000 > vm / 10000, 10000, 4)
    REPR_DROP(vp / 100 > vm / 100, 100, 2)
    REPR_DROP(vp / 10 > vm / 10, 10, 1)
    REPR_DROP(vm_zeros && vm % 10 == 0, 10, 1)
#undef REPR_DROP
    if (vr_zeros && last == 5 && vr % 2 == 0)
        last = 4; /* exactly ...50...0: round to even */
    *e10 += removed;
    /* round up past a digit >= 5, or from vm when vm is outside */
    return vr + ((vr == vm && (!even || !vm_zeros)) || last >= 5);
}

/* Writes float.__repr__(x) of a finite x at s and returns its end: for the
 * digits d1...dn of d1.d2...dn 10^E, fixed at -4 <= E < 16, else d1.d2...dn
 * (d1 alone at n = 1), "e", the sign of E and two or three digits. */
static char *repr_one(double x, char *s)
{
    uint64_t bits, v;
    uint32_t lo, mid;
    char digits[17];
    const char *d = digits;
    int e10, n = 17, E, k;

    memcpy(&bits, &x, sizeof(bits));
    if (bits >> 63)
        *s++ = '-';
    if ((bits << 1) == 0) {
        memcpy(s, "0.0", 3);
        return s + 3;
    }
    v = repr_shortest(bits << 12 >> 12, (int)(bits >> 52 & 0x7ff), &e10);
    /* the 17 places of v < 10^17, in two 32-bit chains of 8, then the
     * leading zeros skipped */
    lo = (uint32_t)(v % 100000000);
    mid = (uint32_t)(v / 100000000 % 100000000);
    digits[0] = (char)('0' + v / 10000000000000000);
    for (k = 16; k > 8; k--, lo /= 10, mid /= 10) {
        digits[k] = (char)('0' + lo % 10);
        digits[k - 8] = (char)('0' + mid % 10);
    }
    for (; *d == '0'; d++)
        n--;
    E = e10 + n - 1;
    if (E < -4 || E >= 16) {
        s[0] = d[0];
        s[1] = '.';
        memcpy(s + 2, d + 1, n - 1);
        s += n > 1 ? n + 1 : 1;
        *s++ = 'e';
        *s++ = E < 0 ? '-' : '+';
        E = E < 0 ? -E : E;
        if (E >= 100)
            *s++ = (char)('0' + E / 100);
        *s++ = (char)('0' + E / 10 % 10);
        *s++ = (char)('0' + E % 10);
    } else if (E < 0) {
        /* "0.", -E - 1 zeros, the digits */
        memcpy(s, "0.000", 5);
        memcpy(s + 1 - E, d, n);
        s += 1 - E + n;
    } else {
        /* the first E + 1 places, padded with zeros, ".", the rest or 0 */
        k = E + 1 < n ? E + 1 : n;
        memcpy(s, d, k);
        memset(s + k, '0', E + 1 - k);
        s[E + 1] = '.';
        s[E + 2] = '0';
        memcpy(s + E + 2, d + k, n - k);
        s += E + 2 + (n > k ? n - k : 1);
    }
    return s;
}

/* sep.join(map(float.__repr__, v[:n])) as bytes into out, which holds
 * n * (mvsde_repr_width + sep_len) chars; returns the number written, or
 * -1 when some value is not finite. */
ptrdiff_t mvsde_repr_join(const double *v, ptrdiff_t n, const char *sep,
                          ptrdiff_t sep_len, char *out)
{
    char *s = out;
    ptrdiff_t i;

    for (i = 0; i < n; i++) {
        if (!isfinite(v[i]))
            return -1;
        s = repr_one(v[i], s);
        memcpy(s, sep, sep_len);
        s += sep_len;
    }
    return n > 0 ? s - out - sep_len : 0;
}
