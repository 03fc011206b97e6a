"""Pure numpy pairwise-interaction aggregation (reference backend).

This module defines the semantics the compiled backend must reproduce
bit-for-bit. For particle states X (N x d) and a kernel pair

    f(x, y) = (kf1 + kfq * |x-y|^qf) * (x - y)
    g(x, y) = cg * diag(x - y)

optionally tamed by the weight w = 1 / (1 + tam * |x-y|^te), it returns

    F[i] = (1/N) * sum_j w_ij * (kf1 + kfq * r_ij^qf) * (x_i - x_j)
    G[i] = (1/N) * sum_j w_ij * cg * (x_i - x_j)

with the diagonal j = i included (its contribution is exactly zero).

Bit-compatibility contract (kept in sync with pairwise.c):
  - `pair_factors` is the per-pair algebra: the f and g factors of one
    pair from its squared radius, in the order (c * w) * v; the scheme's
    own pair coefficients (model.pair_terms) and the probes' eval_kernel_*
    call it too;
  - squared radius r2 = sum_c dx_c^2 accumulated over components in
    ascending order, as an explicit loop (`pair_r2`; numpy's axis
    reduction is not sequential for d >= 8);
  - exponent special cases: power 2 -> r2, power 0 -> 1 for |x-y|^qf;
    power 2 -> r2, power 4 -> r2*r2, power 0 -> 1 for the taming weight
    (`tame_power`, also the rule of the self-term denominator);
    any other exponent -> libm pow(r, e) (see `power`);
  - tam == 0 short-circuits w to exactly 1.0 (avoids 0*inf at overflow);
  - per-row accumulation in ascending partner order, one scalar
    accumulator per component; division by N at the end;
  - all-zero kernel parameters return exact zeros.

The antisymmetric-pair trick used by the compiled twin (evaluate each pair
once, negate for the mirrored entry) produces identical bits because IEEE-754
negation is exact and every factor in the expression is symmetric in (i, j).

`power` is the one rule every NumPy power site follows outside its
special cases, so that NumPy and C give the same bits at every exponent.

fsum_rows is the reference of the compiled correctly rounded row sum,
philox_uniforms that of the compiled Philox stream block, ndtri that of
the compiled inverse normal CDF, quantized_increments that of the
compiled turn of uniforms into the Brownian tableau's increments and
repr_join that of the compiled float text of the reports.
"""

import math

import numpy as np

# Philox keys are taken modulo 2^64
MASK64 = (1 << 64) - 1
# grid spacing of the quantized increments
QUANT = 2.0 ** -26
# smallest uniform fed to ndtri (Generator.random can return exactly 0)
U_FLOOR = 2.0 ** -54

# pair_aggregate takes the partners in blocks of at most this many pair
# components (N x partners x d), so each of its temporaries stays within
# 8 MB
PAIR_BLOCK_ELEMENTS = 1 << 20


def _libm_pow(r, e):
    try:
        return math.pow(r, e)
    except OverflowError:
        return math.inf


_LIBM_POW = np.frompyfunc(_libm_pow, 2, 1)


def power(r, e):
    """r ** e per element for norms r >= 0 and a scalar exponent e >= 0.

    Exponents 0, 1 and 2 give 1, r and r * r, which is what np.power
    returns for them; any other exponent gives libm pow, through math.pow
    per element, with an overflow as +inf. The compiled kernels call the
    same pow, whereas np.power's vectorised loop differs from it in the
    last bit for some values. It takes about 0.2 s per 10^6 values on a
    2-vCPU Xeon VM, against 5 ms for np.power.
    """
    if e == 0.0:
        return np.ones_like(r)
    if e == 1.0:
        return r
    if e == 2.0:
        return r * r
    return np.asarray(_LIBM_POW(r, e), dtype=np.float64)


def tame_power(r2, e):
    """|x|^e from the squared norm r2 at a taming exponent e, self or pair:
    r2, r2 * r2 and 1 at e = 2, 4 and 0, `power` otherwise."""
    if e == 2.0:
        return r2
    if e == 4.0:
        return r2 * r2
    if e == 0.0:
        return np.ones_like(r2)
    return power(np.sqrt(r2), e)


def pair_r2(dx):
    """Sum of dx (..., d) squared over its components, in ascending order."""
    r2 = dx[..., 0] * dx[..., 0]
    for c in range(1, dx.shape[-1]):
        r2 = r2 + dx[..., c] * dx[..., c]
    return r2


def pair_factors(r2, kf1, kfq, qf, cg, tam, te, tame_g):
    """(cf, cgw) with f(x, y) = cf * (x - y) and g(x, y) = cgw * diag(x - y)
    at squared radii r2: cf = (kf1 + kfq * r^qf) * w, cgw = cg * w if
    tame_g else cg, w = 1 / (1 + tam * r^te), exactly 1 when tam == 0."""
    if qf == 2.0:
        rq = r2
    elif qf == 0.0:
        rq = np.ones_like(r2)
    else:
        rq = power(np.sqrt(r2), qf)
    if tam == 0.0:
        w = np.ones_like(r2)
    else:
        w = 1.0 / (1.0 + tam * tame_power(r2, te))
    cgw = cg * w if tame_g != 0.0 else np.full_like(r2, cg)
    return (kf1 + kfq * rq) * w, cgw


def pair_aggregate(X, kf1, kfq, qf, cg, tam, te, tame_g=1.0):
    """Tamed pairwise kernel sums for every particle.

    Parameters
    ----------
    X : (N, d) float64 array, C-contiguous
    kf1, kfq, qf : drift kernel coefficients and radial exponent
    cg : diagonal diffusion kernel coefficient
    tam : taming weight (0 disables taming exactly)
    te : taming radial exponent
    tame_g : nonzero to apply the taming weight to g as well as f, as
        the scheme always does

    Returns
    -------
    F, G : (N, d) float64 arrays
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    n, d = X.shape
    if kf1 == 0.0 and kfq == 0.0 and cg == 0.0:
        return np.zeros((n, d)), np.zeros((n, d))

    f_acc = np.zeros((n, d))
    g_acc = np.zeros((n, d))
    cols = max(1, PAIR_BLOCK_ELEMENTS // (n * d))
    for j0 in range(0, n, cols):
        # partner-major: dx[j, i] = x_i - x_(j0 + j)
        dx = X[None, :, :] - X[j0:j0 + cols, None, :]
        cf, cgw = pair_factors(pair_r2(dx), kf1, kfq, qf, cg, tam, te,
                               tame_g)
        kf = cf[:, :, None] * dx
        kg = cgw[:, :, None] * dx
        # ascending-j fold, the fixed accumulation order shared with the
        # compiled backend: the running sums join partner row 0, and a
        # reduction over the outer axis adds the partner rows in order
        kf[0] += f_acc
        kg[0] += g_acc
        np.add.reduce(kf, axis=0, out=f_acc)
        np.add.reduce(kg, axis=0, out=g_acc)
    return f_acc / float(n), g_acc / float(n)


def pair_aggregate_naive(X, kf1, kfq, qf, cg, tam, te, tame_g=1.0):
    """Scalar double-loop reference, direct evaluation of every (i, j).

    Used by tests to pin the accumulation-order contract; O(N^2 d) Python,
    keep N small. All-zero kernel parameters return exact zeros, as the
    kernels do.
    """
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    f_out = np.zeros((n, d))
    g_out = np.zeros((n, d))
    if kf1 == 0.0 and kfq == 0.0 and cg == 0.0:
        return f_out, g_out
    for i in range(n):
        for j in range(n):
            r2 = 0.0
            dx = np.empty(d)
            for c in range(d):
                v = X[i, c] - X[j, c]
                dx[c] = v
                r2 = r2 + v * v
            r = np.sqrt(r2)
            if qf == 2.0:
                rq = r2
            elif qf == 0.0:
                rq = 1.0
            else:
                rq = r ** qf
            if tam == 0.0:
                w = 1.0
            else:
                if te == 2.0:
                    rte = r2
                elif te == 4.0:
                    rte = r2 * r2
                elif te == 0.0:
                    rte = 1.0
                else:
                    rte = r ** te
                w = 1.0 / (1.0 + tam * rte)
            coeff = (kf1 + kfq * rq) * w
            gw = cg * w if tame_g != 0.0 else cg
            for c in range(d):
                f_out[i, c] = f_out[i, c] + coeff * dx[c]
                g_out[i, c] = g_out[i, c] + gw * dx[c]
    for i in range(n):
        for c in range(d):
            f_out[i, c] = f_out[i, c] / float(n)
            g_out[i, c] = g_out[i, c] / float(n)
    return f_out, g_out


def fsum_rows(a):
    """Correctly rounded sum of every row of a 2-D array: (rows,) array.

    Row r is math.fsum(a[r]), +inf where fsum raises OverflowError (finite
    terms whose sum leaves the float range) and nan where it raises
    ValueError (inf and -inf in one row). The reference for
    mvsde_fsum_rows in pairwise.c.
    """
    out = np.empty(len(a))
    for r, row in enumerate(np.asarray(a, dtype=np.float64).tolist()):
        try:
            out[r] = math.fsum(row)
        except OverflowError:
            out[r] = math.inf
        except ValueError:
            out[r] = math.nan
    return out


def philox_uniforms(key0, shape):
    """Uniform doubles from one Philox stream per particle: (s, n, l) array.

    Stream i is numpy.random.Philox(counter=0, key=(key0, i)), key0 taken
    modulo 2^64, and its j-th Generator.random double lands at
    [j // l, i, j % l]. The reference for mvsde_philox_uniforms in
    pairwise.c. Re-keys one generator per stream; its fixed seed draws no
    OS entropy, and every stream replaces the key it derives.
    """
    s, n, l = shape
    out = np.empty((s, n, l))
    gen = np.random.Generator(np.random.Philox(0))
    for i in range(n):
        # counter, key and output buffer of a fresh Philox(counter=0,
        # key=(key0, i))
        gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, dtype=np.uint64),
                      "key": np.array([key0 & MASK64, i], dtype=np.uint64)},
            "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
            "has_uint32": 0, "uinteger": 0}
        out[:, i, :] = gen.random(s * l).reshape(s, l)
    return out


def ndtri(a, out=None):
    """Inverse standard normal CDF, elementwise: scipy.special.ndtri.

    The reference for mvsde_ndtri in pairwise.c, which transcribes the
    same Cephes routine. SciPy is imported here, on the first call and
    with OpenBLAS capped at one thread (mvsde/__init__.py), so that the C
    backend never loads it; it stays SciPy because NumPy's vectorised log
    is not libm's and would change the last bit.
    """
    from .. import _import_on_one_blas_thread

    return _import_on_one_blas_thread("scipy.special").ndtri(a, out=out)


def quantized_increments(u, scale):
    """Uniforms u turned into increments in place; returns u.

    Each value becomes rint(ndtri(max(u, U_FLOOR)) * scale / QUANT) *
    QUANT + 0.0: a normal draw scaled to the step, snapped to the grid
    QUANT Z, with +0.0 where the snap gives -0.0. The reference for
    mvsde_quantized_increments in pairwise.c, one NumPy pass per
    operation.
    """
    np.maximum(u, U_FLOOR, out=u)
    ndtri(u, out=u)
    u *= scale
    u /= QUANT
    np.rint(u, out=u)
    u *= QUANT
    u += 0.0
    return u


def repr_join(values, sep):
    """sep.join of float.__repr__ of each float in values: the text json
    and repr give each value, the shortest that reads back to it."""
    return sep.join(map(float.__repr__, values))
