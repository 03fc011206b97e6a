"""The kernel backends: NUMPY, the kernels of pairwise_py, and the C
kernels of pairwise.c (built by setup.py) that load_compiled binds with
ctypes. A backend is one value with a ``name``, "numpy" or "c", and six
kernels by name; ``kernels`` is the active one, the compiled one when the
build produced it (and MVSDE_FORCE_FALLBACK is unset) and NUMPY
otherwise. Every module calls ``kernels.<kernel>`` at call time, so one
assignment of ``kernels`` switches them all, and backend_name.

``bind_advance`` is the fused multi-step kernel that mvsde.scheme.simulate
runs on the C backend for every model, summing each step's rows of the
finest Brownian table itself; it is None on NUMPY, where simulate runs
scheme.step on rng.level_increments. ``fsum_rows`` (the moment
observers' correctly rounded row sum), ``philox_uniforms`` (the
per-particle Philox streams), ``ndtri`` (the inverse normal CDF) and
``quantized_increments`` (uniforms to the tableau's increments, in place)
give the same bits on both, and ``repr_join`` (the float.__repr__ text of
a list of floats) the same text. On the C backend nothing here imports
SciPy; NUMPY's ``ndtri`` is scipy.special.ndtri, imported on first call.

``pair_aggregate`` is the numpy pair kernel on both backends: scheme.step
calls it, and the fused kernel calls its C twin mvsde_pair_aggregate,
which gives the same bits at tame_g = 1, the scheme's taming of g and the
only one the C routine has. Both follow pairwise_py.pair_factors, the
per-pair algebra of the scheme. ``pairwise_py.power`` is the one power
rule of both backends: outside each power site's special cases an
exponent goes to libm pow, so the backends agree at every exponent.
"""

import ctypes
import importlib.machinery
import os
import types

import numpy as np

from ..model import COEFFICIENTS
from . import pairwise_py

pair_aggregate = pairwise_py.pair_aggregate
pair_aggregate_naive = pairwise_py.pair_aggregate_naive

NUMPY = types.SimpleNamespace(
    name="numpy", bind_advance=None, fsum_rows=pairwise_py.fsum_rows,
    philox_uniforms=pairwise_py.philox_uniforms, ndtri=pairwise_py.ndtri,
    quantized_increments=pairwise_py.quantized_increments,
    repr_join=pairwise_py.repr_join)

_HERE = os.path.dirname(os.path.abspath(__file__))
# the mvsde_abi of the pairwise.c these bindings are written for
_ABI = 7
_PTR, _SIZE = ctypes.c_void_p, ctypes.c_ssize_t


class _Coeffs(ctypes.Structure):
    """struct mvsde_coeffs of pairwise.c, field for field: the step size,
    the model's coefficients in model.COEFFICIENTS order, the taming's
    gamma and e, and the number of noise components."""

    _fields_ = ([(name, ctypes.c_double)
                 for name in ("h",) + COEFFICIENTS + ("gamma", "e")]
                + [("k_noise", ctypes.c_ssize_t)])


# (restype, argtypes) of each pairwise.c kernel the package binds
_SIGNATURES = {
    "mvsde_advance": (_SIZE, [ctypes.POINTER(_Coeffs), _PTR, _PTR, _SIZE,
                              _SIZE, _PTR] + [_SIZE] * 4 + [_PTR] * 4),
    "mvsde_fsum_rows": (None, [_PTR, _SIZE, _SIZE, _PTR]),
    "mvsde_philox_uniforms": (None, [ctypes.c_uint64] + [_SIZE] * 3 + [_PTR]),
    "mvsde_ndtri": (None, [_PTR, _SIZE]),
    "mvsde_quantized_increments": (None, [_PTR, _SIZE, ctypes.c_double]),
    "mvsde_repr_join": (_SIZE, [_PTR, _SIZE, ctypes.c_char_p, _SIZE, _PTR]),
}


def _address(a, what, writes=False, dtype=np.float64):
    """Address of the array a for a C kernel (None for None), after the one
    check of every array handed to C: C-contiguous, of dtype, and
    writeable where C writes into it. ValueError naming what otherwise."""
    if a is None:
        return None
    if (a.dtype != dtype or not a.flags.c_contiguous
            or writes and not a.flags.writeable):
        raise ValueError("%s must be a %sC-contiguous %s array" % (
            what, "writeable " if writes else "", np.dtype(dtype).name))
    return a.ctypes.data


def load_compiled(path):
    """The backend of the C kernels in the shared library at path: NUMPY's
    names, name "c", and every kernel but bind_advance (see its docstring)
    with the signature and results of its pairwise_py namesake.
    Raises OSError when the library cannot be loaded and AttributeError
    when it lacks any kernel symbol or was built from a pairwise.c with
    another mvsde_abi, so a stale library never provides some kernels
    without the others, nor kernels with other signatures.
    """
    lib = ctypes.CDLL(path)
    for symbol, (restype, argtypes) in _SIGNATURES.items():
        kernel = getattr(lib, symbol)  # which lib keeps as its attribute
        kernel.restype, kernel.argtypes = restype, argtypes
    try:
        abi = ctypes.c_int.in_dll(lib, "mvsde_abi").value
    except ValueError:  # built before pairwise.c had the constant
        abi = 0
    if abi != _ABI:
        raise AttributeError("library mvsde_abi is %d, the package needs %d"
                             % (abi, _ABI))
    pair_rows = ctypes.c_int.in_dll(lib, "mvsde_pair_rows").value
    repr_width = ctypes.c_int.in_dll(lib, "mvsde_repr_width").value

    def bind_advance(coeffs, states, scratch, ratio):
        """_BoundAdvance over this library's mvsde_advance.

        coeffs maps every _Coeffs field name to its value; ratio is the
        number of noise rows a step sums.
        """
        return _BoundAdvance(lib.mvsde_advance, _Coeffs(**coeffs), states,
                             scratch, ratio, pair_rows)

    def fsum_rows(a):
        """See pairwise_py.fsum_rows for the reference semantics."""
        a = np.ascontiguousarray(a, dtype=np.float64)
        if a.ndim != 2:
            raise ValueError("fsum_rows needs a 2-D array, got shape %r"
                             % (a.shape,))
        out = np.empty(a.shape[0])
        lib.mvsde_fsum_rows(_address(a, "rows"), a.shape[0], a.shape[1],
                            _address(out, "sums", True))
        return out

    def philox_uniforms(key0, shape):
        """See pairwise_py.philox_uniforms for the reference semantics."""
        s, n, l = shape
        out = np.empty((s, n, l))
        # released GIL: tableaux of reps on other threads draw in parallel
        lib.mvsde_philox_uniforms(key0 & pairwise_py.MASK64, n, s, l,
                                  _address(out, "uniforms", True))
        return out

    def ndtri(a, out=None):
        """See pairwise_py.ndtri for the reference semantics; out, when
        given, must be a itself (an in-place call)."""
        if out is None:
            # a C-contiguous copy, also of a strided view such as u[:, :d]
            out = np.array(a, dtype=np.float64, order="C")
        elif out is not a:
            raise ValueError("ndtri writes in place only into its own input")
        # released GIL, like the Philox kernel's
        lib.mvsde_ndtri(_address(out, "the output ndtri writes in place",
                                 True), out.size)
        return out

    def quantized_increments(u, scale):
        """See pairwise_py.quantized_increments for the reference
        semantics; u must be a writeable C-contiguous float64 array."""
        # released GIL, like the Philox kernel's
        lib.mvsde_quantized_increments(
            _address(u, "the block turned in place", True), u.size, scale)
        return u

    def repr_join(values, sep):
        """See pairwise_py.repr_join for the reference semantics; values
        is a list of floats, and one that is not finite sends the whole
        list to the reference."""
        a = np.array(values, dtype=np.float64)
        if a.ndim != 1:
            raise ValueError("repr_join takes a flat list of floats")
        raw = sep.encode()
        out = ctypes.create_string_buffer(len(a) * (repr_width + len(raw)))
        size = lib.mvsde_repr_join(_address(a, "values"), len(a), raw,
                                   len(raw), out)
        if size < 0:
            return pairwise_py.repr_join(values, sep)
        return ctypes.string_at(out, size).decode()

    return types.SimpleNamespace(
        name="c", bind_advance=bind_advance, fsum_rows=fsum_rows,
        philox_uniforms=philox_uniforms, ndtri=ndtri,
        quantized_increments=quantized_increments, repr_join=repr_join)


def pair_scratch_size(n, d, pair_rows):
    """Doubles of scratch that mvsde_pair_aggregate needs for an n x d
    ensemble, from the library's mvsde_pair_rows, the taller of its two
    row blocks (8 rows in the AVX-512 wide tile, 4 in the other): the
    structure-of-arrays copy of X and the sums of F and G, each d rows of
    n + pair_rows, and a block's values and sums, 3 d x pair_rows."""
    return 3 * d * (n + 2 * pair_rows)


class _BoundAdvance:
    """mvsde_advance bound to one run's coefficients and state buffers.

    states and scratch are the writeable C-contiguous (N, d) float64
    buffers of the ensemble, and ratio the number r of rows of a noise
    block per step. Calling it with (block, steps) advances states in place
    by up to `steps` steps of a C-contiguous (S, N', l) float64 block with
    S >= steps * r, N' >= N and l >= k_noise (l = 0 for a model with no
    noise, whose k_noise is 0): step s takes the sum of the rows
    block[s * r:(s + 1) * r, :N, :k_noise], so a block of the finest
    increments gives the level n_max / r (rng.level_increments's sums,
    which are exact). It returns the number of steps with a finite result;
    a return j < steps means step j + 1 was done and overflowed. With obs,
    a writeable C-contiguous (R, N) float64 array with R >= steps, row s of
    obs receives the squared particle norms after step s + 1. With keep, a
    C-contiguous uint8 array of at least `steps` flags, and rec, a
    writeable C-contiguous (R, N, d) float64 array with a row for every
    nonzero flag of keep[:steps], the state after step s + 1 goes into the
    next row of rec wherever keep[s] is nonzero. Both cover every step
    done, the overflowing one included.
    """

    def __init__(self, kernel, coeffs, states, scratch, ratio, pair_rows):
        n, d = states.shape
        if scratch.shape != (n, d):
            raise ValueError("scratch of shape %r does not match the states' "
                             "(%d, %d)" % (scratch.shape, n, d))
        if ratio < 1:
            raise ValueError("a step takes at least one noise row, got "
                             "ratio %d" % ratio)
        # F, G, the summed noise, the mean, one row's squares and the pair
        # kernel's scratch
        work = np.empty(3 * n * d + 2 * d
                        + pair_scratch_size(n, d, pair_rows))
        self._kernel = kernel
        self._n = n
        self._ratio = ratio
        self._state_shape = (n, d)
        self._k_noise = coeffs.k_noise
        # the kernel writes through raw pointers into these, so this object
        # keeps them alive
        self._buffers = (coeffs, states, scratch, work)
        self._head = (ctypes.byref(coeffs), _address(states, "states", True),
                      _address(scratch, "scratch", True), n, d)
        self._work = _address(work, "work", True)

    def __call__(self, block, steps, obs=None, keep=None, rec=None):
        _, rows, width = block.shape
        if rows < self._n or width < self._k_noise:
            raise ValueError("noise block of shape %r does not cover %d "
                             "particles" % (block.shape, self._n))
        if not 0 <= steps * self._ratio <= len(block):
            raise ValueError("%d steps of %d rows are outside the noise "
                             "block of %d rows"
                             % (steps, self._ratio, len(block)))
        if obs is not None and (obs.ndim != 2 or obs.shape[1] != self._n
                                or obs.shape[0] < steps):
            raise ValueError("observation buffer of shape %r does not hold "
                             "%d steps of %d particles"
                             % (obs.shape, steps, self._n))
        if (keep is None) != (rec is None):
            raise ValueError("keep and rec come together")
        if keep is not None:
            if keep.ndim != 1 or len(keep) < steps:
                raise ValueError("keep mask of shape %r does not flag %d "
                                 "steps" % (keep.shape, steps))
            kept = np.count_nonzero(keep[:steps])
            if rec.shape[1:] != self._state_shape or len(rec) < kept:
                raise ValueError("state buffer of shape %r does not hold %d "
                                 "states of shape %r"
                                 % (rec.shape, kept, self._state_shape))
        # a CDLL call releases the GIL, so the kernel calls of reps on
        # other threads run in parallel, each on the CPU experiments.
        # _map_reps pinned its worker to; no BLAS pool competes for them
        # (mvsde/__init__.py)
        return self._kernel(*self._head, _address(block, "noise block"),
                            rows * width, width, self._ratio, steps,
                            self._work, _address(obs, "obs", True),
                            _address(keep, "keep", dtype=np.uint8),
                            _address(rec, "rec", True))


def _built_library():
    """Path of the shared library setup.py built from pairwise.c, or None."""
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(_HERE, "pairwise" + suffix)
        if os.path.isfile(path):
            return path
    return None


def _select_backend(path):
    """load_compiled(path), or NUMPY when path is None or the library
    cannot be loaded or lacks any kernel symbol."""
    if path is not None:
        try:
            return load_compiled(path)
        except (OSError, AttributeError):
            pass
    return NUMPY


_FORCED = os.environ.get("MVSDE_FORCE_FALLBACK", "") not in ("", "0")
kernels = _select_backend(None if _FORCED else _built_library())


def backend_name():
    """Identifier of the active backend, kernels.name: 'c' or 'numpy'."""
    return kernels.name
