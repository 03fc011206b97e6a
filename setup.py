"""Build script for the optional compiled kernels.

``python3 setup.py build_ext --inplace`` compiles the hand-written
src/mvsde/_core/pairwise.c (the pair kernel, the fused step kernel, the
correctly rounded row sum of the moment observers, the Philox streams of
the Brownian tableau and the initial states, and the inverse normal CDF
applied to them) into a shared library next to it, which mvsde._core loads
with ctypes. It needs GCC or Clang and nothing else: the file includes no
Python or NumPy headers. The kernels are a pure speedup: if the compiler
is missing, the build warns and the package runs mvsde.scheme.step with
the numpy pair kernel, the numpy Philox re-keying and scipy.special.ndtri
in mvsde._core.pairwise_py, which give the same bits at every exponent.
With the library built, a run imports no SciPy module unless it
asks for the exact_assignment W2 route. -O3 lets the compiler vectorise
the passes of the pair loop and the fused step's passes over the
particles for the self terms; floating-point contraction is disabled so
that no fused multiply-add changes a rounding. -fno-math-errno only drops
the branch to libm that sets errno on a domain error, so sqrt compiles
to the correctly rounded instruction and the step's square-root passes
vectorise too; it reorders nothing and changes no value. No flag that
lets the compiler reorder arithmetic (-ffast-math, -fassociative-math) or
pick instructions for one CPU (-march) is passed. Instead, on x86-64 with
glibc, pairwise.c compiles the pair loop, the pair factors, the row norms,
the step body and the correctly rounded row sum twice (target_clones, no
flag needed), for AVX2 and for the x86-64 baseline, and the dynamic
loader runs the AVX2 clone on AVX2 and AVX-512 CPUs and the baseline on
the rest; elsewhere only the baseline is built. Both clones give the
same bits: +, -, *, / and sqrt round alike at every vector width,
-ffp-contract=off keeps FMA out of the AVX2 clone too, and pow stays
scalar libm.
"""

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    """Build the extension if possible; warn and continue otherwise."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # compiler missing, etc.
            self._warn(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            self._warn(exc)

    @staticmethod
    def _warn(exc):
        import warnings

        warnings.warn(
            "mvsde: compiled pairwise core unavailable (%s); "
            "falling back to the pure numpy kernels" % (exc,)
        )


setup(
    ext_modules=[Extension(
        "mvsde._core.pairwise",
        ["src/mvsde/_core/pairwise.c"],
        extra_compile_args=["-O3", "-ffp-contract=off", "-fno-math-errno"],
    )],
    cmdclass={"build_ext": optional_build_ext},
)
