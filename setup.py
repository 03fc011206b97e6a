"""Build script for the optional compiled kernels.

``python3 setup.py build_ext --inplace`` compiles src/mvsde/_core/pairwise.c
into a shared library that mvsde._core loads with ctypes; a failed build
warns and leaves the package on its NumPy kernels, which give the same bits.
The pairwise.c header lists the kernels and the AVX2 clones and argues the
bits. No flag reorders arithmetic or picks one CPU (no -ffast-math, -march):
  -O3                vectorises the pair loop and the step's passes;
  -ffp-contract=off  keeps out fused multiply-adds, which change roundings;
  -fno-math-errno    drops sqrt's errno branch, so its loops vectorise.
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
