"""Shared fixture: the C kernels compiled into a temporary directory.

pairwise.c is compiled with the interpreter's own C compiler, with the
flags setup.py uses, so the compiled kernels are tested whether or not
setup.py built the package in place and whatever MVSDE_FORCE_FALLBACK says.
"""

import os
import shlex
import shutil
import subprocess
import sysconfig

import pytest

SOURCE = os.path.join(os.path.dirname(__file__), os.pardir, "src", "mvsde",
                      "_core", "pairwise.c")


@pytest.fixture(scope="session")
def build_library(tmp_path_factory):
    """build(source, name) -> path of a shared library compiled from it."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    if shutil.which(cc[0]) is None:
        pytest.skip("no C compiler found (%s)" % cc[0])
    out_dir = tmp_path_factory.mktemp("kernel")

    def build(source, name):
        lib = str(out_dir / name)
        subprocess.run(cc + ["-O2", "-ffp-contract=off", "-shared", "-fPIC",
                             "-o", lib, source], check=True)
        return lib

    return build


@pytest.fixture(scope="session")
def compiled_library(build_library):
    """Path of pairwise.c compiled into a shared library."""
    return build_library(SOURCE, "pairwise.so")
