"""Build hook for the optional compiled counting kernel.

The package is fully functional without the extension (a pure-Python
kernel is selected at import time); the extension only makes exhaustive
enumeration over S_n fast.  It is one hand-written C file against the
CPython API, so building it needs nothing but a C compiler, and
``optional=True`` lets the install go on without it when the compile
fails.  Build it in place with ``python setup.py build_ext --inplace``.

The in-place build also byte-compiles every module of ``src/permdyck``
into its ``__pycache__`` (PEP 3147 files, validated by source timestamp
as usual), whether or not the extension built.  Where Python cannot write
bytecode at import, as under ``PYTHONDONTWRITEBYTECODE`` or in a read-only
checkout, each command would otherwise compile every module it imports
from source at start-up.  A module edited after the build has stale
bytecode, which Python ignores: that module alone is compiled from
source at each start-up until the next build.  Wheel builds and pip
installs (editable ones too, with setuptools 64 or later) do not build
in place, so this step does not run for them; pip byte-compiles what it
installs from a wheel.
"""

import compileall

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext as _build_ext
from setuptools.errors import CompileError

PACKAGE_DIR = "src/permdyck"


class build_ext(_build_ext):
    """``build_ext`` that also byte-compiles the package when building in place."""

    def run(self):
        super().run()
        if self.inplace and not compileall.compile_dir(PACKAGE_DIR, maxlevels=0, force=True, quiet=1):
            raise CompileError(f"byte-compiling {PACKAGE_DIR} failed (see the error above)")


setup(
    cmdclass={"build_ext": build_ext},
    ext_modules=[
        Extension("permdyck._fastcount", [f"{PACKAGE_DIR}/_fastcount.c"], optional=True)
    ],
)
