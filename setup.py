"""Build hook for the optional compiled counting kernel.

The package is fully functional without the extension (a pure-Python
kernel is selected at import time); the extension only makes exhaustive
enumeration over S_n fast.  It is one hand-written C file against the
CPython API, so building it needs nothing but a C compiler, and
``optional=True`` lets the install go on without it when the compile
fails.  Build it in place with ``python setup.py build_ext --inplace``.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension("permdyck._fastcount", ["src/permdyck/_fastcount.c"], optional=True)
    ]
)
