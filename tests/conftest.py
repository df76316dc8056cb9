"""Shared pytest configuration, and the compiled kernel as a fixture."""

import importlib.util
import os
import shutil
import sysconfig
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "permdyck" / "_fastcount.c"


def pytest_report_header(config):
    from permdyck import kernels

    return f"permdyck kernels.BACKEND: {kernels.BACKEND}"


@pytest.fixture(scope="session")
def fastcount(tmp_path_factory):
    """The compiled kernel, whichever backend ``kernels`` selected: the
    in-place build when importable, else the C source compiled into a
    temporary directory and loaded from there."""
    try:
        from permdyck import _fastcount

        return _fastcount
    except ImportError:
        pass
    # the compiler setuptools would run: $CC, else the one Python was built with
    cc = (os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(cc) is None:
        pytest.skip(f"no C compiler ({cc!r} not found) to build permdyck._fastcount")
    from setuptools import Distribution, Extension
    from setuptools.command.build_ext import build_ext

    out = tmp_path_factory.mktemp("fastcount")
    cmd = build_ext(
        Distribution({"ext_modules": [Extension("permdyck._fastcount", [str(SOURCE)])]})
    )
    cmd.build_lib = str(out)
    cmd.build_temp = str(out / "tmp")
    cmd.ensure_finalized()
    cmd.run()
    spec = importlib.util.spec_from_file_location(
        "permdyck._fastcount", cmd.get_ext_fullpath("permdyck._fastcount")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
