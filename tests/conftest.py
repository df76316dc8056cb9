"""Shared pytest configuration."""


def pytest_report_header(config):
    from permdyck import kernels

    return f"permdyck kernels.BACKEND: {kernels.BACKEND}"
