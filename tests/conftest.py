import os

import pytest

from scorebo.problems import make_synthetic_datasheet


@pytest.fixture(scope="session")
def datasheet():
    """Frozen synthetic IV targets generated from the default ground truth."""
    return make_synthetic_datasheet()


def pytest_report_header(config):
    """BLAS thread settings, which criterion 5's timing slopes depend on."""
    return ("BLAS threads: " + ", ".join(
        f"{name}={os.environ.get(name, 'unset')}"
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")))
