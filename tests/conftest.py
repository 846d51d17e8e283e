"""Shared test fixtures; the heavyweight ones are session-scoped."""

import json

import pytest
from hypothesis import settings

from numeric_env import DIGEST_THREADS, pin_threads

# every property test replays the same examples on every run and host: no
# deadline, a fixed derandomized stream and no example database; each test
# sets its own max_examples
settings.register_profile("attnmask", deadline=None, derandomize=True, database=None)
settings.load_profile("attnmask")


def pytest_configure(config):
    # the digests hold only at the BLAS thread count they were recorded at;
    # pinning it here holds whatever OPENBLAS_NUM_THREADS or import order say
    pin_threads(DIGEST_THREADS)


@pytest.fixture
def tiny_config(tmp_path):
    """A config that trains in about a second, for CLI plumbing tests."""
    cfg = {
        "train_images": 6,
        "val_images": 2,
        "train": {"epochs": 3, "step_epochs": [1, 2]},
        "model": {"fpn_dim": 16},
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)
