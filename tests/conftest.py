import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("default", deadline=None, max_examples=25)
settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


@pytest.fixture
def src_env():
    """The environment for a subprocess that imports logflow from this checkout."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env
