"""Repo preset files stay bound to the in-package catalogue; the gradient-bump
closure matches its closed form."""

import json
from pathlib import Path

import numpy as np
import pytest

from logflow.config import load_config
from logflow.grid import BoxDomain
from logflow.presets import experiment_preset, make_initial_data, preset_names

PRESET_DIR = Path(__file__).resolve().parent.parent / "presets"


def test_every_catalogue_entry_has_a_file():
    files = {p.stem for p in PRESET_DIR.glob("*.json")}
    assert files == set(preset_names())


@pytest.mark.parametrize("path", sorted(PRESET_DIR.glob("*.json")),
                         ids=lambda p: p.stem)
def test_preset_file_loads_and_matches_catalogue(path):
    cfg = load_config(path)
    assert cfg.preset == path.stem
    reference = experiment_preset(path.stem)
    assert cfg.pipeline == reference["pipeline"]
    assert cfg.grid == reference["grid"]


def test_initial_data_families_are_complete():
    kinds = {experiment_preset(n).get("initial", {}).get("kind")
             for n in preset_names()}
    kinds.discard(None)
    assert kinds == {"quadratic", "quadratic_plus_bump",
                     "linear_plus_bump", "two_slope"}


@pytest.mark.parametrize("n, m", [(1, 129), (2, 33), (3, 17)])
def test_linear_plus_bump_closure_matches_scipy_erf(n, m):
    # the closure takes erf from the platform libm, which may differ from
    # scipy's by an ulp of erf; the sum then rounds once more
    from scipy.special import erf
    dom = BoxDomain(n=n, half_width=3.0, m=m)
    b, amp, width = [0.05, -0.03, 0.02][:n], 0.25, 1.5
    u0, boundary = make_initial_data(dom, {"kind": "linear_plus_bump", "b": b,
                                           "amplitude": amp, "width": width}, 0.0)
    scale = amp * width * np.sqrt(np.pi) / 2.0

    def exact(pts, t):
        return pts @ np.asarray(b) + scale * erf(pts[:, 0] / np.sqrt(width ** 2 + 4.0 * t))

    tol = 4 * np.spacing(scale)
    assert u0.values.dtype == np.float64 and u0.values.shape == dom.shape
    assert np.abs(u0.values.ravel() - exact(dom.points(), 0.0)).max() <= tol
    ring = dom.points()[dom.ring_mask().ravel()]
    for t in (0.0, 0.3, 2.0):
        values = boundary.ring_values(dom, t, 0.0)
        assert values.dtype == np.float64 and values.shape == (len(ring),)
        assert np.abs(values - exact(ring, t)).max() <= tol
        assert values.tobytes() == boundary.values_at(ring, t, 0.0, n).tobytes()
