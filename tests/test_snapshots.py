"""Snapshot persistence: bit-exact binary round trips, 17-digit CSV round trips."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from logflow.errors import MissingArtifact
from logflow.grid import BoxDomain, GridFunction
from logflow.snapshots import read_snapshot, write_snapshot


@given(seed=st.integers(0, 10_000))
def test_binary_round_trip_bit_exact(seed, tmp_path_factory):
    rng = np.random.default_rng(seed)
    dom = BoxDomain(n=2, half_width=1.5, m=7)
    u = GridFunction(dom, rng.normal(scale=1e3, size=dom.shape), label="noise")
    path = tmp_path_factory.mktemp("snap") / "u.snap"
    write_snapshot(path, u, t=0.125, tau=1.0, fmt="binary")
    v, head = read_snapshot(path)
    assert v.values.tobytes() == u.values.tobytes()
    assert head["t"] == 0.125 and head["tau"] == 1.0
    assert v.domain == dom and v.label == "noise"


def test_csv_round_trip_exact(tmp_path, rng):
    dom = BoxDomain(n=1, half_width=2.0, m=17)
    u = GridFunction(dom, rng.normal(size=dom.shape) * np.pi, label="csv")
    path = tmp_path / "u.csv"
    write_snapshot(path, u, t=0.3, tau=0.5, fmt="csv")
    v, head = read_snapshot(path)
    assert np.array_equal(v.values, u.values)  # %.17g round-trips float64
    assert head["format"] == "csv"


def test_csv_binary_cross_conversion(tmp_path, rng):
    dom = BoxDomain(n=2, half_width=1.0, m=9)
    u = GridFunction(dom, rng.normal(size=dom.shape))
    pb = tmp_path / "u.snap"
    pc = tmp_path / "u.csv"
    write_snapshot(pb, u, fmt="binary")
    v, _ = read_snapshot(pb)
    write_snapshot(pc, v, fmt="csv")
    w, _ = read_snapshot(pc)
    assert w.values.tobytes() == u.values.tobytes()


def test_reject_non_snapshot(tmp_path):
    p = tmp_path / "junk.snap"
    p.write_text('{"hello": 1}\n')
    with pytest.raises(MissingArtifact, match="not a snapshot"):
        read_snapshot(p)
