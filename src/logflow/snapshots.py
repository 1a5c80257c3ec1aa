"""Snapshot files: a one-line JSON header plus the nodal values.

Binary format stores the row-major float64 buffer verbatim (bit-exact
round-trip); the CSV format writes one node per line as coordinates plus the
value with 17 significant digits, which also round-trips float64 exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import MissingArtifact
from .grid import BoxDomain, GridFunction

__all__ = ["write_snapshot", "read_snapshot"]

_MAGIC = "logflow-snapshot"


def _header(u: GridFunction, t, tau, fmt: str) -> dict:
    return {
        "format": fmt,
        "kind": _MAGIC,
        **u.domain.to_dict(),
        "t": None if t is None else float(t),
        "tau": None if tau is None else float(tau),
        "label": u.label,
    }


def write_snapshot(path, u: GridFunction, t=None, tau=None, fmt: str = "binary") -> Path:
    path = Path(path)
    head = _header(u, t, tau, fmt)
    if fmt == "binary":
        with open(path, "wb") as f:
            f.write(json.dumps(head, sort_keys=True).encode("utf-8"))
            f.write(b"\n")
            f.write(np.ascontiguousarray(u.values, dtype="<f8").tobytes())
    elif fmt == "csv":
        pts = u.domain.points()
        with open(path, "w", encoding="utf-8") as f:
            f.write("# " + json.dumps(head, sort_keys=True) + "\n")
            cols = ",".join(f"x{i + 1}" for i in range(u.domain.n))
            f.write(f"{cols},value\n")
            flat = u.values.ravel()
            for row, v in zip(pts, flat):
                coords = ",".join(f"{c:.17g}" for c in row)
                f.write(f"{coords},{v:.17g}\n")
    else:
        raise ValueError(f"unknown snapshot format {fmt!r}")
    return path


def read_snapshot(path) -> tuple[GridFunction, dict]:
    """Returns the grid function and the parsed header (with t / tau entries);
    an unreadable file or unusable snapshot raises :class:`MissingArtifact`."""
    path = Path(path)
    try:
        first, _, rest = path.read_bytes().partition(b"\n")
    except OSError as exc:  # missing, a directory, unreadable
        raise MissingArtifact(f"{path}: cannot read the snapshot: {exc.strerror}") from exc
    try:
        text = first.decode("utf-8").strip()
        if text.startswith("# "):
            text = text[2:]
        head = json.loads(text)
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise MissingArtifact(f"{path}: unreadable header: {exc}") from exc
    if not isinstance(head, dict) or head.get("kind") != _MAGIC:
        raise MissingArtifact(f"{path} is not a snapshot file")
    try:
        fmt = head["format"]
        domain = BoxDomain.from_dict(head)
    except (KeyError, TypeError, ValueError) as exc:
        raise MissingArtifact(f"{path}: unusable header: {exc!r}") from exc
    nodes = domain.m ** domain.n
    if fmt == "binary":
        if len(rest) != nodes * 8:
            raise MissingArtifact(f"{path}: payload holds {len(rest)} bytes, "
                                  f"the header needs {nodes * 8}")
        values = np.frombuffer(rest, dtype="<f8").astype(np.float64)
    else:
        body = rest.decode("utf-8").splitlines()
        rows = [line for line in body if line and not line.startswith(("#", "x1"))]
        # the writer ends every row with a newline: a cut inside the last
        # row leaves the row count intact but the terminator missing
        if len(rows) != nodes or not rest.endswith(b"\n"):
            raise MissingArtifact(f"{path}: payload holds {len(rows)} rows, the header "
                                  f"needs {nodes} newline-terminated rows")
        try:
            values = np.array([float(r.rsplit(",", 1)[1]) for r in rows])
        except (IndexError, ValueError) as exc:
            raise MissingArtifact(f"{path}: unreadable row: {exc}") from exc
    if not np.all(np.isfinite(values)):
        raise MissingArtifact(f"{path}: payload holds non-finite values")
    u = GridFunction(domain, values.reshape(domain.shape), label=head.get("label", ""))
    return u, head
