"""In-memory span tracing of logflow, installed from outside the package.

Every public function of every logflow module is replaced by a wrapper in
each logflow namespace that holds it, so that a call made inside the package
(``flow`` calling its imported ``hessian``, say) is recorded as well as a
call made by the benchmark.  ``HessianField.eigen_fields`` is wrapped on the
class.  Nothing under ``src/logflow`` is edited; :meth:`Tracer.uninstall`
puts the original objects back.

A span is ``(name, start, end, parent, extra)``: ``parent`` is the index of
the enclosing span in the same list (-1 at top level) and ``extra`` a count
read from the call (accepted steps, Newton iterations, transform pairs,
snapshot bytes) or ``None``.  Self time is a span's duration minus the time
its direct children cover.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from statistics import median

from metrics import PER_LAYER

# counts taken from a call's arguments or result, keyed by span name
_EXTRA = {
    "flow.run": lambda args, out: out.state.step_count,
    "expander.newton_solve": lambda args, out: out.iterations,
    # computed: x-nodes times y-nodes of the dense arg-max
    "legendre.legendre_transform": lambda args, out: args[0].values.size * out.values.size,
    # computed: the float64 payload, header excluded
    "snapshots.write_snapshot": lambda args, out: 8 * args[1].values.size,
}

SPAN_TOLERANCE = 0.02
"""Largest share of a traced pass's wall time that may lie outside every span."""

_SLACK = 1e-6   # seconds of clock jitter check_tree forgives


def _logflow_modules():
    return {name: mod for name, mod in sys.modules.items()
            if (name == "logflow" or name.startswith("logflow.")) and mod is not None}


def _public_functions():
    """(span name, function) for every public function defined in logflow."""
    found = []
    for modname, mod in sorted(_logflow_modules().items()):
        short = modname.rpartition(".")[2]
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == modname):
                found.append((f"{short}.{attr}", obj))
    return found


class Tracer:
    """Records spans while installed; one instance serves a whole run."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patched: list = []   # (namespace, attribute, original)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        from logflow.grid import HessianField
        wrapped = {id(fn): self._wrap(name, fn) for name, fn in _public_functions()}
        for mod in _logflow_modules().values():
            for attr, obj in list(vars(mod).items()):
                w = wrapped.get(id(obj))
                if w is not None and obj is w.__wrapped__:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, w)
        original = HessianField.eigen_fields
        self._patched.append((HessianField, "eigen_fields", original))
        HessianField.eigen_fields = self._wrap("grid.eigen_fields", original)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        extra = _EXTRA.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, None)
            if extra is not None:
                spans[idx] = (name, start, end, parent, extra(args, out))
            return out

        return wrapper

    # -- harness spans -------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the benchmark's own work inside the block as a span."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, None)


class NullTracer:
    """Stand-in for a :class:`Tracer` in untraced passes."""

    def span(self, name: str):
        return contextlib.nullcontext()


# ---------------------------------------------------------------------------
# span analysis
# ---------------------------------------------------------------------------

def self_times(spans: list) -> list:
    """Per-span self time: duration minus the time of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def check_tree(spans: list) -> None:
    """Raise ``ValueError`` unless ``spans`` form a well-nested tree.

    Each parent precedes its children and contains them in time, siblings do
    not overlap, and no self time is negative.
    """
    last_child_end = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        if end < start:
            raise ValueError(f"span {i} ({name}) ends before it starts")
        if parent >= i or parent < -1:
            raise ValueError(f"span {i} ({name}) has parent {parent}")
        if parent >= 0:
            p = spans[parent]
            if start < p[1] - _SLACK or end > p[2] + _SLACK:
                raise ValueError(f"span {i} ({name}) lies outside its parent {p[0]}")
        prev_end = last_child_end.get(parent)
        if prev_end is not None and start < prev_end - _SLACK:
            raise ValueError(f"span {i} ({name}) overlaps its previous sibling")
        last_child_end[parent] = end
    for i, own in enumerate(self_times(spans)):
        if own < -_SLACK:
            raise ValueError(f"span {i} ({spans[i][0]}) has negative self time")


def has_ancestor(spans: list, i: int, name: str) -> bool:
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_values(spans: list) -> dict:
    """Every span-derived per-layer metric of the catalogue for one span list."""
    own = self_times(spans)
    calls: dict = {}
    self_s: dict = {}
    extra: dict = {}
    for s, t in zip(spans, own):
        calls[s[0]] = calls.get(s[0], 0) + 1
        self_s[s[0]] = self_s.get(s[0], 0.0) + t
        if s[4] is not None:
            extra[s[0]] = extra.get(s[0], 0) + s[4]
    steps = extra.get("flow.run", 0)
    hessians_in_flow = sum(1 for i, s in enumerate(spans)
                           if s[0] == "grid.hessian" and has_ancestor(spans, i, "flow.run"))
    special = {
        "flow.accepted_steps": steps,
        "flow.hessians_per_step": hessians_in_flow / steps if steps else 0.0,
        "legendre.pairs": extra.get("legendre.legendre_transform", 0),
        "expander.newton_solve.iterations": extra.get("expander.newton_solve", 0),
        "snapshots.write_snapshot.bytes": extra.get("snapshots.write_snapshot", 0),
    }
    out = {}
    for m in PER_LAYER:
        name = m["name"]
        if name in special:
            out[name] = special[name]
        elif name.endswith(".calls"):
            out[name] = calls.get(name[:-len(".calls")], 0)
        elif name.endswith(".self_s"):
            out[name] = self_s.get(name[:-len(".self_s")], 0.0)
    return out


def combine(setup: dict, passes: list) -> dict:
    """Setup-phase values plus the per-pass median of each metric."""
    return {k: setup[k] + median(p[k] for p in passes) for k in setup}
