"""The benchmark's metric catalogue.

``BENCHMARK.json`` lists the same names, units and directions; the self-test
checks that the two agree.  ``moves`` records, before any optimisation is
measured, which end-to-end metric on which workload each layer metric is
predicted to move.  Units starting with ``computed_`` are counts derived
from array sizes, not measured.
"""

END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower",
     "about": "median seconds of one untraced pass, first pipeline call to last verdict"},
    {"name": "setup_s", "unit": "s", "better": "lower",
     "about": "median seconds from interpreter start to the first operation"},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower",
     "about": "peak resident memory of the workload process"},
]

_GRID = "wall_s on flow-3d most, less on preset-suite, barely on duality-2d"
_FLOW = "wall_s on flow-3d and preset-suite"
_LEGENDRE = "wall_s and peak_rss_mb on duality-2d; not flow-3d"
_SUITE = "wall_s on preset-suite only"
_SETUP = "setup_s on all three workloads"
_TRACE = "none: describes the tracing itself"


def _m(name, unit, better, moves):
    return {"name": name, "unit": unit, "better": better, "moves": moves}


PER_LAYER = [
    _m("grid.hessian.calls", "count", "lower", _GRID),
    _m("grid.hessian.self_s", "s", "lower", _GRID),
    _m("grid.eigen_fields.calls", "count", "lower", _GRID),
    _m("grid.eigen_fields.self_s", "s", "lower", _GRID),
    _m("grid.gradient.self_s", "s", "lower", _GRID),
    _m("grid.third_derivative_norm.self_s", "s", "lower", _GRID),
    _m("grid.sample.calls", "count", "lower", _GRID),
    _m("grid.sample.self_s", "s", "lower", _GRID),
    _m("flow.run.self_s", "s", "lower", _FLOW),
    _m("flow.step_explicit.calls", "count", "lower", _FLOW),
    _m("flow.step_explicit.self_s", "s", "lower", _FLOW),
    _m("flow.dt_stable.self_s", "s", "lower", _FLOW),
    _m("flow.apply_boundary.self_s", "s", "lower", _FLOW),
    _m("flow.accepted_steps", "count", "lower", _FLOW),
    _m("flow.hessians_per_step", "1/step", "lower", _FLOW),
    _m("legendre.legendre_transform.calls", "count", "lower", _LEGENDRE),
    _m("legendre.legendre_transform.self_s", "s", "lower", _LEGENDRE),
    _m("legendre.pairs", "computed_pairs", "lower", _LEGENDRE),
    _m("legendre.dual_flow_check.self_s", "s", "lower", _LEGENDRE),
    _m("heat.heat_solve.self_s", "s", "lower", _SUITE),
    _m("expander.newton_solve.self_s", "s", "lower", _SUITE),
    _m("expander.newton_solve.iterations", "count", "lower", _SUITE),
    _m("expander.radial_shoot.self_s", "s", "lower", _SUITE),
    _m("expander.certify.self_s", "s", "lower", _SUITE),
    _m("mcf.integrate_particles.self_s", "s", "lower", _SUITE),
    _m("mcf.verify_mcf.self_s", "s", "lower", _SUITE),
    _m("analysis.fit_decay.self_s", "s", "lower", _SUITE),
    _m("analysis.blowdown_convergence.self_s", "s", "lower", _SUITE),
    _m("analysis.plane_convergence.self_s", "s", "lower", _SUITE),
    _m("snapshots.write_snapshot.calls", "count", "lower", _SUITE),
    _m("snapshots.write_snapshot.bytes", "computed_B", "lower", _SUITE),
    _m("snapshots.write_snapshot.self_s", "s", "lower", _SUITE),
    _m("snapshots.read_snapshot.calls", "count", "lower", _SUITE),
    _m("snapshots.read_snapshot.self_s", "s", "lower", _SUITE),
    _m("cli.persist_run.self_s", "s", "lower", _SUITE),
    _m("cli.load_trajectory_dir.self_s", "s", "lower", _SUITE),
    _m("config.load_config.self_s", "s", "lower", _SETUP),
    _m("presets.make_initial_data.calls", "count", "lower", _SETUP),
    _m("presets.make_initial_data.self_s", "s", "lower", _SETUP),
    _m("experiments.run_pipeline.self_s", "s", "lower", _SETUP),
    _m("bench.trace_overhead_s", "s", "lower", _TRACE),
    _m("bench.span_coverage", "fraction", "higher", _TRACE),
]
