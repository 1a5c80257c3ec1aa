#!/usr/bin/env python3
"""Run every packaged experiment preset and summarise the verdicts.

Usage:
    python scripts/run_all_presets.py [--outdir out] [--check] [--only NAME ...]

The presets run one after another in this process.  Each failing entry of a
report's ``checks`` is printed under its preset.  ``--check`` judges as
``logflow flow run --check`` does (refinement pair and wall time included)
and exits 4 when any preset fails.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from logflow.cli import persist_run
from logflow.config import load_config
from logflow.experiments import gate, run_pipeline
from logflow.presets import preset_names


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out")
    parser.add_argument("--check", action="store_true",
                        help="judge as `flow run --check`; exit 4 when any preset fails")
    parser.add_argument("--only", nargs="*", default=None,
                        help="subset of preset names")
    args = parser.parse_args()

    names = args.only or preset_names()
    failures = []
    for name in names:
        cfg = load_config({"preset": name, "outdir": str(Path(args.outdir) / name)})
        tic = time.perf_counter()
        report, artifacts, timing = gate(cfg) if args.check else (*run_pipeline(cfg), [])
        persist_run(Path(cfg.outdir), cfg, report, artifacts)
        failed = [c for c in report["checks"] + timing if not c["ok"]]
        print(f"{name:32s} {'FAILED' if failed else 'ok':7s} "
              f"{time.perf_counter() - tic:6.1f}s -> {cfg.outdir}/report.json")
        for entry in failed:
            print(f"    {json.dumps(entry)}")
        if failed:
            failures.append(name)
    if failures:
        print(f"\nfailed presets: {', '.join(failures)}", file=sys.stderr)
        return 4 if args.check else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
