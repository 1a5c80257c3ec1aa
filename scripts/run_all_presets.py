#!/usr/bin/env python3
"""Run every packaged experiment preset and summarise the pass flags.

Usage:
    python scripts/run_all_presets.py [--outdir out] [--check] [--only NAME ...]

The presets run one after another in this process.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from logflow.cli import persist_run
from logflow.config import load_config
from logflow.experiments import run_pipeline
from logflow.presets import preset_names


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out")
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero when any preset fails its thresholds")
    parser.add_argument("--only", nargs="*", default=None,
                        help="subset of preset names")
    args = parser.parse_args()

    names = args.only or preset_names()
    failures = []
    for name in names:
        cfg = load_config({"preset": name, "outdir": str(Path(args.outdir) / name)})
        tic = time.perf_counter()
        report, artifacts = run_pipeline(cfg)
        persist_run(Path(cfg.outdir), cfg, report, artifacts)
        status = "ok" if report.get("passed") else "FAILED"
        print(f"{name:32s} {status:7s} {time.perf_counter() - tic:6.1f}s "
              f"-> {cfg.outdir}/report.json")
        if not report.get("passed"):
            failures.append(name)
    if failures:
        print(f"\nfailed presets: {', '.join(failures)}", file=sys.stderr)
        return 4 if args.check else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
