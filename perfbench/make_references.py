"""Record the reference losses that the benchmark's output checks compare with.

    python3 perfbench/make_references.py --workload synth-grid

For every input variant it runs one untraced worker and stores the pre-update
train loss and per-epoch train losses of each train run in
perfbench/references.json, replacing that workload's entries.  Run it only
on code whose losses are known to be right: the stored values are what every
later run is checked against.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from run import HERE, VARIANTS, spawn_worker


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("synth-grid", "worms-long"))
    args = parser.parse_args()

    recorded = {}
    scratch = HERE / ".work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for variant in range(VARIANTS):
            report = spawn_worker(args.workload, variant, "run", Path(tmp), timeout=600.0)
            if report["exit"] != 0:
                print(f"variant {variant}: worker failed; nothing recorded", file=sys.stderr)
                return 1
            recorded[str(variant)] = {run["key"]: run["losses"] for run in report["runs"]}
            print(f"variant {variant}: {len(report['runs'])} runs in {report['run_s']:.1f} s", flush=True)

    path = HERE / "references.json"
    refs = json.loads(path.read_text()) if path.exists() else {}
    refs[args.workload] = recorded
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
