"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload solve-cold-n100 --seed 1 \\
        --seconds 15 --trace 0

Run from the root of a source tree (the program is imported from
``src/``).  ``--trace 0`` times the workload with tracing off and prints
the end-to-end metrics; ``--trace 1`` repeats the timed pass, adds the
traced one and prints the per-layer metrics.  Metric names and units come
from ``BENCHMARK.json``.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the same object,
with a header naming the seed, CPU count, Python version, git commit and
wall time, is written under ``perfbench/out/``.  Exit status: 0 when every
output was correct, 1 on any wrong or failed output or an inconsistent
layer split, 2 when there is no program to measure.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("solve-cold-n100", "rpc-warm-n16", "fleet-miss-n48")


def _git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _metric_units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    # a terminated run still stops the servers it started (finally blocks)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # measure the default configuration, whatever the caller's environment
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(ROOT / "src"))
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)

    started = time.time()
    header = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _git_commit(ROOT),
        "started_utc": datetime.datetime.fromtimestamp(
            started, datetime.timezone.utc
        ).isoformat(timespec="seconds"),
    }
    print("perfbench " + json.dumps(header), flush=True)

    if args.workload == "solve-cold-n100":
        import cold

        raw = cold.run(args.seed, args.seconds, bool(args.trace))
    else:
        import served

        raw = served.run(args.workload, ROOT, out_dir, args.seed,
                         args.seconds, bool(args.trace))

    units = _metric_units(bool(args.trace))
    missing = set(units) - set(raw["metrics"])
    if missing:
        raise RuntimeError(f"workload did not measure {sorted(missing)}")
    correct = raw["failed"] == 0 and raw.get("split_ok", True)
    result = {
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {
            name: {"value": float(raw["metrics"][name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    header["wall_s"] = time.time() - started
    artifact = out_dir / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    artifact.write_text(json.dumps(
        {"header": header, "result": result,
         "unscaled": raw.get("unscaled", {}), "errors": raw.get("errors", [])},
        indent=2,
    ) + "\n")
    for name, metric in result["metrics"].items():
        print(f"{name:36s} {metric['value']:14.6g} {metric['unit']}")
    if not correct:
        print(f"INCORRECT: {raw['failed']} of {raw['attempted']} outputs "
              f"failed, layer split consistent: {raw.get('split_ok', True)}; "
              f"{raw.get('errors', [])}")
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
