"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload corpus-certify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` is the separate traced run
that prints every per-layer metric instead.  Either way every operation's
answer is checked against its known answer; the last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``.  Notes (tail
percentile, accounting, failures) go to standard error.

``--smoke`` runs every workload briefly in both modes and exits non-zero
unless each passes its gate and reports every metric.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from types import SimpleNamespace
from typing import Dict, List

import cli_single_shot
import corpus_certify
import lib
import serve_mixed

WORKLOADS = {
    corpus_certify.NAME: corpus_certify,
    serve_mixed.NAME: serve_mixed,
    cli_single_shot.NAME: cli_single_shot,
}


#: Set-ups per measured run; ``setup_s`` is their median.
SETUP_REPEATS = 5


def load_benchmark() -> Dict:
    return json.loads((lib.ROOT / "BENCHMARK.json").read_text())


def metric_units(benchmark: Dict, trace: bool) -> Dict[str, str]:
    key = "per_layer" if trace else "end_to_end"
    return {entry["name"]: entry["unit"] for entry in benchmark[key]}


def measure(opts) -> Dict:
    """Run one workload; the result object the last output line prints."""
    units = metric_units(load_benchmark(), bool(opts.trace))
    result = lib.Result()
    with lib.Workdir(opts.workload) as work:
        WORKLOADS[opts.workload].run(opts, work, result)
    if result.attempted < 1:
        raise RuntimeError("no operation completed")
    missing = sorted(set(units) - set(result.metrics))
    extra = sorted(set(result.metrics) - set(units))
    if missing or extra:
        raise RuntimeError(f"metrics do not match BENCHMARK.json: "
                           f"missing {missing}, unexpected {extra}")
    for line in result.notes + result.failures:
        print(line, file=sys.stderr)
    return {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": result.metrics[name], "unit": units[name]}
            for name in units
        },
    }


def smoke(seed: int) -> int:
    """Every workload, both modes, one second each: gates and metric sets."""
    failures: List[str] = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            opts = SimpleNamespace(workload=workload, seed=seed, seconds=1.0,
                                   trace=trace, setup_repeats=1)
            start = time.perf_counter()
            outcome = measure(opts)
            print(f"smoke {workload} trace={trace}: correct={outcome['correct']} "
                  f"attempted={outcome['attempted']} failed={outcome['failed']} "
                  f"({time.perf_counter() - start:.1f} s)", file=sys.stderr)
            if not outcome["correct"]:
                failures.append(f"{workload} trace={trace}")
    print(json.dumps({"smoke": "ok" if not failures else "failed",
                      "failures": failures}))
    return 1 if failures else 0


def _terminate(signum, frame):
    # Unwind through the workloads' finally blocks, which stop servers.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload briefly and check its gate")
    opts = parser.parse_args(argv)
    opts.setup_repeats = SETUP_REPEATS
    signal.signal(signal.SIGTERM, _terminate)
    try:
        lib.require_program()
        if opts.smoke:
            return smoke(opts.seed)
        if opts.workload is None:
            parser.error("--workload is required")
        outcome = measure(opts)
    except lib.ProgramMissing as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    except (RuntimeError, OSError) as error:
        print(f"perfbench: {opts.workload}: {error}", file=sys.stderr)
        return 1
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
