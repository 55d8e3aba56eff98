"""The cold-start ledger: interpreter start, ``import repro.cli`` and the
pipeline share of a single-shot ``repro certify``.

* ``cli.interpreter_ms`` -- wall time of ``python -c pass``;
* ``cli.import_ms`` -- wall time of ``python -c "import repro.cli"``;
* ``cli.import.<package>_ms`` -- import self time per package, summed from
  ``python -X importtime``: one bucket per ``repro`` subpackage in
  :data:`IMPORT_PACKAGES`, ``repro`` for the root package and any other
  subpackage, ``stdlib`` for every module outside ``repro``;
* ``cli.pipeline_ms`` -- the stage seconds ``repro certify --timings``
  prints, summed.

Every value is the median over several child processes.
"""

from __future__ import annotations

import re
from typing import Dict, List, Sequence, Tuple

import lib

#: ``repro`` subpackages that ``import repro.cli`` loads, one metric each.
IMPORT_PACKAGES: Tuple[str, ...] = (
    "viper", "boogie", "frontend", "certification", "pipeline", "trace",
)

IMPORT_METRICS: Tuple[str, ...] = tuple(
    f"cli.import.{name}_ms" for name in ("repro", *IMPORT_PACKAGES, "stdlib")
)

COLDSTART_METRICS: Tuple[str, ...] = (
    "cli.interpreter_ms", "cli.import_ms", *IMPORT_METRICS, "cli.pipeline_ms",
)

_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+\d+ \|\s+(\S+)\s*$")
_TIMING = re.compile(r"^  ([a-z_]+)\s+(\d+\.\d+)s\b(.*)$")


def certify_command(path: str, traced: bool) -> List[str]:
    """``repro certify PATH``, or its traced form (importtime, --timings)."""
    if traced:
        return lib.python_cmd("-X", "importtime", "-m", "repro.cli",
                              "certify", path, "--timings")
    return lib.python_cmd("-m", "repro.cli", "certify", path)


def import_bucket(module: str) -> str:
    parts = module.split(".")
    if parts[0] != "repro":
        return "cli.import.stdlib_ms"
    if len(parts) > 1 and parts[1] in IMPORT_PACKAGES:
        return f"cli.import.{parts[1]}_ms"
    return "cli.import.repro_ms"


def parse_importtime(stderr: str) -> Dict[str, float]:
    """Import self time per bucket (ms) from ``-X importtime`` output."""
    buckets = {name: 0.0 for name in IMPORT_METRICS}
    for line in stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if match:
            buckets[import_bucket(match.group(2))] += int(match.group(1)) / 1000.0
    return buckets


def parse_timings(stdout: str) -> float:
    """Summed stage seconds from ``repro certify --timings`` (unit rows,
    which repeat time already inside a stage, are skipped)."""
    total = 0.0
    for line in stdout.splitlines():
        match = _TIMING.match(line)
        if match and "unit=" not in match.group(3):
            total += float(match.group(2))
    return total


def traced_certify_ledger(outputs: Sequence[Tuple[str, str]]) -> Dict[str, float]:
    """Median import buckets and pipeline ms over traced certify runs,
    given as ``(stdout, stderr)`` pairs."""
    per_run = [parse_importtime(stderr) for _, stderr in outputs]
    values = {
        name: lib.median([run[name] for run in per_run]) for name in IMPORT_METRICS
    }
    values["cli.pipeline_ms"] = lib.median(
        [parse_timings(stdout) * 1000.0 for stdout, _ in outputs]
    )
    return values


def startup_ledger(env: Dict[str, str], repeats: int) -> Dict[str, float]:
    """Median wall time of a bare interpreter and of ``import repro.cli``."""
    values = {}
    for name, code in (("cli.interpreter_ms", "pass"),
                       ("cli.import_ms", "import repro.cli")):
        samples = []
        for _ in range(repeats):
            status, _, stderr, seconds = lib.run_child(
                lib.python_cmd("-c", code), env
            )
            if status != 0:
                raise RuntimeError(f"python -c {code!r} failed: {stderr[-400:]}")
            samples.append(seconds * 1000.0)
        values[name] = lib.median(samples)
    return values


def probe(env: Dict[str, str], path: str, repeats: int = 3) -> Dict[str, float]:
    """The whole cold-start ledger from fresh child processes."""
    outputs = []
    for _ in range(repeats):
        status, stdout, stderr, _ = lib.run_child(certify_command(path, True), env)
        if status != 0 or "THEOREM" not in stdout:
            raise RuntimeError(f"repro certify {path} failed: {stderr[-400:]}")
        outputs.append((stdout, stderr))
    values = startup_ledger(env, repeats)
    values.update(traced_certify_ledger(outputs))
    return values
