"""Shared helpers for the benchmark: checkout paths, child processes,
percentiles, peak-RSS readings and the result record.

Nothing here imports :mod:`repro`; workloads import it through
:func:`import_program` once the checkout is known to hold the program.
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH_DIR / ".work"

#: Percentiles a tail latency may be reported at, lowest first.  p95 is
#: left out: with a few hundred samples it sits on the slowest couple of
#: dozen operations, which move with host noise far more than p90 does.
TAIL_LADDER = (75.0, 90.0, 99.0, 99.9)
#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


class ProgramMissing(RuntimeError):
    """The checkout holds the benchmark but not the program under test."""


def require_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program under test: {SRC / 'repro'} is missing")


def import_program() -> None:
    """Make ``import repro`` resolve to the checkout's ``src/``."""
    require_program()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# -- work directory and child processes ---------------------------------------


class Workdir:
    """A per-run scratch directory inside the benchmark directory.

    Removed on exit; child processes get ``TMPDIR`` pointing inside it so
    nothing a run starts writes outside the checkout.
    """

    def __init__(self, name: str):
        self.path = WORK_ROOT / f"{name}-{os.getpid()}"

    def __enter__(self) -> "Workdir":
        shutil.rmtree(self.path, ignore_errors=True)
        (self.path / "tmp").mkdir(parents=True)
        return self

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it, or it holds leftovers

    def child_env(self) -> Dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        env["TMPDIR"] = str(self.path / "tmp")
        return env


def python_cmd(*args: str) -> List[str]:
    return [sys.executable, *args]


def run_child(cmd: Sequence[str], env: Dict[str, str], timeout: float = 60.0
              ) -> Tuple[int, str, str, float]:
    """Run a child to completion: ``(exit code, stdout, stderr, seconds)``."""
    start = time.perf_counter()
    proc = subprocess.run(
        list(cmd), env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start


def stop_process(proc: subprocess.Popen, timeout: float = 15.0) -> None:
    """SIGTERM, wait, then SIGKILL if it will not go."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=timeout)
    for stream in (proc.stdout, proc.stderr, proc.stdin):
        if stream is not None:
            stream.close()


# -- statistics ---------------------------------------------------------------


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile (``p`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(count: int) -> float:
    """The highest ladder percentile with ``TAIL_BEYOND`` samples beyond it
    (the median when even the lowest rung has too few)."""
    chosen = 50.0
    for p in TAIL_LADDER:
        if round(count * (100.0 - p), 6) >= TAIL_BEYOND * 100:
            chosen = p
    return chosen


def window_rates(done: Sequence[float], size: int) -> List[float]:
    """Operations per second in consecutive windows of ``size`` completions.

    ``done`` holds the completion offsets (seconds from the start of the
    measured loop) in order; a trailing partial window is left out, and a
    run shorter than one window is one window.
    """
    edges = [0.0, *done]
    rates = [size / (edges[i + size] - edges[i])
             for i in range(0, len(done) - size + 1, size)]
    return rates or [len(done) / edges[-1]]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def trace_overhead(traced: Sequence[float], plain: Sequence[float]) -> Dict[str, float]:
    """The ``trace.*`` metrics from traced and untraced operation seconds
    measured side by side in one run."""
    traced_p50 = median(traced) * 1000.0
    plain_p50 = median(plain) * 1000.0
    return {
        "trace.traced_p50_ms": traced_p50,
        "trace.untraced_p50_ms": plain_p50,
        "trace.overhead_ms": traced_p50 - plain_p50,
    }


# -- peak memory --------------------------------------------------------------


def vmhwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    text = Path(f"/proc/{pid}/status").read_text()
    match = re.search(r"^VmHWM:\s+(\d+) kB", text, re.MULTILINE)
    return int(match.group(1)) / 1024.0 if match else 0.0


def descendants(pid: int) -> List[int]:
    """Live descendant pids of ``pid`` (children first, breadth-first)."""
    found: List[int] = []
    frontier = [pid]
    while frontier:
        parent = frontier.pop(0)
        for task in Path(f"/proc/{parent}/task").glob("*/children"):
            try:
                kids = [int(k) for k in task.read_text().split()]
            except OSError:
                continue
            found.extend(kids)
            frontier.extend(kids)
    return found


# -- the result record --------------------------------------------------------


@dataclass
class Result:
    """What one run reports: operation counts, metrics and failure notes."""

    attempted: int = 0
    failed: int = 0
    #: Metric name -> value; units come from ``BENCHMARK.json``.
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Human-readable lines printed to stderr (accounting, tail choice).
    notes: List[str] = field(default_factory=list)
    #: The first few failed operations, for stderr.
    failures: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def put(self, name: str, value: float) -> None:
        self.metrics[name] = float(value)

    def latencies(self, seconds: Sequence[float], samples: str = "samples") -> None:
        """The end-to-end latency pair from per-operation seconds."""
        tail = tail_percentile(len(seconds))
        self.put("latency_p50_ms", percentile(seconds, 50.0) * 1000.0)
        self.put("latency_tail_ms", percentile(seconds, tail) * 1000.0)
        self.notes.append(
            f"latency_tail_ms is p{tail:g} of {len(seconds)} {samples}"
        )
