"""cli-single-shot: one ``python -m repro.cli certify FILE`` process per
operation, run one after another over a seeded draw of corpus files.

Set-up dumps the corpus with ``repro.harness.corpus.dump_corpus`` in a
child process; the benchmark process itself never imports ``repro`` on
the untraced path, so every measured millisecond is the program's own.
"""

from __future__ import annotations

import os
import random
import subprocess
import threading
import time
from pathlib import Path
from typing import List, Tuple

import coldstart
import ledger
import lib

NAME = "cli-single-shot"

DUMP_CODE = (
    "import sys\n"
    "from repro.harness.corpus import dump_corpus\n"
    "dump_corpus(sys.argv[1])\n"
)

#: Upper bound on one run's invocations.
DRAW_LENGTH = 2000
#: Size strata of the draw: a block of this many invocations takes one
#: file from each; throughput is the median over such blocks.  An odd
#: count puts the median invocation inside the middle stratum rather than
#: on the boundary between two, where small and large files meet.
STRATA = 9
#: Seconds before a hung invocation is killed (and counted as failed).
INVOCATION_TIMEOUT = 60.0


def dump(work: lib.Workdir, repeats: int) -> Tuple[Path, List[float]]:
    """Dump the corpus ``repeats`` times; the last dump is the one used."""
    samples = []
    for attempt in range(repeats):
        target = work.path / f"corpus{attempt}"
        status, _, stderr, seconds = lib.run_child(
            lib.python_cmd("-c", DUMP_CODE, str(target)), work.child_env()
        )
        if status != 0:
            raise RuntimeError(f"corpus dump failed: {stderr[-400:]}")
        samples.append(seconds)
    return target, samples


def corpus_paths(root: Path) -> List[str]:
    """Dumped files as sorted paths relative to ``root``."""
    return sorted(str(p.relative_to(root)) for p in root.rglob("*.vpr"))


def draw(seed: int, paths: List[str], sizes: List[int], length: int) -> List[str]:
    """The seeded sequence of files to certify, in blocks of ``STRATA``.

    The files are cut by size into ``STRATA`` equal strata and every block
    takes one file from each, in shuffled order, so every seed certifies
    the same mix of small and large files.  ``sizes`` are the files'
    lengths, in the order of ``paths``.
    """
    rng = random.Random(f"{NAME}/{seed}")
    ranked = [path for _, path in sorted(zip(sizes, paths))]
    width = len(ranked) // STRATA
    strata = [ranked[i * width:(i + 1) * width] for i in range(STRATA)]
    sequence: List[str] = []
    while len(sequence) < length:
        block = [rng.choice(stratum) for stratum in strata]
        rng.shuffle(block)
        sequence.extend(block)
    return sequence[:length]


def invoke(cmd: List[str], work: lib.Workdir, tag: str
           ) -> Tuple[int, str, str, float, float]:
    """Run one child; ``(exit code, stdout, stderr, seconds, ru_maxrss MiB)``."""
    out_path = work.path / f"{tag}.out"
    err_path = work.path / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=work.child_env(), cwd=lib.ROOT,
                                stdout=out, stderr=err)
        watchdog = threading.Timer(INVOCATION_TIMEOUT, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # Interrupted (SIGTERM unwinds as SystemExit): end the child too.
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (
        proc.returncode,
        out_path.read_text(errors="replace"),
        err_path.read_text(errors="replace"),
        seconds,
        usage.ru_maxrss / 1024.0,
    )


def run(opts, work: lib.Workdir, result: lib.Result) -> None:
    lib.require_program()
    root, setup = dump(work, opts.setup_repeats)
    paths = corpus_paths(root)
    if len(paths) != 72:
        raise RuntimeError(f"corpus dump wrote {len(paths)} files, expected 72")
    sizes = [(root / relative).stat().st_size for relative in paths]
    sequence = draw(opts.seed, paths, sizes, DRAW_LENGTH)
    # One unmeasured call, so the first timed one finds a warm page cache.
    invoke(coldstart.certify_command(str(root / sequence[-1]), False), work, "warm")

    latencies: List[float] = []
    traced_latencies: List[float] = []
    traced_outputs: List[Tuple[str, str]] = []
    done: List[float] = []
    peak_mb = 0.0
    start = time.perf_counter()
    for index, relative in enumerate(sequence):
        # Blocks are whole, so every run certifies each stratum equally often.
        if index % STRATA == 0 and time.perf_counter() - start >= opts.seconds:
            break
        traced = bool(opts.trace) and index % 2 == 0
        command = coldstart.certify_command(str(root / relative), traced)
        status, stdout, stderr, seconds, rss = invoke(command, work, "call")
        result.attempted += 1
        peak_mb = max(peak_mb, rss)
        (traced_latencies if traced else latencies).append(seconds)
        done.append(time.perf_counter() - start)
        if status != 0 or "THEOREM" not in stdout:
            result.fail(f"{relative}: exit {status}: {stderr.strip()[-200:]}")
        elif traced:
            traced_outputs.append((stdout, stderr))

    if not opts.trace:
        result.put("throughput_per_s", lib.median(lib.window_rates(done, STRATA)))
        result.latencies(latencies, "invocations")
        result.put("peak_rss_mb", peak_mb)
        result.put("setup_s", lib.median(setup))
        return

    lib.import_program()
    import serve_mixed

    layers = coldstart.traced_certify_ledger(traced_outputs)
    layers.update(coldstart.startup_ledger(work.child_env(), repeats=5))
    layers.update(lib.trace_overhead(traced_latencies, latencies))
    drawn = list(dict.fromkeys(sequence[: result.attempted]))
    layers.update(ledger.replay_ledger(
        [(root / relative).read_text() for relative in drawn], result
    ))
    probe_corpus = [(root / relative).read_text() for relative in paths]
    random.Random(f"{NAME}/{opts.seed}/probe").shuffle(probe_corpus)
    layers.update(serve_mixed.probe(work, opts.seed, probe_corpus, result))
    for name, value in layers.items():
        result.put(name, value)
