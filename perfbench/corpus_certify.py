"""corpus-certify: the paper's evaluation, in process and serial.

Every pass certifies all 72 ``repro.harness.full_corpus()`` files, in a
seeded order, with no artifact cache.  An operation is one file.  Passes
are whole: a pass started before the deadline runs to its end, so every
run's samples cover each file equally often.

The corpus's latencies cluster (small files near 20 ms, most near 65 ms,
a few past 120 ms), so a percentile of all samples pooled can jump across
a gap between clusters when the host is noisy.  Each file's latency is
therefore its median over the run's passes, and the p50 and tail are
taken over those 72 medians; throughput is 72 files over the median pass.

``repro.certify_source`` is ``run_pipeline(source).report``; the
benchmark calls ``repro.pipeline.run_pipeline`` so the gate can also read
the Boogie and certificate texts it produced.
"""

from __future__ import annotations

import random
import resource
import time
from typing import Dict, List, Tuple

import ledger
import lib

NAME = "corpus-certify"

#: Child process measuring set-up: import plus corpus generation.
SETUP_CODE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import repro\n"
    "from repro.harness import full_corpus\n"
    "full_corpus()\n"
    "print(time.perf_counter() - start)\n"
)

def pass_order(count: int, seed: int, pass_index: int) -> List[int]:
    """The seeded order of one pass over ``count`` corpus files."""
    order = list(range(count))
    random.Random(f"{NAME}/{seed}/{pass_index}").shuffle(order)
    return order


def setup_seconds(work: lib.Workdir, repeats: int) -> List[float]:
    samples = []
    for _ in range(repeats):
        status, stdout, stderr, _ = lib.run_child(
            lib.python_cmd("-c", SETUP_CODE), work.child_env()
        )
        if status != 0:
            raise RuntimeError(f"set-up child failed: {stderr[-400:]}")
        samples.append(float(stdout.strip().splitlines()[-1]))
    return samples


def certify_plain(source: str) -> Tuple[bool, Tuple[str, ...], str, float]:
    from repro.pipeline import run_pipeline

    start = time.perf_counter()
    ctx = run_pipeline(source)
    seconds = time.perf_counter() - start
    report = ctx.report
    return (
        report.ok,
        tuple(sorted(report.method_reports)),
        ledger.artifact_digest(ctx.boogie_text, ctx.certificate_text),
        seconds,
    )


def run(opts, work: lib.Workdir, result: lib.Result) -> None:
    setup = setup_seconds(work, opts.setup_repeats)
    lib.import_program()
    from repro.harness import full_corpus

    files = [f for group in full_corpus().values() for f in group]
    expected = [ledger.method_names(f.source) for f in files]
    # Lazy imports inside the pipeline happen once per process; pay them
    # before the clock starts.
    certify_plain(min(files, key=lambda f: len(f.source)).source)

    digests: Dict[int, str] = {}
    latencies: List[float] = []
    per_file: Dict[int, List[float]] = {}
    done: List[float] = []
    traced_latencies: List[float] = []
    ledgers: List[ledger.Ledger] = []
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < opts.seconds:
        traced_pass = bool(opts.trace) and passes % 2 == 0
        pass_ledger = ledger.Ledger()
        for index in pass_order(len(files), opts.seed, passes):
            corpus_file = files[index]
            result.attempted += 1
            if traced_pass:
                traced = ledger.certify_traced(corpus_file.source)
                ok, methods, digest, seconds = (
                    traced.ok, traced.methods, traced.digest, traced.seconds
                )
                pass_ledger.add(traced)
                traced_latencies.append(seconds)
                if traced.mismatch:
                    result.fail(f"{corpus_file.name}: {traced.mismatch}")
            else:
                ok, methods, digest, seconds = certify_plain(corpus_file.source)
                latencies.append(seconds)
                per_file.setdefault(index, []).append(seconds)
                done.append(time.perf_counter() - start)
            label = f"{corpus_file.suite}/{corpus_file.name}"
            if not ok:
                result.fail(f"{label}: certificate rejected")
            elif methods != expected[index]:
                result.fail(f"{label}: certified {methods}, expected {expected[index]}")
            elif digests.setdefault(index, digest) != digest:
                result.fail(f"{label}: Boogie/certificate digest changed between passes")
        if traced_pass:
            ledgers.append(pass_ledger)
        passes += 1
    elapsed = time.perf_counter() - start
    result.notes.append(f"{NAME}: {passes} passes in {elapsed:.2f} s")

    if not opts.trace:
        result.put("throughput_per_s",
                   lib.median(lib.window_rates(done, len(files))))
        result.latencies([lib.median(s) for s in per_file.values()],
                         "per-file medians")
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result.put("peak_rss_mb", peak_kb / 1024.0)
        result.put("setup_s", lib.median(setup))
        return

    import coldstart
    import serve_mixed

    layers = ledger.median_ledger(ledgers)
    result.notes.append(ledger.kernel_accounting(layers))
    layers.update(lib.trace_overhead(traced_latencies, latencies))
    sources = [files[i].source for i in pass_order(len(files), opts.seed, -1)]
    layers.update(serve_mixed.probe(work, opts.seed, sources, result))
    path = work.path / "coldstart.vpr"
    path.write_text(sources[0])
    layers.update(coldstart.probe(work.child_env(), str(path)))
    for name, value in layers.items():
        result.put(name, value)
