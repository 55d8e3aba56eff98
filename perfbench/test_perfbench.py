"""Self-tests for the benchmark (not part of the repository's test suite).

    python3 -m pytest perfbench -q

The determinism tests take a few seconds; ``test_smoke`` runs every
workload in both modes and takes a couple of minutes.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import cli_single_shot  # noqa: E402
import coldstart  # noqa: E402
import corpus_certify  # noqa: E402
import ledger  # noqa: E402
import lib  # noqa: E402
import run  # noqa: E402
import serve_mixed  # noqa: E402

lib.import_program()


@pytest.fixture(scope="module")
def corpus():
    from repro.harness import full_corpus

    return [f.source for files in full_corpus().values() for f in files]


def schedule_signature(seed, corpus, length=120):
    return [(r.kind, r.digest) for r in serve_mixed.build_schedule(seed, corpus, length)]


def test_corpus_order_depends_on_the_seed_only():
    assert corpus_certify.pass_order(72, 5, 0) == corpus_certify.pass_order(72, 5, 0)
    assert corpus_certify.pass_order(72, 5, 0) != corpus_certify.pass_order(72, 6, 0)
    assert corpus_certify.pass_order(72, 5, 0) != corpus_certify.pass_order(72, 5, 1)
    assert sorted(corpus_certify.pass_order(72, 5, 3)) == list(range(72))


def test_request_schedule_depends_on_the_seed_only(corpus):
    first = schedule_signature(3, corpus)
    assert first == schedule_signature(3, corpus)
    assert first != schedule_signature(4, corpus)
    assert {kind for kind, _ in first} == set(serve_mixed.KINDS)


def test_schedule_prefix_does_not_depend_on_its_length(corpus):
    assert schedule_signature(3, corpus, 40) == schedule_signature(3, corpus, 120)[:40]


def test_repeats_and_edits_follow_answered_programs(corpus):
    schedule = serve_mixed.build_schedule(7, corpus, 150)
    for j, request in enumerate(schedule):
        earlier = {r.source for r in schedule[: max(0, j - serve_mixed.CLIENTS + 1)]}
        if request.kind == "repeat":
            assert request.source in earlier
        if request.kind in serve_mixed.CERTIFY_KINDS:
            assert request.methods
    firsts = [r.source for r in schedule if r.kind == "first"]
    assert len(firsts) == len(set(firsts))


def test_every_block_of_the_schedule_has_the_same_mix(corpus):
    size = sum(serve_mixed.BLOCK_COUNTS)
    schedule = serve_mixed.build_schedule(11, corpus, 6 * size)
    expected = dict(zip(serve_mixed.KINDS, serve_mixed.BLOCK_COUNTS))
    # Block 0 may turn early repeats and edits into firsts: nothing is sent yet.
    for start in range(size, len(schedule), size):
        block = [r.kind for r in schedule[start:start + size]]
        assert {kind: block.count(kind) for kind in serve_mixed.KINDS} == expected


def test_first_touches_alternate_small_medium_and_large_files(corpus):
    order = serve_mixed.first_order(random.Random(1), corpus)
    assert sorted(order) == sorted(corpus)
    ranked = sorted(corpus, key=len)
    third = len(ranked) // 3
    strata = [set(ranked[:third]), set(ranked[third:2 * third]), set(ranked[2 * third:])]
    for i, source in enumerate(order):
        assert source in strata[i % 3]


def test_cli_draw_depends_on_the_seed_only():
    paths = [f"suite/{i}.vpr" for i in range(72)]
    sizes = [(i * 37) % 101 for i in range(72)]
    draw = cli_single_shot.draw
    assert draw(1, paths, sizes, 50) == draw(1, paths, sizes, 50)
    assert draw(1, paths, sizes, 50) != draw(2, paths, sizes, 50)


def test_every_cli_block_takes_one_file_from_each_size_stratum():
    paths = [f"suite/{i}.vpr" for i in range(72)]
    sizes = list(range(72))  # path i is the i-th smallest
    strata = cli_single_shot.STRATA
    width = 72 // strata
    sequence = cli_single_shot.draw(3, paths, sizes, 5 * strata)
    for start in range(0, len(sequence), strata):
        block = sequence[start:start + strata]
        assert sorted(int(p[6:-4]) // width for p in block) == list(range(strata))


def test_window_rates():
    assert lib.window_rates([1.0, 2.0, 4.0, 5.0, 5.5], 2) == [1.0, 2.0 / 3.0]
    assert lib.window_rates([0.5], 2) == [2.0]


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert lib.tail_percentile(39) == 50.0
    assert lib.tail_percentile(40) == 75.0
    assert lib.tail_percentile(100) == 90.0
    assert lib.tail_percentile(999) == 90.0
    assert lib.tail_percentile(1000) == 99.0
    assert lib.tail_percentile(10000) == 99.9
    assert lib.percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5


def test_metric_lists_match_benchmark_json():
    benchmark = run.load_benchmark()
    per_layer = [entry["name"] for entry in benchmark["per_layer"]]
    produced = [
        *ledger.LEDGER_UNITS, *serve_mixed.SERVICE_METRICS,
        *coldstart.COLDSTART_METRICS,
        *lib.trace_overhead([1.0], [1.0]),
    ]
    assert sorted(produced) == sorted(per_layer)
    assert len(per_layer) == len(set(per_layer))
    assert [w["name"] for w in benchmark["workloads"]] == list(run.WORKLOADS)


def test_layer_map_covers_every_per_layer_metric():
    benchmark = run.load_benchmark()
    workloads = {w["name"] for w in benchmark["workloads"]}
    end_to_end = {m["name"] for m in benchmark["end_to_end"]}
    groups = json.loads((BENCH / "layers.json").read_text())["groups"]
    mapped = [name for group in groups for name in group["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in benchmark["per_layer"])
    for group in groups:
        assert set(group["measured_on"]) == workloads
        for target in group["moves"] + group.get("barely", []):
            workload, metric = target.split(":")
            assert workload in workloads and metric in end_to_end


def test_span_folding_accounts_for_client_latency():
    spans = [
        {"name": "request", "span_id": "r", "duration": 0.050},
        {"name": "admission", "span_id": "a", "parent_id": "r", "duration": 0.001},
        {"name": "pool.submit", "span_id": "p", "parent_id": "r", "duration": 0.045},
        {"name": "worker.handle", "span_id": "h", "parent_id": "p", "duration": 0.040,
         "attributes": {"queue_wait_seconds": 0.003}},
        {"name": "stage.parse", "span_id": "s1", "parent_id": "h", "duration": 0.010},
        {"name": "stage.check", "span_id": "s2", "parent_id": "h", "duration": 0.020},
        {"name": "cache_lookup", "span_id": "c", "parent_id": "s1", "duration": 0.002},
    ]
    folded = serve_mixed.fold_spans(spans, 0.055)
    parts = [folded[name] for name in serve_mixed.SPAN_METRICS
             if name != "service.worker.cache_lookup_ms"]
    total = sum(parts) + folded["stage_work_ms"] + folded["service.worker.cache_lookup_ms"]
    assert total == pytest.approx(55.0)
    assert folded["service.server.http_ms"] == pytest.approx(5.0)
    assert folded["service.pool.ipc_ms"] == pytest.approx(2.0)
    assert folded["service.worker.handle_ms"] == pytest.approx(10.0)
    assert folded["service.unattributed_ms"] == pytest.approx(4.0)


def test_cold_start_parsers():
    stderr = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       100 |        100 |   _io\n"
        "import time:      2000 |       2500 |     repro.viper.parser\n"
        "import time:       500 |       4000 | repro\n"
        "import time:       300 |        300 |   repro.analysis\n"
    )
    buckets = coldstart.parse_importtime(stderr)
    assert buckets["cli.import.stdlib_ms"] == pytest.approx(0.1)
    assert buckets["cli.import.viper_ms"] == pytest.approx(2.0)
    assert buckets["cli.import.repro_ms"] == pytest.approx(0.8)
    stdout = (
        "per-stage instrumentation:\n"
        "  parse       0.0007s  viper_loc=10  methods=1\n"
        "  check       0.0121s\n"
        "  translate   0.0008s  unit=m tier=fresh\n"
    )
    assert coldstart.parse_timings(stdout) == pytest.approx(0.0128)


def test_kernel_replay_agrees_with_the_theorem(corpus):
    traced = ledger.certify_traced(corpus[0])
    assert traced.ok and not traced.mismatch
    assert traced.layers[ledger.METHODS_METRIC] == len(traced.methods)
    assert traced.layers["boogie.interp.axioms_s"] > 0


def test_benchmark_refuses_a_checkout_without_the_program():
    bare = lib.WORK_ROOT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy(lib.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "corpus-certify",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not any(lib.WORK_ROOT.iterdir()):
            lib.WORK_ROOT.rmdir()
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_smoke():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke", "--seed", "5"],
        cwd=lib.ROOT, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1])["smoke"] == "ok"
