"""serve-mixed: a ``repro serve --jobs 1`` subprocess under a closed loop
of two keep-alive clients replaying a seeded mix of six request kinds.

Set-up certifies the corpus through a separate fill server so its disk
cache holds every corpus file, copies that cache for this run, and spawns
the measured server on the copy.  The schedule is a pure function of the
seed (see :func:`build_schedule`); the server only sees its requests.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import random
import re
import shutil
import socket
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import ledger
import lib

NAME = "serve-mixed"

#: Request kinds, and how many of each one block of the schedule holds.
#: The mix is assumed, not measured: the repository has no traffic record
#: to take it from.  ``first`` gets 3 slots in 50 so the 72 corpus files
#: last 1200 requests; ``repeat`` gets the largest share on the assumption
#: that callers re-submit unchanged files most often; the other four get
#: an equal 8, which gives each about 100 samples in a 30 s run, enough
#: for a steady per-kind p50.
KINDS: Tuple[str, ...] = ("first", "repeat", "edit", "novel", "translate", "defect")
BLOCK_COUNTS: Tuple[int, ...] = (3, 15, 8, 8, 8, 8)
CERTIFY_KINDS = ("first", "repeat", "edit", "novel")
#: Client latency p50 per kind -> per-layer metric.
KIND_METRICS: Dict[str, str] = {
    "repeat": "service.worker.memory_p50_ms",
    "first": "service.worker.disk_p50_ms",
    "novel": "service.worker.miss_p50_ms",
    "edit": "service.worker.edit_p50_ms",
    "translate": "service.worker.translate_p50_ms",
    "defect": "service.admission.reject_p50_ms",
}

#: Closed-loop clients, each with one keep-alive connection.
CLIENTS = 2
#: The schedule holds this many requests per measured second, about
#: three times the measured rate.  A run that reaches its end before the
#: deadline counts a failure rather than ending early unnoticed.  Past
#: request 1200 the corpus is used up and ``first`` slots become ``novel``.
SCHEDULE_RATE = 80
#: ``repeat``/``edit`` pick among the most recent programs already answered.
RECENT = 32
#: ``peak_rss_mb`` is read after this many answers (or at the end of a
#: shorter run): the worker's memory tier grows with every new program,
#: so a reading at a fixed amount of work does not depend on throughput.
RSS_AFTER_ANSWERS = 300
#: A 429 is retried after its Retry-After hint this many times.
MAX_RETRIES = 20
REQUEST_TIMEOUT = 60.0

#: Span-folded self times (mean ms per traced request).
SPAN_METRICS: Tuple[str, ...] = (
    "service.admission_ms",
    "service.pool.queue_wait_ms",
    "service.pool.ipc_ms",
    "service.worker.handle_ms",
    "service.worker.cache_lookup_ms",
    "service.server.http_ms",
    "service.unattributed_ms",
)
#: ``repro_pipeline_counter_total`` counter -> per-layer metric.
COUNTER_METRICS: Dict[str, str] = {
    "cache.disk.hit": "service.cache.disk_hits",
    "cache.disk.miss": "service.cache.disk_misses",
    "unit_cache.disk.hit": "service.cache.unit_disk_hits",
    "unit_cache.disk.miss": "service.cache.unit_disk_misses",
    "unit_cache.hit": "service.cache.unit_memory_hits",
    "unit_cache.miss": "service.cache.unit_memory_misses",
}

SERVICE_METRICS: Tuple[str, ...] = (
    "service.worker.tier.memory",
    "service.worker.tier.disk",
    "service.worker.tier.miss",
    "service.worker.units_reused",
    "service.worker.units_rebuilt",
    *KIND_METRICS.values(),
    "service.pipeline_ms",
    "service.outside_pipeline_ms",
    *SPAN_METRICS,
    "service.admission.throttled",
    "service.pool.timeouts",
    "service.pool.recycles",
    *COUNTER_METRICS.values(),
)


# -- the schedule -------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    kind: str
    source: str
    #: Expected certified methods (sorted); empty for translate/defect.
    methods: Tuple[str, ...] = ()

    @property
    def path(self) -> str:
        return "/v1/translate" if self.kind == "translate" else "/v1/certify"

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.source.encode("utf-8")).hexdigest()[:16]


def first_order(rng: random.Random, corpus: Sequence[str]) -> List[str]:
    """The corpus in first-touch order, balanced by size: the files are cut
    into thirds by length, each third is shuffled, and the order takes one
    file from each third in turn."""
    ranked = sorted(corpus, key=len)
    third = -(-len(ranked) // 3)
    strata = [ranked[i:i + third] for i in range(0, len(ranked), third)]
    for stratum in strata:
        rng.shuffle(stratum)
    return [stratum[i] for i in range(third) for stratum in strata if i < len(stratum)]


def build_schedule(seed: int, corpus: Sequence[str], length: int) -> List[Request]:
    """The seeded request sequence, in dispatch order.

    Kinds come in shuffled blocks of ``BLOCK_COUNTS``, so every seed gets
    the same mix in every 50 requests.  A client takes request ``j`` once
    its own previous request is answered; by then every earlier request
    but at most one (the other client's) is answered.  ``repeat`` and
    ``edit`` draw from programs sent at ``j - CLIENTS`` or earlier, so
    they nearly always find them in the server's caches.
    """
    from repro.fuzz.generate import derive_seed, generate_program
    from repro.fuzz.mutators import mutate_single_method
    from repro.service.loadgen import defective_payload
    from repro.viper import parse_program

    rng = random.Random(f"{NAME}/{seed}")
    unsent = first_order(rng, corpus)
    unsent.reverse()  # popped from the end
    block = [kind for kind, count in zip(KINDS, BLOCK_COUNTS) for _ in range(count)]
    kinds: List[str] = []
    sent: List[Tuple[int, Request]] = []
    schedule: List[Request] = []
    for j in range(length):
        if not kinds:
            kinds = list(block)
            rng.shuffle(kinds)
        kind = kinds.pop()
        eligible = [req for index, req in sent if index <= j - CLIENTS][-RECENT:]
        if kind in ("repeat", "edit") and not eligible:
            kind = "first"
        if kind == "first" and not unsent:
            kind = "novel"
        if kind == "first":
            source = unsent.pop()
            request = Request(kind, source, ledger.method_names(source))
        elif kind == "repeat":
            base = rng.choice(eligible)
            request = Request(kind, base.source, base.methods)
        elif kind == "edit":
            base = rng.choice(eligible)
            mutation = mutate_single_method(
                random.Random(rng.getrandbits(32)), parse_program(base.source)
            )
            source = mutation.source if mutation is not None else base.source
            request = Request(kind, source, base.methods)
        elif kind == "novel":
            source = generate_program(derive_seed(seed, j)).source
            request = Request(kind, source, ledger.method_names(source))
        elif kind == "translate":
            request = Request(kind, rng.choice(corpus))
        else:
            bad = defective_payload({"source": rng.choice(corpus)})
            request = Request(kind, bad["source"])
        if kind in ("first", "edit", "novel"):
            sent.append((j, request))
        schedule.append(request)
    return schedule


def warmup_source(seed: int) -> str:
    """A program outside every schedule, to start the worker before timing."""
    from repro.fuzz.generate import derive_seed, generate_program

    return generate_program(derive_seed(seed, 10 ** 6)).source


# -- HTTP ---------------------------------------------------------------------


@dataclass
class Sample:
    index: int
    kind: str
    status: int
    seconds: float
    traced: bool
    body: Dict[str, Any] = field(default_factory=dict)
    error: str = ""


def trace_headers(seed: int, index: int) -> Dict[str, str]:
    digest = hashlib.sha256(f"{NAME}/{seed}/{index}".encode()).hexdigest()
    return {
        "traceparent": f"00-{digest[:32]}-{digest[32:48]}-01",
        "X-Trace-Return": "spans",
    }


class Client:
    """One keep-alive connection, reconnecting after a transport error."""

    def __init__(self, port: int):
        self.port = port
        self.conn: Optional[http.client.HTTPConnection] = None

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None

    def call(self, method: str, path: str, body: Optional[bytes] = None,
             headers: Optional[Dict[str, str]] = None) -> Tuple[int, bytes, Dict[str, str]]:
        if self.conn is None:
            self.conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT
            )
        try:
            self.conn.request(method, path, body=body, headers=headers or {})
            response = self.conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        return response.status, raw, dict(response.getheaders())

    def send(self, request: Request, index: int, traced: bool, seed: int) -> Sample:
        body = json.dumps({"source": request.source}).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if traced:
            headers.update(trace_headers(seed, index))
        start = time.perf_counter()
        retries = 0
        try:
            while True:
                status, raw, reply_headers = self.call("POST", request.path, body, headers)
                if status != 429 or retries >= MAX_RETRIES:
                    break
                retries += 1
                time.sleep(min(float(reply_headers.get("Retry-After", "1")), 2.0))
        except (OSError, http.client.HTTPException) as error:
            return Sample(index, request.kind, 0, time.perf_counter() - start,
                          traced, error=f"transport error: {error}")
        seconds = time.perf_counter() - start
        try:
            decoded = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            decoded = {}
        return Sample(index, request.kind, status, seconds, traced, decoded)


def verdict_error(request: Request, sample: Sample) -> str:
    """Empty when the response is the known answer for the request kind."""
    body = sample.body
    if sample.error:
        return sample.error
    if request.kind in CERTIFY_KINDS:
        if sample.status != 200 or body.get("ok") is not True:
            return f"status {sample.status}, ok={body.get('ok')}: {body.get('error', '')[:200]}"
        methods = tuple(sorted(body.get("methods", {})))
        if methods != request.methods:
            return f"certified methods {methods} != expected {request.methods}"
        return ""
    if request.kind == "translate":
        if sample.status != 200 or "procedure " not in body.get("boogie", ""):
            return f"translate status {sample.status} without Boogie text"
        return ""
    codes = {body.get("code")} | {f.get("code") for f in body.get("findings", ())}
    if sample.status != 422 or "VPR008" not in codes:
        return f"defect status {sample.status}, codes {sorted(c for c in codes if c)}"
    return ""


# -- the server ---------------------------------------------------------------


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@dataclass
class Server:
    proc: subprocess.Popen
    port: int
    ready_seconds: float
    log: Any

    def stop(self) -> None:
        lib.stop_process(self.proc)
        self.log.close()


def spawn_server(work: lib.Workdir, cache_dir: Path, jobs: int, tag: str) -> Server:
    """Start ``repro serve``; time spawn to the first ``/healthz`` 200."""
    port = free_port()
    log = open(work.path / f"serve-{tag}.log", "wb")
    start = time.perf_counter()
    proc = subprocess.Popen(
        lib.python_cmd("-m", "repro.cli", "serve", "--port", str(port),
                       "--jobs", str(jobs), "--cache-dir", str(cache_dir)),
        env=work.child_env(), cwd=lib.ROOT, stdout=log, stderr=subprocess.STDOUT,
    )
    server = Server(proc, port, 0.0, log)
    client = Client(port)
    deadline = start + 60.0
    try:
        while True:
            if proc.poll() is not None:
                raise RuntimeError(f"repro serve exited with {proc.returncode}")
            try:
                status, _, _ = client.call("GET", "/healthz")
                if status == 200:
                    break
            except (OSError, http.client.HTTPException):
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("repro serve not ready within 60 s")
            time.sleep(0.002)
        server.ready_seconds = time.perf_counter() - start
    except BaseException:
        server.stop()
        raise
    finally:
        client.close()
    return server


def closed_loop(port: int, schedule: Sequence[Request], seed: int,
                deadline: Optional[float], traced: bool,
                on_answers: Optional[Tuple[int, Callable[[], None]]] = None,
                ) -> Tuple[List[Sample], float]:
    """Run ``CLIENTS`` closed-loop clients over the schedule.

    Returns the samples and the seconds from start to the last answer.
    With ``traced`` every even-indexed request carries trace headers, so
    traced and untraced latencies are measured side by side.
    ``on_answers = (n, callback)`` calls ``callback`` once, right after
    the ``n``-th answer.
    """
    cursor = iter(range(len(schedule)))
    lock = threading.Lock()
    samples: List[Sample] = []
    errors: List[BaseException] = []
    start = time.perf_counter()
    finished = [start]

    def worker() -> None:
        client = Client(port)
        try:
            while True:
                with lock:
                    if deadline is not None and time.perf_counter() >= deadline:
                        return
                    index = next(cursor, None)
                if index is None:
                    return
                sample = client.send(
                    schedule[index], index, traced and index % 2 == 0, seed
                )
                with lock:
                    samples.append(sample)
                    finished[0] = max(finished[0], time.perf_counter())
                    if on_answers is not None and len(samples) == on_answers[0]:
                        on_answers[1]()
        except BaseException as error:  # surfaced by the caller after join
            errors.append(error)
            raise
        finally:
            client.close()

    threads = [threading.Thread(target=worker) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise RuntimeError(f"client thread failed: {errors[0]!r}")
    samples.sort(key=lambda s: s.index)
    return samples, finished[0] - start


def fill_disk_cache(work: lib.Workdir, corpus: Sequence[str], cache_dir: Path) -> None:
    """Certify every corpus file through a fill server writing ``cache_dir``."""
    server = spawn_server(work, cache_dir, jobs=CLIENTS, tag="fill")
    try:
        schedule = [Request("first", source, ledger.method_names(source)) for source in corpus]
        samples, _ = closed_loop(server.port, schedule, 0, None, False)
    finally:
        server.stop()
    for sample in samples:
        error = verdict_error(schedule[sample.index], sample)
        if error:
            raise RuntimeError(f"disk-cache fill failed: {error}")


def server_health(port: int) -> Tuple[Dict[str, Any], str]:
    client = Client(port)
    try:
        _, health, _ = client.call("GET", "/healthz")
        _, metrics, _ = client.call("GET", "/metrics")
    finally:
        client.close()
    return json.loads(health.decode("utf-8")), metrics.decode("utf-8")


def server_peak_rss_mb(pid: int) -> float:
    """VmHWM of the server plus its pool worker(s)."""
    return sum(lib.vmhwm_mb(p) for p in [pid, *lib.descendants(pid)])


# -- one measured session -----------------------------------------------------


@dataclass
class Session:
    schedule: List[Request]
    samples: List[Sample]
    elapsed: float
    setup_seconds: List[float]
    health: Dict[str, Any]
    metrics_text: str
    peak_rss_mb: float


def session(work: lib.Workdir, seed: int, corpus: Sequence[str], length: int,
            seconds: Optional[float], traced: bool, spawns: int) -> Session:
    """Fill, copy, spawn ``spawns`` times (keeping the last), warm up, run."""
    schedule = build_schedule(seed, corpus, length)
    fill_dir = work.path / "fill-cache"
    run_dir = work.path / "run-cache"
    fill_disk_cache(work, corpus, fill_dir)
    shutil.copytree(fill_dir, run_dir)
    ready = []
    for attempt in range(spawns):
        server = spawn_server(work, run_dir, jobs=1, tag=f"run{attempt}")
        ready.append(server.ready_seconds)
        if attempt < spawns - 1:
            server.stop()
    try:
        warm = Client(server.port)
        try:
            warm.send(Request("novel", warmup_source(seed)), -1, False, seed)
        finally:
            warm.close()
        rss: List[float] = []

        def read_rss() -> None:
            rss.append(server_peak_rss_mb(server.proc.pid))

        deadline = time.perf_counter() + seconds if seconds is not None else None
        samples, elapsed = closed_loop(server.port, schedule, seed, deadline, traced,
                                       on_answers=(RSS_AFTER_ANSWERS, read_rss))
        health, metrics_text = server_health(server.port)
        if not rss:
            read_rss()
    finally:
        server.stop()
    return Session(schedule, samples, elapsed, ready, health, metrics_text, rss[0])


# -- metrics ------------------------------------------------------------------


def fold_spans(spans: Sequence[Dict[str, Any]], latency: float) -> Optional[Dict[str, float]]:
    """Self times (ms) of one traced request, from its returned spans.

    client latency = http + request self + admission + ipc + queue wait
    + worker.handle self + stage spans, exactly; the request span's self
    time is reported as ``service.unattributed_ms``.
    """
    by_name: Dict[str, Dict[str, Any]] = {}
    for span in spans:
        by_name.setdefault(span["name"], span)
    needed = ("request", "admission", "pool.submit", "worker.handle")
    if any(name not in by_name for name in needed):
        return None
    request, admission, pool, handle = (by_name[name] for name in needed)
    queue_wait = float(handle.get("attributes", {}).get("queue_wait_seconds", 0.0))
    stages = sum(
        span["duration"] for span in spans
        if span["name"].startswith("stage.") and span.get("parent_id") == handle["span_id"]
    )
    lookups = sum(span["duration"] for span in spans if span["name"] == "cache_lookup")
    folded = {
        "service.admission_ms": admission["duration"],
        "service.pool.queue_wait_ms": queue_wait,
        "service.pool.ipc_ms": pool["duration"] - handle["duration"] - queue_wait,
        "service.worker.handle_ms": handle["duration"] - stages,
        "service.worker.cache_lookup_ms": lookups,
        "service.server.http_ms": latency - request["duration"],
        "service.unattributed_ms": request["duration"] - admission["duration"] - pool["duration"],
        "stage_work_ms": stages - lookups,
    }
    return {name: value * 1000.0 for name, value in folded.items()}


def _prometheus(text: str, name: str, label: str, value: str) -> float:
    pattern = re.compile(
        rf'^{re.escape(name)}\{{[^}}]*{label}="{re.escape(value)}"[^}}]*\}} (\S+)$',
        re.MULTILINE,
    )
    return sum(float(match.group(1)) for match in pattern.finditer(text))


def service_ledger(run: Session, notes: List[str]) -> Dict[str, float]:
    """Every ``service.*`` per-layer metric from one session."""
    values: Dict[str, float] = {}
    answered = [s for s in run.samples if s.status == 200]
    for tier in ("memory", "disk", "miss"):
        values[f"service.worker.tier.{tier}"] = float(
            sum(1 for s in answered if s.body.get("cache") == tier)
        )
    values["service.worker.units_reused"] = float(
        sum(s.body.get("unit_cache", {}).get("reused", 0) for s in answered)
    )
    values["service.worker.units_rebuilt"] = float(
        sum(s.body.get("unit_cache", {}).get("rebuilt", 0) for s in answered)
    )
    for kind, metric in KIND_METRICS.items():
        latencies = [s.seconds for s in run.samples if s.kind == kind and not s.error]
        values[metric] = lib.median(latencies) * 1000.0
    timed = [s for s in run.samples if s.body.get("stage_seconds")]
    pipeline = [sum(s.body["stage_seconds"].values()) for s in timed]
    values["service.pipeline_ms"] = lib.mean(pipeline) * 1000.0
    values["service.outside_pipeline_ms"] = lib.mean(
        [s.seconds - p for s, p in zip(timed, pipeline)]
    ) * 1000.0

    folded = [
        fold_spans(s.body["trace"], s.seconds)
        for s in run.samples if s.traced and s.body.get("trace")
    ]
    folded = [f for f in folded if f is not None]
    for name in SPAN_METRICS:
        values[name] = lib.mean([f[name] for f in folded])
    if folded:
        traced_latency = lib.mean([s.seconds for s in run.samples
                                   if s.traced and s.body.get("trace")]) * 1000.0
        parts = {name: values[name] for name in SPAN_METRICS}
        parts["stages"] = lib.mean([f["stage_work_ms"] for f in folded])
        attributed = sum(v for k, v in parts.items() if k != "service.unattributed_ms")
        notes.append(
            f"serve accounting over {len(folded)} traced requests: mean latency "
            f"{traced_latency:.2f} ms = "
            + " + ".join(f"{k} {v:.2f}" for k, v in parts.items())
            + f"; attributed {attributed:.2f} ms, unattributed "
            f"{values['service.unattributed_ms']:.2f} ms"
        )

    pool = run.health.get("pool", {})
    values["service.pool.timeouts"] = float(pool.get("timeouts", 0))
    values["service.pool.recycles"] = float(pool.get("recycles", 0))
    values["service.admission.throttled"] = _prometheus(
        run.metrics_text, "repro_rejected_total", "reason", "backpressure"
    )
    for counter, metric in COUNTER_METRICS.items():
        values[metric] = _prometheus(
            run.metrics_text, "repro_pipeline_counter_total", "counter", counter
        )
    return values


def gate(run: Session, result: lib.Result) -> None:
    for sample in run.samples:
        result.attempted += 1
        error = verdict_error(run.schedule[sample.index], sample)
        if error:
            result.fail(f"{NAME} #{sample.index} {sample.kind}: {error}")


#: Corpus files and requests of the service probe.
PROBE_FILES = 8
PROBE_REQUESTS = 36


def probe(work: lib.Workdir, seed: int, corpus: Sequence[str],
          result: lib.Result) -> Dict[str, float]:
    """The service ledger from a short traced session over the first
    ``PROBE_FILES`` of ``corpus``, for workloads that do not go through
    the server themselves.  Wrong answers are failures on ``result``."""
    run = session(work, seed, corpus[:PROBE_FILES], PROBE_REQUESTS, None, True, spawns=1)
    for sample in run.samples:
        error = verdict_error(run.schedule[sample.index], sample)
        if error:
            result.fail(f"service probe #{sample.index} {sample.kind}: {error}")
    return service_ledger(run, [])


def run(opts, work: lib.Workdir, result: lib.Result) -> None:
    lib.import_program()
    from repro.harness import full_corpus

    corpus = [f.source for files in full_corpus().values() for f in files]
    length = math.ceil(opts.seconds * SCHEDULE_RATE)
    measured = session(
        work, opts.seed, corpus, length, opts.seconds, bool(opts.trace),
        spawns=opts.setup_repeats,
    )
    gate(measured, result)
    if len(measured.samples) == length:
        result.fail(f"{NAME}: all {length} scheduled requests answered before "
                    f"the deadline; raise SCHEDULE_RATE")
    if not opts.trace:
        result.put("throughput_per_s", len(measured.samples) / measured.elapsed)
        result.latencies([s.seconds for s in measured.samples], "requests")
        result.put("peak_rss_mb", measured.peak_rss_mb)
        result.put("setup_s", lib.median(measured.setup_seconds))
        return
    import coldstart

    layers = service_ledger(measured, result.notes)
    layers.update(lib.trace_overhead(
        [s.seconds for s in measured.samples if s.traced and not s.error],
        [s.seconds for s in measured.samples if not s.traced and not s.error],
    ))
    certified = list(dict.fromkeys(
        request.source for request in measured.schedule[: len(measured.samples)]
        if request.kind in CERTIFY_KINDS
    ))
    layers.update(ledger.replay_ledger(certified, result))
    path = work.path / "coldstart.vpr"
    path.write_text(certified[0])
    layers.update(coldstart.probe(work.child_env(), str(path)))
    for name, value in layers.items():
        result.put(name, value)
