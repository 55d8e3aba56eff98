"""The pipeline and kernel ledger: one certification, stage by stage.

:func:`certify_traced` drives one Viper source through
``repro.pipeline.stages.make_context``/``run_stage`` one stage at a time,
timing each call from outside.  It then replays the kernel's three
sub-phases through their public functions on the same artifacts --
``check_boogie_program``, ``check_axioms_bounded`` over
``standard_interpretation``/``constant_valuation``, and
``ProofChecker.check_method_certificate`` for every method, followed by
the same completeness and dependency-closure checks -- and requires the
replayed verdict to equal the ``check`` stage's ``TheoremReport``.

Call ``lib.import_program()`` before use.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

#: Pipeline stage -> per-layer metric (seconds).  A stage not listed here
#: is still run and still counts in the operation's latency.
STAGE_METRICS: Dict[str, str] = {
    "parse": "viper.parse_s",
    "desugar": "viper.desugar_s",
    "typecheck": "viper.typecheck_s",
    "units": "pipeline.units_s",
    "analyze": "analysis.analyze_s",
    "translate": "frontend.translate_s",
    "generate": "certification.generate_s",
    "render": "certification.render_s",
    "reparse": "certification.reparse_s",
    "check": "certification.theorem.check_s",
}

#: Artifact size recorded by the pipeline -> per-layer metric (count).
SIZE_METRICS: Dict[str, str] = {
    "viper_loc": "viper.loc",
    "boogie_loc": "frontend.boogie_loc",
    "cert_loc": "certification.cert_loc",
}

#: The kernel's sub-phases, in the order the theorem runs them.
KERNEL_METRICS: Tuple[str, ...] = (
    "boogie.typechecker.check_s",
    "boogie.interp.axioms_s",
    "certification.checker.proof_s",
)

CHECK_METRIC = STAGE_METRICS["check"]
METHODS_METRIC = "certification.checker.methods"
UNATTRIBUTED_METRIC = "certification.theorem.unattributed_s"

#: Every metric :class:`Ledger` reports, with its unit.
LEDGER_UNITS: Dict[str, str] = {
    **{name: "s" for name in STAGE_METRICS.values()},
    **{name: "count" for name in SIZE_METRICS.values()},
    **{name: "s" for name in KERNEL_METRICS},
    METHODS_METRIC: "count",
    UNATTRIBUTED_METRIC: "s",
}


@dataclass
class TracedCertification:
    """One source's stage-by-stage run plus its kernel replay."""

    ok: bool
    methods: Tuple[str, ...]
    #: Sum of the stage calls: the operation's latency in a traced pass.
    seconds: float
    #: Per-layer metric -> value (seconds or count) for this source.
    layers: Dict[str, float]
    #: sha256 over the Boogie text and the certificate text.
    digest: str
    #: Empty when the replayed verdict equals the check stage's.
    mismatch: str = ""


def method_names(source: str) -> Tuple[str, ...]:
    """The program's method names, sorted: the known answer a certificate
    must cover."""
    from repro.viper import parse_program

    return tuple(sorted(m.name for m in parse_program(source).methods))


def artifact_digest(boogie_text: str, certificate_text: str) -> str:
    sha = hashlib.sha256()
    sha.update((boogie_text or "").encode("utf-8"))
    sha.update(b"\0")
    sha.update((certificate_text or "").encode("utf-8"))
    return sha.hexdigest()


def certify_traced(source: str) -> TracedCertification:
    from repro.pipeline import STAGE_NAMES
    from repro.pipeline.stages import make_context, run_stage

    layers: Dict[str, float] = {name: 0.0 for name in LEDGER_UNITS}
    ctx = make_context(source)
    total = 0.0
    for stage in STAGE_NAMES:
        start = time.perf_counter()
        run_stage(ctx, stage)
        elapsed = time.perf_counter() - start
        total += elapsed
        if stage in STAGE_METRICS:
            layers[STAGE_METRICS[stage]] += elapsed
    for size, metric in SIZE_METRICS.items():
        layers[metric] = float(ctx.instrumentation.artifact_sizes().get(size, 0))

    replay_ok, phases, methods_checked = replay_kernel(
        ctx.translation, ctx.reparsed_certificate
    )
    layers.update(phases)
    layers[METHODS_METRIC] = float(methods_checked)
    layers[UNATTRIBUTED_METRIC] = layers[CHECK_METRIC] - sum(phases.values())

    report = ctx.report
    mismatch = ""
    if replay_ok != report.ok:
        mismatch = (
            f"kernel replay says ok={replay_ok}, check stage says ok={report.ok}"
        )
    return TracedCertification(
        ok=report.ok,
        methods=tuple(sorted(report.method_reports)),
        seconds=total,
        layers=layers,
        digest=artifact_digest(ctx.boogie_text, ctx.certificate_text),
        mismatch=mismatch,
    )


def replay_kernel(translation, certificate) -> Tuple[bool, Dict[str, float], int]:
    """Re-run every check of ``check_program_certificate``, phase by phase.

    Returns ``(verdict, seconds per sub-phase, method certificates
    checked)``.  A phase that rejects ends the replay, as in the theorem.
    """
    from repro.boogie.interp import check_axioms_bounded
    from repro.boogie.typechecker import BoogieTypeError, check_boogie_program
    from repro.certification.checker import ProofChecker
    from repro.frontend.background import constant_valuation, standard_interpretation

    phases = {name: 0.0 for name in KERNEL_METRICS}
    typecheck, axioms, proof = KERNEL_METRICS

    start = time.perf_counter()
    try:
        check_boogie_program(translation.boogie_program)
        typed = True
    except BoogieTypeError:
        typed = False
    phases[typecheck] = time.perf_counter() - start
    if not typed:
        return False, phases, 0

    start = time.perf_counter()
    interp = standard_interpretation(translation.type_info.field_types)
    consts = constant_valuation(translation.background)
    axioms_ok = check_axioms_bounded(translation.boogie_program, interp, consts).ok
    phases[axioms] = time.perf_counter() - start
    if not axioms_ok:
        return False, phases, 0

    start = time.perf_counter()
    checker = ProofChecker(
        translation.viper_program, translation.type_info, translation.boogie_program
    )
    dependencies: Dict[str, Tuple[str, ...]] = {}
    verdict = True
    checked = 0
    for cert in certificate.methods:
        checked += 1
        method_report = checker.check_method_certificate(cert)
        if not method_report.ok:
            verdict = False
            break
        dependencies[cert.method] = method_report.dependencies
    if verdict:
        program_methods = {m.name for m in translation.viper_program.methods}
        closed = all(
            dep in dependencies for deps in dependencies.values() for dep in deps
        )
        verdict = program_methods <= set(dependencies) and closed
    phases[proof] = time.perf_counter() - start
    return verdict, phases, checked


@dataclass
class Ledger:
    """Per-layer totals over a set of sources (a corpus pass, a replay set)."""

    totals: Dict[str, float] = field(
        default_factory=lambda: {name: 0.0 for name in LEDGER_UNITS}
    )

    def add(self, traced: TracedCertification) -> None:
        for name, value in traced.layers.items():
            self.totals[name] += value


def median_ledger(ledgers: List[Ledger]) -> Dict[str, float]:
    """Metric-wise median over several ledgers (e.g. one per pass)."""
    import statistics

    return {
        name: statistics.median(ledger.totals[name] for ledger in ledgers)
        for name in LEDGER_UNITS
    }


def kernel_accounting(values: Dict[str, float]) -> str:
    """A one-line account of the check stage by kernel sub-phase."""
    check = values[CHECK_METRIC]
    parts = sorted(KERNEL_METRICS, key=lambda name: -values[name])
    shares = ", ".join(
        f"{name} {values[name]:.3f}s ({100 * values[name] / check:.0f}%)"
        if check else f"{name} {values[name]:.3f}s"
        for name in parts
    )
    return (
        f"{CHECK_METRIC} {check:.3f}s = {shares}, "
        f"unattributed {values[UNATTRIBUTED_METRIC]:+.3f}s; "
        f"largest kernel sub-phase: {parts[0]}"
    )


#: Programs a replay covers, for workloads whose own operations do not
#: run the pipeline stage by stage.
REPLAY_SOURCES = 12


def replay_ledger(sources, result) -> Dict[str, float]:
    """One traced certification of each of the first ``REPLAY_SOURCES``
    sources, totalled per layer.

    A source the kernel rejects, or whose replay disagrees with the check
    stage, is recorded as a failure on ``result``.
    """
    total = Ledger()
    for source in sources[:REPLAY_SOURCES]:
        traced = certify_traced(source)
        if not traced.ok or traced.mismatch:
            result.fail(f"ledger replay: ok={traced.ok} {traced.mismatch}")
        total.add(traced)
    return dict(total.totals)
