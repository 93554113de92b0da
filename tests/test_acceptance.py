"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import time

from topogen.harness import suite as S


def _run(criterion, name, fn, target=None):
    started = time.perf_counter()
    failures = []
    try:
        fn(failures)
    finally:
        elapsed = time.perf_counter() - started
        verdict = "PASS" if not failures else "FAIL"
        budget = f", target {target:.0f}s" if target else ""
        print(f"ACCEPTANCE {criterion} {name}: {verdict} ({elapsed:.1f}s{budget})")
    assert not failures, failures
    if target is not None:
        assert elapsed < target, f"criterion {criterion} exceeded {target}s: {elapsed:.1f}s"


def _collect(failures, report):
    if not report.ok:
        failures.extend(v.render() for v in report.violations[:10])


def test_criterion_1_conversion_bijections():
    def body(failures):
        _collect(failures, S.check_conversion_bijections("small"))

    _run(1, "conversion-bijections", body, target=60)


def test_criterion_2_top_map_classes():
    def body(failures):
        _collect(failures, S.check_top_map_classes("medium"))

    _run(2, "top-map-classes", body, target=600)


def test_criterion_3_grp_map_classes():
    def body(failures):
        report = S.check_grp_map_classes("medium")
        _collect(failures, report)
        for note in report.skipped:
            print(f"  note: {note}")

    _run(3, "grp-map-classes", body, target=300)


def test_criterion_4_morphism_calculus():
    def body(failures):
        for check_id in (
            "continuity-renderings", "strict-subobject-transfer", "class-calculus",
            "operator-crosschecks", "weak-finality-formulas",
        ):
            _collect(failures, S.CHECKS[check_id]("small"))
        _collect(failures, S.check_pullback_transfer_suite("medium"))

    _run(4, "morphism-calculus", body)


def test_criterion_5_fibration_lift():
    def body(failures):
        _collect(failures, S.check_fibration_lift("small"))

    _run(5, "fibration-lift", body, target=60)


def test_criterion_6_induced_structures():
    def body(failures):
        _collect(failures, S.check_induced_order("pointed", "small"))
        _collect(failures, S.check_induced_order("copointed", "small"))
        _collect(failures, S.check_induced_operator("closure", "small"))
        _collect(failures, S.check_induced_operator("interior", "small"))

    _run(6, "induced-structures", body, target=300)


def test_criterion_7_infrastructure_determinism():
    def body(failures):
        _collect(failures, S.check_format_roundtrip("small"))
        first = S.run_suite("small")
        second = S.run_suite("small")
        if not first.ok:
            failures.append("small suite failed")
        if first.render_text() != second.render_text():
            failures.append("suite text reports differ between runs")
        if first.render_json() != second.render_json():
            failures.append("suite json reports differ between runs")

    _run(7, "infrastructure-determinism", body)
