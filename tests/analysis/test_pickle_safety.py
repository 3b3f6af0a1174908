"""The pickle-safety checker walks payload graphs from boundary markers."""

from pathlib import Path

import pytest
import repro
from repro.analysis import Severity, analyze_paths
from repro.analysis.suppressions import parse_suppressions


@pytest.fixture(scope="module")
def report(fixtures_dir):
    return analyze_paths(
        [fixtures_dir / "fixture_pickle.py"], checkers=["pickle-safety"]
    )


def test_findings_match_expect_tags(report, expected_findings, fixtures_dir):
    expected = expected_findings(fixtures_dir / "fixture_pickle.py")
    actual = {(f.line, f.rule) for f in report.findings}
    assert actual == expected


def test_both_rules_fire(report):
    fired = {f.rule for f in report.findings}
    assert fired == {"pickle-unsafe-field", "pickle-unsafe-attr"}
    assert all(f.severity == Severity.ERROR for f in report.findings)


def test_nested_payload_is_walked(report, fixtures_dir):
    """_NestedPayload has no boundary marker of its own — it is reached
    through _BadTask.nested, and its threading.Event field still fires."""
    source = (fixtures_dir / "fixture_pickle.py").read_text().splitlines()
    event_line = next(
        lineno
        for lineno, line in enumerate(source, start=1)
        if "event: threading.Event" in line
    )
    assert any(f.line == event_line for f in report.findings)


def test_getstate_stops_the_walk(report, fixtures_dir):
    """_LeanHelper owns a __getstate__, so its lock attr is trusted."""
    source = (fixtures_dir / "fixture_pickle.py").read_text().splitlines()
    lean_init = next(
        lineno
        for lineno, line in enumerate(source, start=1)
        if "def __init__" in line and "LeanHelper" in "".join(source[lineno - 5 : lineno])
    )
    flagged = {f.line for f in report.findings}
    assert not any(lean_init <= line <= lean_init + 2 for line in flagged)


def test_justified_field_is_suppressed(report):
    assert len(report.suppressed) == 1
    assert report.suppressed[0].rule == "pickle-unsafe-field"


#: the shard runtime (task/result payloads) and its two workload adapters
#: (their shard units): the modules whose payloads cross the shard process
#: boundary every dispatch
SHARD_MODULES = (
    "execution/shards.py",
    "execution/scheduler.py",
    "gradients/sharded.py",
)


def test_real_scheduler_payloads_are_clean():
    """Every production module holding a ``pickle-boundary`` payload lints
    clean — the regression the checker exists to hold.  Non-vacuous: the
    analysed modules are the ones carrying markers, and the shard modules
    must be among them."""
    package = Path(repro.__file__).parent
    marked = sorted(
        path
        for path in package.rglob("*.py")
        if parse_suppressions(path.read_text())[1]
    )
    assert {package / name for name in SHARD_MODULES} <= set(marked)
    report = analyze_paths(marked, checkers=["pickle-safety"])
    assert report.findings == []
