"""The schedule pass, tested three ways: every rule fires exactly once
on the known-bad fixtures, the real tree's extracted schedule matches the
cost model's own method lists, and the exported schedule table is the
shape the CI artifact expects."""

from collections import Counter
from pathlib import Path

from repro.analysis import default_root, run_audit, schedule
from repro.analysis.core import load_modules
from repro.analysis.schedule import extract_schedule
from repro.mpc.costs import _relu_methods, method_wire_labels

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "schedule"


def test_bad_fixture_fires_each_rule_exactly_once():
    report = run_audit(FIXTURES / "bad", passes=(schedule,))
    fired = Counter(finding.rule for finding in report.findings)
    assert fired == {
        "schedule/cost-drift": 1,
        "schedule/unresolvable-trace": 1,
        "schedule/missing-receive": 1,
        "schedule/label-mismatch": 1,
        "schedule/deadlock": 1,
    }, report.findings


def test_good_fixture_is_silent():
    report = run_audit(FIXTURES / "good", passes=(schedule,))
    assert not report.findings, [f.render() for f in report.findings]


def test_real_tree_is_clean():
    report = run_audit(default_root(), passes=(schedule,))
    assert not report.findings, [f.render() for f in report.findings]


def test_relu_schedule_matches_cost_model():
    """The extracted per-label opening counts of the ReLU are exactly the
    cost model's own method list mapped through the traffic table —
    ``_METHOD_TRAFFIC`` cannot drift from the implementation."""
    table = extract_schedule(load_modules(default_root()))
    labels = method_wire_labels()
    expected = Counter(labels[m] for m in _relu_methods())
    entry = table["protocols"]["secure_relu"]
    assert entry["opens"] == dict(expected), entry["opens"]
    assert entry["consumes"] == dict(Counter(_relu_methods()))


def test_every_primitive_resolves():
    table = extract_schedule(load_modules(default_root()))
    assert {"beaver_multiply", "boolean_and", "secure_linear"} <= set(
        table["protocols"]
    )
    for name, entry in table["protocols"].items():
        assert "error" not in entry, f"{name}: unresolvable"


def test_dealer_rpc_label_sets_are_dual():
    table = extract_schedule(load_modules(default_root()))
    client = table["dealer"]["DealerClient"]
    server = table["dealer"]["DealerServer"]
    assert set(client["sends"]) == set(server["recvs"])
    assert set(server["sends"]) == set(client["recvs"])
    assert "dealer-link" in client["sends"]


def test_expected_opens_never_exceed_observed():
    """Every label a function consumes material for is actually opened —
    the acceptance criterion, asserted over the whole extracted table."""
    table = extract_schedule(load_modules(default_root()))
    for entry in table["protocols"].values():
        for label, count in entry.get("expected_opens", {}).items():
            assert entry["opens"].get(label) == count, entry
