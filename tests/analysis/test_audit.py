"""The auditor audited: every pass fires on its bad fixture and stays
silent on its good one, the suppression/baseline machinery behaves, and
the repo itself is audit-clean.

The fixture trees under ``fixtures/<pass>/{bad,good}`` mirror the real
source layout one directory deeper (``bad/mpc/protocols/leak.py``) so
the passes' fragment-based path scoping applies to them unchanged.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import (
    PASSES,
    default_root,
    load_baseline,
    run_audit,
)
from repro.analysis import (
    determinism,
    exports,
    locks,
    schedule,
    secrecy,
    taint,
    wire_labels,
)
from repro.cli import main

FIXTURES = Path(__file__).resolve().parent / "fixtures"

_PASS_BY_NAME = {p.NAME: p for p in PASSES}

#: pass name -> rules its bad fixture must fire (each at least once).
EXPECTED_BAD = {
    "secrecy": {
        "secrecy/unsanitized-sink",
        "secrecy/print-in-protocol",
        "secrecy/stream-mix",
    },
    "locks": {"locks/blocking-under-lock", "locks/order-inversion"},
    "determinism": {
        "determinism/unseeded-rng",
        "determinism/wall-clock",
        "determinism/set-iteration",
    },
    "wire": {
        "wire/unknown-label",
        "wire/missing-label",
        "wire/unresolvable-label",
    },
    "exports": {"exports/missing-export", "exports/ghost-export"},
    "schedule": {
        "schedule/missing-receive",
        "schedule/label-mismatch",
        "schedule/deadlock",
        "schedule/cost-drift",
        "schedule/unresolvable-trace",
    },
    "taint": {
        "taint/secret-in-exception",
        "taint/secret-in-log",
        "taint/secret-to-wire",
    },
}


def _rules(report):
    return {finding.rule for finding in report.findings}


@pytest.mark.parametrize("name", sorted(EXPECTED_BAD))
def test_bad_fixtures_fire(name):
    report = run_audit(FIXTURES / name / "bad", passes=(_PASS_BY_NAME[name],))
    missing = EXPECTED_BAD[name] - _rules(report)
    assert not missing, (
        f"{name}: bad fixture did not trigger {sorted(missing)} "
        f"(got {sorted(_rules(report))})"
    )


@pytest.mark.parametrize("name", sorted(EXPECTED_BAD))
def test_good_fixtures_stay_silent(name):
    report = run_audit(FIXTURES / name / "good", passes=(_PASS_BY_NAME[name],))
    assert not report.findings, (
        f"{name}: false positives on sanctioned patterns:\n"
        + "\n".join(finding.render() for finding in report.findings)
    )


def test_noised_reveal_is_cleared_only_by_perturb_share():
    """The one declassification has its own rule: a raw share, a masked
    share and a half-perturbed batch all fire; a mask operand that would
    clear any other handed message does not clear this one."""
    report = run_audit(FIXTURES / "secrecy" / "bad", passes=(secrecy,))
    reveals = [f for f in report.findings if f.path.endswith("core/c2pi.py")]
    assert len(reveals) == 3, [finding.render() for finding in report.findings]
    assert all("perturb_share(...) results only" in f.message for f in reveals)


def test_dealer_streams_do_not_mix():
    """Every function of the bad dealer fixture mixes the secret stream
    and the client stream one way, and each is caught once: a secret-stream
    (or missing) generator in a splitter, a client field that is not a
    client-stream draw, a client-stream draw outside party 0's rows."""
    report = run_audit(FIXTURES / "secrecy" / "bad", passes=(secrecy,))
    mixes = [f for f in report.findings if f.rule == "secrecy/stream-mix"]
    assert len(mixes) == 6, [finding.render() for finding in mixes]
    assert all(f.path.endswith("mpc/dealer.py") for f in mixes)
    assert len({f.line for f in mixes}) == 6


def test_the_serving_layer_ships_a_bundle_from_one_sealed_place(monkeypatch):
    """``serve/remote.py`` is a byte mover, outside the secrecy scope; the
    one thing it ships that is not already a staged frame is a client's
    bundle half — in-band or one request ahead. Held to the in-scope rule
    it stays clean (the blob is the existing sealed call's result), one
    function writes it, and what announces a promise is a bare boolean."""
    import ast

    monkeypatch.setattr(secrecy, "SCOPE", (*secrecy.SCOPE, "serve/remote.py"))
    report = run_audit(default_root(), passes=(secrecy,))
    assert not report.findings, [finding.render() for finding in report.findings]
    assert {"party_bundle_segments", "pack_party_bundle", "_seal_reply"} == (
        secrecy._SEALED_CALLS
    )

    tree = ast.parse((default_root() / "serve" / "remote.py").read_text())
    writers = [
        function.name
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for call in ast.walk(function)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr == "send_blob"
    ]
    assert writers == ["_deliver"]
    announced = [
        value
        for node in ast.walk(tree)
        if isinstance(node, ast.Dict)
        for key, value in zip(node.keys, node.values)
        if isinstance(key, ast.Constant) and key.value == "promised"
    ]
    assert len(announced) == 2  # the server's metrics, the client's req
    assert all(
        isinstance(value, ast.Compare)
        and isinstance(value.ops[0], ast.IsNot)
        and isinstance(value.comparators[0], ast.Constant)
        and value.comparators[0].value is None
        for value in announced
    )


def test_repo_is_audit_clean():
    """The gate the CI lane enforces, as a plain test."""
    report = run_audit(default_root())
    baseline_path = default_root().parents[1] / "AUDIT_BASELINE.json"
    baseline = load_baseline(baseline_path) if baseline_path.exists() else []
    new, stale = report.apply_baseline(baseline)
    assert not new, "\n".join(finding.render() for finding in new)
    assert not stale, f"stale baseline entries: {stale}"


def test_inline_suppression_is_rule_scoped(tmp_path):
    tree = tmp_path / "mpc" / "protocols"
    tree.mkdir(parents=True)
    (tree / "stamped.py").write_text(
        "import time\n"
        "\n"
        "def suppressed():\n"
        "    return time.time()  # audit: allow[determinism/wall-clock] -- x\n"
        "\n"
        "def not_suppressed():\n"
        "    return time.time()  # audit: allow[determinism/unseeded-rng] -- x\n"
    )
    report = run_audit(tmp_path, passes=(determinism,))
    lines = [finding.line for finding in report.findings]
    assert lines == [7], report.findings


def test_pass_wide_suppression(tmp_path):
    tree = tmp_path / "mpc" / "protocols"
    tree.mkdir(parents=True)
    (tree / "stamped.py").write_text(
        "import time\n"
        "\n"
        "def suppressed():\n"
        "    return time.time()  # audit: allow[determinism] -- whole pass\n"
    )
    report = run_audit(tmp_path, passes=(determinism,))
    assert not report.findings


def test_baseline_requires_justification(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(
        json.dumps(
            {"findings": [{"rule": "r/x", "path": "a.py", "message": "m"}]}
        )
    )
    with pytest.raises(ValueError, match="justification"):
        load_baseline(path)


def test_baseline_entry_covers_one_finding_only(tmp_path):
    tree = tmp_path / "mpc" / "protocols"
    tree.mkdir(parents=True)
    (tree / "stamped.py").write_text(
        "import time\n"
        "\n"
        "def first():\n"
        "    return time.time()\n"
        "\n"
        "def second():\n"
        "    return time.time()\n"
    )
    report = run_audit(tmp_path, passes=(determinism,))
    assert len(report.findings) == 2
    entry = dict(report.findings[0].as_dict(), justification="one of them")
    del entry["line"]
    new, stale = report.apply_baseline([entry])
    # Identical messages: the single entry absorbs exactly one finding.
    assert len(new) == 1
    assert not stale


def test_cli_check_fails_on_seeded_violation(tmp_path, capsys):
    tree = tmp_path / "src" / "mpc" / "protocols"
    tree.mkdir(parents=True)
    (tree / "seeded.py").write_text(
        "import time\n"
        "\n"
        "def stamped():\n"
        "    return time.time()\n"
    )
    assert main(["audit", "--root", str(tree.parents[1]), "--check"]) == 1
    out = capsys.readouterr().out
    assert "determinism/wall-clock" in out

    report_path = tmp_path / "report.json"
    assert (
        main(
            [
                "audit",
                "--root",
                str(tree.parents[1]),
                "--json",
                "--output",
                str(report_path),
            ]
        )
        == 0  # without --check the audit reports but does not gate
    )
    payload = json.loads(report_path.read_text())
    assert payload["summary"] == {"determinism/wall-clock": 1}


def test_cli_check_passes_on_clean_tree(tmp_path):
    tree = tmp_path / "src" / "mpc" / "protocols"
    tree.mkdir(parents=True)
    (tree / "fine.py").write_text("X = 1\n")
    assert main(["audit", "--root", str(tree.parents[1]), "--check"]) == 0


def test_every_pass_is_registered():
    assert [p.NAME for p in PASSES] == [
        secrecy.NAME,
        locks.NAME,
        determinism.NAME,
        wire_labels.NAME,
        exports.NAME,
        schedule.NAME,
        taint.NAME,
    ]
