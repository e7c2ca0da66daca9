"""``c2pi audit`` — static invariant auditor for the C2PI codebase.

Seven AST passes over the repo's own source (see DESIGN.md §11, §13):

* :mod:`~repro.analysis.secrecy` — share-typed values reach the wire
  only through sanctioned masking/staging chains;
* :mod:`~repro.analysis.locks` — no blocking work under a state lock,
  no acquisition-order inversions (the PR-4 bug class);
* :mod:`~repro.analysis.determinism` — no ambient randomness, wall-clock
  reads, or set-iteration order on wire/logit-affecting paths;
* :mod:`~repro.analysis.wire_labels` — every accounting call site
  carries a label registered in ``costs.known_wire_labels()``;
* :mod:`~repro.analysis.exports` — ``__all__`` and the public surface
  agree (promoted from ``tests/test_exports.py``);
* :mod:`~repro.analysis.schedule` — every protocol primitive's
  extracted per-label opening counts match ``costs._METHOD_TRAFFIC``,
  and the dealer RPC's client and server agree on their label sets and
  handshake order;
* :mod:`~repro.analysis.taint` — interprocedural secret-taint: shares,
  seeds, keys and unsealed bundle payloads stay out of exception
  messages, logs, and unsanctioned wire sends.

The first five are per-function pattern passes; the last two stand on
the :mod:`~repro.analysis.dataflow` interprocedural engine. The passes
never import the code under audit — parsing is the only contact — so
they run in milliseconds and survive broken fixtures.
"""

from __future__ import annotations

from pathlib import Path

from . import determinism, exports, locks, schedule, secrecy, taint, wire_labels
from .core import (
    AuditReport,
    Finding,
    SourceModule,
    load_baseline,
    load_modules,
)

__all__ = [
    "PASSES",
    "AuditReport",
    "Finding",
    "SourceModule",
    "run_audit",
    "load_baseline",
    "load_modules",
    "default_root",
    "default_baseline",
]

#: Registered passes, run in this order. Each entry is a module exposing
#: ``NAME`` and ``run(modules) -> list[Finding]``.
PASSES = (secrecy, locks, determinism, wire_labels, exports, schedule, taint)


def default_root() -> Path:
    """The source tree the repo gate audits: ``src/repro``."""
    return Path(__file__).resolve().parents[1]


def default_baseline(root: Path | None = None) -> Path:
    """``AUDIT_BASELINE.json`` at the repo root (two above ``src/``)."""
    base = Path(root) if root is not None else default_root()
    return base.resolve().parents[1] / "AUDIT_BASELINE.json"


def run_audit(
    root: Path | None = None,
    passes: tuple | None = None,
) -> AuditReport:
    """Run the selected passes over every module under ``root``."""
    root = Path(root) if root is not None else default_root()
    selected = PASSES if passes is None else passes
    modules = load_modules(root)
    findings: list[Finding] = []
    for audit_pass in selected:
        findings.extend(audit_pass.run(modules))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return AuditReport(
        root=str(root),
        findings=findings,
        passes=[audit_pass.NAME for audit_pass in selected],
        modules_scanned=len(modules),
    )
