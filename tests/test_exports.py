"""``__all__`` drift audit — thin wrapper over the analyzer's export pass.

The implementation lives in :mod:`repro.analysis.exports` (one of the
``c2pi audit`` passes), so a single rule engine serves both CI entry
points: this per-module parametrized test (readable failure per file)
and the repo-wide ``c2pi audit --check`` gate. The import-hygiene test
beside it pins what a package's ``__init__`` drags in.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.core import SourceModule
from repro.analysis.exports import audit_module

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

MODULES = sorted(path for path in SRC.rglob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_public_api_matches_all(path):
    module = SourceModule.parse(path, SRC)
    findings = []
    audit_module(module, findings)
    assert not findings, "\n".join(finding.render() for finding in findings)


def test_serving_imports_no_crypto_stack():
    """``c2pi serve``, loadgen and the benchmark's party children import
    :mod:`repro.serve`: none of them runs the functional Delphi / Cheetah
    suites, the primitives under them or the MAC'd shares, so none pays
    for importing them — and the serving layer stays below the benches."""
    probe = (
        "import sys, repro.serve, repro.core\n"
        "print([m for m in sys.modules if m.startswith(('repro.crypto', "
        "'repro.bench')) or m in ('repro.mpc.backends.delphi', "
        "'repro.mpc.backends.cheetah', 'repro.mpc.authenticated')])"
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={
            **os.environ,
            "PYTHONPATH": str(SRC.parent)
            + os.pathsep
            + os.environ.get("PYTHONPATH", ""),
        },
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "[]"
