"""Determinism lint: protocol paths must be replayable bit-for-bit.

The repo's central reproducibility contract — ``bytes_match`` and
byte-identical logits across in-process / socket / shm placements,
serial vs concurrent sessions, and fault-retried requests — holds only
if nothing on a wire- or logit-affecting path consumes nondeterministic
ambient state. Three rules:

``determinism/unseeded-rng``
    Module-state randomness (``random.random()``, ``np.random.rand``,
    ``np.random.seed``) or an unseeded ``np.random.default_rng()`` in
    the mpc/serve layers. Every rng there must be constructed from an
    explicit seed (or derived via ``derive_session_seed``) so dealer
    streams, share draws and noise replay identically.

``determinism/wall-clock``
    ``time.time()`` / ``datetime.now()`` in the mpc/serve layers.
    Wall-clock values differ across runs and across machines (the PR-4
    shaper-skew bug was exactly a wall-clock header leaking into
    behavior); deadlines belong on ``time.monotonic()`` and duration
    measurement on ``time.perf_counter()``, neither of which is flagged.
    The one frame-header timestamp site (``transport._frame_layout``, the
    only writer of the header) is the documented allowlist seed: the
    stamp is diagnostic, excluded from the payload CRC and from every
    byte-accounting counter, and carries an inline
    ``# audit: allow[determinism/wall-clock]``.

``determinism/set-iteration``
    Iterating a ``set`` (or ``frozenset``) on a protocol-order path.
    Set iteration order depends on hash seeding and insertion history —
    two runs (or two parties!) can walk the same elements in different
    orders, silently reordering wire frames or material draws. Scoped to
    the modules that decide protocol order (protocol halves, engine,
    program/IR, dealer, preprocessing); ``sorted(...)`` over a set is
    the sanctioned fix and is not flagged.
"""

from __future__ import annotations

import ast

from .core import Finding, SourceModule, dotted_name, emit

__all__ = ["NAME", "RNG_SCOPE", "CLOCK_SCOPE", "SET_SCOPE", "run"]

NAME = "determinism"

RNG_SCOPE = ("mpc/", "serve/")
CLOCK_SCOPE = ("mpc/", "serve/")
# Modules whose control flow decides wire/material ordering.
SET_SCOPE = (
    "mpc/protocols",
    "mpc/engine.py",
    "mpc/party.py",
    "mpc/program.py",
    "mpc/dealer.py",
    "mpc/preprocessing.py",
    "mpc/sharing.py",
)

_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
}

# np.random module-state functions commonly reached for; the module
# attribute check below catches the rest generically.
_SEEDED_FACTORIES = {"default_rng", "Generator", "SeedSequence", "PCG64"}


def _audit_rng(module: SourceModule, findings: list[Finding]) -> None:
    stdlib_random_names = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random":
                    stdlib_random_names.add(alias.asname or "random")

    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name is None:
            continue
        parts = name.split(".")
        # stdlib `random` module state: random.random(), random.shuffle()...
        if parts[0] in stdlib_random_names and len(parts) == 2:
            if parts[1] == "Random" and node.args:
                continue  # random.Random(seed): explicit stream
            emit(
                findings,
                module,
                "determinism/unseeded-rng",
                node,
                f"{name}() draws from process-global random state — protocol "
                "paths must use an explicitly seeded generator",
            )
            continue
        # numpy module-state: np.random.<fn>(...) for anything that is not
        # an explicit generator construction.
        if len(parts) >= 3 and parts[-2] == "random" and parts[0] in ("np", "numpy"):
            attr = parts[-1]
            if attr in _SEEDED_FACTORIES:
                if not node.args and not node.keywords:
                    emit(
                        findings,
                        module,
                        "determinism/unseeded-rng",
                        node,
                        f"np.random.{attr}() without a seed — the stream "
                        "differs every process start; derive the seed from "
                        "the session/dealer seed instead",
                    )
                continue
            emit(
                findings,
                module,
                "determinism/unseeded-rng",
                node,
                f"np.random.{attr}() uses numpy's global rng state — "
                "protocol paths must thread an explicit Generator",
            )


def _audit_clock(module: SourceModule, findings: list[Finding]) -> None:
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name in _WALL_CLOCK:
            emit(
                findings,
                module,
                "determinism/wall-clock",
                node,
                f"{name}() on a protocol path — wall-clock reads are not "
                "replayable (use monotonic/perf_counter, or allowlist a "
                "diagnostic-only site inline)",
            )


def _is_set_expr(expr: ast.expr, local_sets: set[str]) -> bool:
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call):
        name = dotted_name(expr.func)
        if name in ("set", "frozenset"):
            return True
        # set operations yield sets: a.union(b), a.difference(b), ...
        if isinstance(expr.func, ast.Attribute) and expr.func.attr in (
            "union", "difference", "intersection", "symmetric_difference",
        ):
            return _is_set_expr(expr.func.value, local_sets)
    if isinstance(expr, ast.Name):
        return expr.id in local_sets
    if isinstance(expr, ast.BinOp) and isinstance(
        expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(expr.left, local_sets) or _is_set_expr(
            expr.right, local_sets
        )
    return False


def _audit_sets(module: SourceModule, findings: list[Finding]) -> None:
    # Names assigned a set anywhere in the module (annotations included).
    local_sets: set[str] = set()
    for node in ast.walk(module.tree):
        value = None
        target = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target, value = node.target, node.value
        if (
            target is not None
            and isinstance(target, ast.Name)
            and _is_set_expr(value, local_sets)
        ):
            local_sets.add(target.id)

    def flag(node: ast.AST, what: str) -> None:
        emit(
            findings,
            module,
            "determinism/set-iteration",
            node,
            f"iteration over a set ({what}) on a protocol-order path — set "
            "order varies across runs and parties; iterate sorted(...) or "
            "a list/deque instead",
        )

    for node in ast.walk(module.tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            if _is_set_expr(node.iter, local_sets):
                flag(node, ast.unparse(node.iter))
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp, ast.SetComp)):
            for generator in node.generators:
                if _is_set_expr(generator.iter, local_sets):
                    flag(node, ast.unparse(generator.iter))
        elif isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if (
                name in ("list", "tuple", "enumerate", "iter")
                and node.args
                and _is_set_expr(node.args[0], local_sets)
            ):
                flag(node, ast.unparse(node.args[0]))


def run(modules: list[SourceModule]) -> list[Finding]:
    findings: list[Finding] = []
    for module in modules:
        if module.in_scope(RNG_SCOPE):
            _audit_rng(module, findings)
        if module.in_scope(CLOCK_SCOPE):
            _audit_clock(module, findings)
        if module.in_scope(SET_SCOPE):
            _audit_sets(module, findings)
    return findings
