"""Wire-label accounting pass: every frame and byte count carries a real label.

The cost model (``costs.py``) and the runtime wire stats reconcile
per-label: a ``push`` or ``exchange`` whose label is misspelled, or
invented without a matching table entry, silently leaks traffic out of
the ``bytes_match`` reconciliation — the gate only sees labels it knows
about, and only on paths the tests execute. This pass closes that gap
statically: every accounting/movement call site in the tree must carry a
label that resolves to the registry ``costs.known_wire_labels()``.

Rules:

``wire/missing-label``
    An audited sink called without a label (or with ``""``). ``exchange``
    / ``send`` / ``tick_round`` default the label to ``""``, which the
    accounting tables treat as an anonymous bucket — never acceptable on
    a protocol path.

``wire/unknown-label``
    A literal label that is not in ``known_wire_labels()``. The fix is
    either the typo or a deliberate registry addition in ``costs.py`` —
    both reviewed in the same diff as the call site.

``wire/unresolvable-label``
    A label expression the analyzer cannot resolve to literals: not a
    string constant, not a pass-through function parameter (the caller's
    literal is audited instead), and not a local/module constant assigned
    from literals. Computed labels defeat the static reconciliation; hoist
    them into constants or suppress with a justification.

Scope: everything except the transport implementations themselves
(``mpc/transport.py``, ``mpc/shm.py``, ``mpc/chaos.py``) — they *define*
the sinks and forward already-validated labels from frame headers (or,
for ``hand``, derive a buffer-pool key from one).
"""

from __future__ import annotations

import ast

from .core import Finding, SourceModule, emit

__all__ = ["NAME", "EXCLUDE", "run", "known_labels"]

NAME = "wire"

# Infrastructure that implements the sinks; its internal label flow is
# frame-header forwarding, validated at the producing call sites.
EXCLUDE = ("mpc/transport.py", "mpc/shm.py", "mpc/chaos.py")

# sink name -> positional index of the label argument (after self).
_SINKS = {
    "frame": 0,
    "open_add": 1,
    "open_xor": 1,
    "open_bits": 1,
    "hand": 0,
    "push": 1,
    "push_deferred": 1,
    "swap": 1,
    "stage": 1,
    "pull": 0,
    "tick_round": 0,
    "exchange": 1,
    "send": 2,
}


def known_labels() -> frozenset:
    """The registry, imported lazily so the analyzer stays import-light.

    ``costs`` pulls in numpy; deferring the import keeps ``c2pi audit``
    usable even while the mpc package itself is mid-refactor.
    """
    from repro.mpc.costs import known_wire_labels

    return known_wire_labels()


def _label_expr(node: ast.Call, sink: str) -> ast.expr | None:
    for keyword in node.keywords:
        if keyword.arg == "label":
            return keyword.value
    index = _SINKS[sink]
    if len(node.args) > index:
        return node.args[index]
    return None


def _literal_values(
    expr: ast.expr,
    params: set[str],
    consts: dict[str, list[str] | None],
) -> list[str] | None:
    """All string literals ``expr`` can evaluate to, or None if unresolvable.

    A pass-through parameter resolves to the empty list: nothing to check
    here, the caller's argument gets audited at its own call site.
    """
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return [expr.value]
    if isinstance(expr, ast.Name):
        if expr.id in params:
            return []
        if expr.id in consts:
            return consts[expr.id]
        return None
    if isinstance(expr, ast.IfExp):
        left = _literal_values(expr.body, params, consts)
        right = _literal_values(expr.orelse, params, consts)
        if left is None or right is None:
            return None
        return left + right
    return None


def _const_strings(value: ast.expr) -> list[str] | None:
    if isinstance(value, ast.Constant) and isinstance(value.value, str):
        return [value.value]
    if isinstance(value, ast.IfExp):
        left = _const_strings(value.body)
        right = _const_strings(value.orelse)
        if left is not None and right is not None:
            return left + right
    return None


class _Auditor(ast.NodeVisitor):
    def __init__(
        self,
        module: SourceModule,
        registry: frozenset,
        findings: list[Finding],
        module_consts: dict[str, list[str] | None],
    ):
        self.module = module
        self.registry = registry
        self.findings = findings
        self.params: list[set[str]] = []
        self.consts: list[dict[str, list[str] | None]] = [module_consts]

    def _flat_params(self) -> set[str]:
        names: set[str] = set()
        for scope in self.params:
            names |= scope
        return names

    def _flat_consts(self) -> dict[str, list[str] | None]:
        merged: dict[str, list[str] | None] = {}
        for scope in self.consts:
            merged.update(scope)
        return merged

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        arg_names = {
            arg.arg
            for arg in (
                node.args.posonlyargs
                + node.args.args
                + node.args.kwonlyargs
                + ([node.args.vararg] if node.args.vararg else [])
                + ([node.args.kwarg] if node.args.kwarg else [])
            )
        }
        self.params.append(arg_names)
        self.consts.append({})
        self.generic_visit(node)
        self.consts.pop()
        self.params.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Assign(self, node: ast.Assign) -> None:
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            self.consts[-1][node.targets[0].id] = _const_strings(node.value)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        self.generic_visit(node)
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in _SINKS:
            return
        sink = func.attr
        expr = _label_expr(node, sink)
        if expr is None:
            emit(
                self.findings,
                self.module,
                "wire/missing-label",
                node,
                f"{sink}() without a label — unlabeled traffic falls into the "
                "anonymous bucket and escapes per-label reconciliation",
            )
            return
        values = _literal_values(expr, self._flat_params(), self._flat_consts())
        if values is None:
            emit(
                self.findings,
                self.module,
                "wire/unresolvable-label",
                node,
                f"{sink}() label {ast.unparse(expr)!r} cannot be statically "
                "resolved — hoist it into a string constant so the registry "
                "check can see it",
            )
            return
        for value in values:
            if value == "":
                emit(
                    self.findings,
                    self.module,
                    "wire/missing-label",
                    node,
                    f'{sink}() with label "" — unlabeled traffic escapes '
                    "per-label reconciliation",
                )
            elif value not in self.registry:
                emit(
                    self.findings,
                    self.module,
                    "wire/unknown-label",
                    node,
                    f"{sink}() label {value!r} is not registered in "
                    "costs.known_wire_labels() — fix the typo or register "
                    "the label with its traffic tier",
                )


def run(modules: list[SourceModule]) -> list[Finding]:
    registry = known_labels()
    findings: list[Finding] = []
    for module in modules:
        if module.in_scope(EXCLUDE):
            continue
        module_consts: dict[str, list[str] | None] = {}
        for statement in module.tree.body:
            if isinstance(statement, ast.Assign) and len(statement.targets) == 1:
                target = statement.targets[0]
                if isinstance(target, ast.Name):
                    module_consts[target.id] = _const_strings(statement.value)
        auditor = _Auditor(module, registry, findings, module_consts)
        auditor.visit(module.tree)
    return findings
