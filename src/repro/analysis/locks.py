"""Lock-discipline pass: no blocking work under a state lock, no order cycles.

The PR-4 bug class, promoted to a static invariant. Two rules:

``locks/blocking-under-lock``
    A blocking operation — socket I/O, ``sleep``/``join``, dealer
    generation, pool refill, a transport round-trip — executed while a
    ``threading.Lock``/``RLock``/``Condition`` is held. Under load this
    turns a nanosecond critical section into a convoy: every thread that
    touches the lock stalls behind one slow peer (the seed's
    ``PreprocessingPool.refill`` held the pool lock across full dealer
    generation; ``RemoteServer`` once ran its accept loop under one).

    Two documented exemptions, encoded here rather than inline because
    they are *categories*, not sites:

    * **I/O-serialization locks** (``_write_lock`` / ``_read_lock``):
      their entire purpose is to hold during the blocking write/read so
      concurrent frames cannot interleave on one socket or ring. The
      blocking op *is* the critical section.
    * **generation locks** (``_generation_lock``): dealer generation must
      be serialized to keep the rng stream — and therefore every derived
      share and logit — deterministic. The lock exists to be held across
      generation; the pool's fast path deliberately takes a different
      lock (that separation is exactly what this rule protects).

    ``Condition.wait``/``wait_for`` on a condition *backed by the held
    lock* is exempt: wait releases the lock while blocking.

``locks/order-inversion``
    Lock A is acquired while holding lock B in one place and B while
    holding A in another — the deadlock prerequisite. Acquisition edges
    come from lexically nested ``with`` regions plus one level of
    same-class ``self._method()`` resolution, and from cross-class calls
    when the callee method name is unique repo-wide (how
    ``remote.py -> preprocessing.py`` edges are seen).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .core import Finding, SourceModule, dotted_name, emit

__all__ = ["NAME", "SCOPE", "run"]

NAME = "locks"
SCOPE = ("",)  # every module: locks are flagged wherever they exist

_LOCK_FACTORIES = {"Lock", "RLock"}
_CONDITION_FACTORY = "Condition"

# Calls that park the thread (or do unbounded work) — forbidden under a
# held state lock.
_BLOCKING_CALLS = {
    # thread / time
    "sleep", "join",
    # sockets
    "recv", "recv_into", "recvfrom", "sendall", "sendmsg", "send_raw",
    "accept", "connect", "select", "poll",
    # transport round-trips and framing
    "push", "pull", "swap", "open_add", "open_xor", "open_bits", "hand",
    "send_obj", "recv_obj", "send_blob", "recv_blob", "wait_peer_gone",
    "read_into", "write",
    # offline material: dealer generation and pool draws
    "refill", "generate", "_generate", "acquire_bundle", "acquire",
    "infer",
}

# Lock names whose contract is "held across the blocking op" (see module
# docstring). Everything else is treated as a state lock.
_EXEMPT_LOCKS = {"_write_lock", "_read_lock", "_generation_lock"}


@dataclass
class _ClassLocks:
    """Lock topology of one class."""

    name: str
    module: SourceModule
    locks: set[str] = field(default_factory=set)
    conditions: dict[str, str] = field(default_factory=dict)  # cond -> backing lock
    # method name -> lock attrs it acquires at its top level (no lock held)
    method_acquires: dict[str, set[str]] = field(default_factory=dict)


def _self_attr(node: ast.expr) -> str | None:
    """``self._x`` -> ``_x`` (None for anything else)."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _collect_class(cls: ast.ClassDef, module: SourceModule) -> _ClassLocks:
    info = _ClassLocks(name=cls.name, module=module)
    for node in ast.walk(cls):
        if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
            continue
        factory = dotted_name(node.value.func)
        if factory is None:
            continue
        tail = factory.split(".")[-1]
        for target in node.targets:
            attr = _self_attr(target)
            if attr is None:
                continue
            if tail in _LOCK_FACTORIES:
                info.locks.add(attr)
            elif tail == _CONDITION_FACTORY:
                backing = attr  # Condition() owns its own lock
                if node.value.args:
                    arg_attr = _self_attr(node.value.args[0])
                    if arg_attr is not None:
                        backing = arg_attr
                info.conditions[attr] = backing
    return info


def _held_name(info: _ClassLocks, attr: str) -> str | None:
    """Canonical lock name a ``with self._x`` acquires (None if not a lock)."""
    if attr in info.locks:
        return attr
    if attr in info.conditions:
        return info.conditions[attr]
    return None


class _MethodAuditor(ast.NodeVisitor):
    """Walks one method tracking the stack of held lock attributes."""

    def __init__(
        self,
        info: _ClassLocks,
        method: ast.FunctionDef | ast.AsyncFunctionDef,
        findings: list[Finding],
        edges: dict[tuple[str, str], ast.AST],
        unique_methods: dict[str, "_ClassLocks"],
    ):
        self.info = info
        self.method = method
        self.findings = findings
        self.edges = edges
        self.unique_methods = unique_methods
        self.held: list[str] = []  # canonical lock attrs, acquisition order

    # -- with regions ---------------------------------------------------
    def visit_With(self, node: ast.With) -> None:
        acquired: list[str] = []
        for item in node.items:
            attr = _self_attr(item.context_expr)
            lock = _held_name(self.info, attr) if attr is not None else None
            if lock is not None:
                if self.held and self.held[-1] != lock:
                    self._record_edge(self.held[-1], lock, node)
                self.held.append(lock)
                acquired.append(lock)
        for statement in node.body:
            self.visit(statement)
        for _ in acquired:
            self.held.pop()

    visit_AsyncWith = visit_With  # same shape

    def _record_edge(self, outer: str, inner: str, node: ast.AST) -> None:
        key = (f"{self.info.name}.{outer}", f"{self.info.name}.{inner}")
        self.edges.setdefault(key, node)

    # -- nested defs: their bodies run later, not under the current lock
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if node is not self.method:
            return
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef

    # -- calls under a held lock ---------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        self.generic_visit(node)
        if not self.held:
            return
        holder = self.held[-1]
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        if name is None:
            return
        if holder in _EXEMPT_LOCKS:
            return
        if name in ("wait", "wait_for", "notify", "notify_all"):
            # Blocking only if the condition is NOT backed by the held
            # lock (waiting on a foreign condition keeps ours held).
            if name in ("wait", "wait_for") and isinstance(func, ast.Attribute):
                attr = _self_attr(func.value)
                backing = self.info.conditions.get(attr) if attr else None
                if backing != holder:
                    emit(
                        self.findings,
                        self.info.module,
                        "locks/blocking-under-lock",
                        node,
                        f"{self.info.name}.{self.method.name} waits on a "
                        f"condition not backed by held lock {holder!r} — the "
                        "lock stays held for the whole wait",
                    )
            return
        if name in _BLOCKING_CALLS:
            emit(
                self.findings,
                self.info.module,
                "locks/blocking-under-lock",
                node,
                f"{self.info.name}.{self.method.name} calls blocking "
                f"{name}() while holding {holder!r} — every thread touching "
                "that lock convoys behind this operation (the PR-4 bug "
                "class)",
            )
            return
        # One level of interprocedural resolution: self-methods, plus
        # repo-unique method names on other objects.
        target = None
        if isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name) and func.value.id == "self":
                target = self.info.method_acquires.get(name)
                owner = self.info.name
            else:
                other = self.unique_methods.get(name)
                if other is not None and other is not self.info:
                    target = other.method_acquires.get(name)
                    owner = other.name
        if target:
            for inner in target:
                key = (f"{self.info.name}.{holder}", f"{owner}.{inner}")
                self.edges.setdefault(key, node)


def _method_acquisitions(
    method: ast.FunctionDef | ast.AsyncFunctionDef, info: _ClassLocks
) -> set[str]:
    acquired: set[str] = set()
    for node in ast.walk(method):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                attr = _self_attr(item.context_expr)
                lock = _held_name(info, attr) if attr is not None else None
                if lock is not None:
                    acquired.add(lock)
    return acquired


def run(modules: list[SourceModule]) -> list[Finding]:
    findings: list[Finding] = []
    classes: list[tuple[_ClassLocks, ast.ClassDef]] = []
    for module in modules:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                info = _collect_class(node, module)
                if info.locks or info.conditions:
                    classes.append((info, node))

    # Pre-compute per-method acquisition sets and the unique-name map.
    method_owner: dict[str, list[_ClassLocks]] = {}
    for info, cls in classes:
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.method_acquires[node.name] = _method_acquisitions(node, info)
                method_owner.setdefault(node.name, []).append(info)
    unique_methods = {
        name: owners[0]
        for name, owners in method_owner.items()
        if len(owners) == 1 and owners[0].method_acquires.get(name)
    }

    edges: dict[tuple[str, str], ast.AST] = {}
    edge_site: dict[tuple[str, str], _ClassLocks] = {}
    for info, cls in classes:
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                before = set(edges)
                auditor = _MethodAuditor(info, node, findings, edges, unique_methods)
                auditor.visit(node)
                for key in set(edges) - before:
                    edge_site[key] = info

    # Pairwise inversion: A->B and B->A both observed.
    reported: set[frozenset[str]] = set()
    for (outer, inner), node in edges.items():
        if (inner, outer) in edges and frozenset((outer, inner)) not in reported:
            reported.add(frozenset((outer, inner)))
            info = edge_site[(outer, inner)]
            emit(
                findings,
                info.module,
                "locks/order-inversion",
                node,
                f"lock acquisition order inverted: {outer} -> {inner} here "
                f"but {inner} -> {outer} elsewhere — a deadlock needs only "
                "two threads hitting both paths",
            )
    return findings
