"""Interprocedural infrastructure for the protocol proof layer.

PR 7's passes are per-function pattern matchers; the properties that
actually wedge or leak a running deployment — a push with no matching
pull, a secret laundered through a helper's return value — are
*cross-function, cross-party* properties. This module grows the shared
machinery the :mod:`~repro.analysis.schedule` and
:mod:`~repro.analysis.taint` passes stand on:

* :class:`ProjectIndex` — every function definition in the scanned tree
  keyed by name and qualified name, plus a cross-module constant table
  (literal tuples/lists/strings, resolved through ``from X import Y``)
  so loop bounds like ``SUFFIX_STEPS`` unroll even when the constant
  lives in a sibling module;
* :class:`CommEvent` — one symbolic communication action (send / recv /
  swap / accounted opening / round tick / dealer-material consumption)
  with its resolved label and source anchor;
* :class:`TraceExtractor` — a small abstract interpreter that walks
  straight-line code, ``if`` branches and ``for`` loops of one function,
  inlining project-local helper calls (with label-parameter binding, so a
  pass-through ``label`` parameter traces under the caller's literal) and
  emitting the ordered communication trace — the object the cost
  cross-check consumes;
* :func:`collect_events` — the order-free variant: the union of
  communication calls reachable from a function through same-module
  helpers, for code whose control flow is request-driven (the dealer RPC
  loop) where only *label-level* duality is meaningful.

Like every pass, nothing here imports the code under analysis — the AST
is the only contact.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import PurePosixPath

from .core import SourceModule

__all__ = [
    "CommEvent",
    "FunctionInfo",
    "ProjectIndex",
    "TraceExtractor",
    "UnresolvableTrace",
    "build_index",
    "collect_events",
    "MOVEMENT_KINDS",
    "SEND_CALLS",
    "RECV_CALLS",
    "SWAP_CALLS",
    "ACCT_CALLS",
    "TICK_CALLS",
    "CONSUME_METHODS",
]

# ----------------------------------------------------------------------
# the communication vocabulary
# ----------------------------------------------------------------------
# Transport / Channel methods, canonicalised by direction. ``push`` and
# ``push_deferred`` differ only in physical framing (accounting and
# ordering are identical — DESIGN.md §10), so both canonicalise to one
# "send"; the obj/blob control-plane calls of the dealer RPC are sends
# and receives like any other.
SEND_CALLS = {
    "push": 1,
    "push_deferred": 1,
    "send_obj": 1,
    "send_blob": 1,
}
RECV_CALLS = {"pull": 0, "recv_obj": 0, "recv_blob": 0}
SWAP_CALLS = {"swap": 1}
# Accounted openings: the placement calls every protocol runs — both
# parties on the same line — each account one opening's payload under
# their label (``open_*`` a simultaneous exchange, ``hand`` the one
# client-to-server message), as do the raw ``exchange``/``send``
# accounting calls beneath them. ``tick_round`` only advances the round
# counter (its label is a round bucket, not a wire label — "linear" vs
# "linear-masked-input").
ACCT_CALLS = {
    "open_add": 1,
    "open_xor": 1,
    "open_bits": 1,
    "hand": 0,
    "exchange": 1,
    "send": 2,
}
TICK_CALLS = {"tick_round": 0}

#: Dealer-material consumption sites: a ``dealer.bit_triples(...)`` call
#: names the method as the attribute. One consumed item == one opening of
#: the method's wire label (``costs._METHOD_TRAFFIC``) — the invariant
#: the schedule pass cross-checks.
CONSUME_METHODS = {
    "beaver_triples",
    "bit_triples",
    "dabits",
    "comparison_masks",
    "linear_correlation",
}

MOVEMENT_KINDS = frozenset({"send", "recv", "swap"})

_LOOP_UNROLL_LIMIT = 128
_INLINE_DEPTH_LIMIT = 10


@dataclass(frozen=True)
class CommEvent:
    """One symbolic communication action in a function's trace."""

    kind: str  # send | recv | swap | acct | tick | consume
    label: str  # wire label, round bucket, or dealer method for consume
    rel: str  # module path the call physically sits in
    line: int

    @property
    def key(self) -> tuple[str, str]:
        """Line-free identity used for branch-equivalence and duality."""
        return (self.kind, self.label)


@dataclass
class FunctionInfo:
    """One function definition: where it lives and how to call it."""

    qualname: str  # "Class.method" or bare "fn"
    name: str
    module: SourceModule
    node: ast.FunctionDef | ast.AsyncFunctionDef
    cls: str | None = None

    @property
    def params(self) -> list[str]:
        args = self.node.args
        names = [a.arg for a in args.posonlyargs + args.args]
        return names

    def default_bindings(self) -> dict[str, str]:
        """Literal-string defaults, used when tracing with no caller."""
        args = self.node.args
        positional = args.posonlyargs + args.args
        bindings: dict[str, str] = {}
        for arg, default in zip(positional[len(positional) - len(args.defaults):],
                                args.defaults):
            if isinstance(default, ast.Constant) and isinstance(default.value, str):
                bindings[arg.arg] = default.value
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if (
                default is not None
                and isinstance(default, ast.Constant)
                and isinstance(default.value, str)
            ):
                bindings[arg.arg] = default.value
        return bindings


@dataclass
class ProjectIndex:
    """Every scanned function plus the cross-module constant table."""

    functions: dict[str, list[FunctionInfo]] = field(default_factory=dict)
    by_qualname: dict[str, FunctionInfo] = field(default_factory=dict)
    #: (module rel, name) -> literal value (str, int, tuple/list of those)
    constants: dict[tuple[str, str], object] = field(default_factory=dict)
    #: (module rel, local name) -> (source module rel, source name)
    imports: dict[tuple[str, str], tuple[str, str]] = field(default_factory=dict)
    modules: dict[str, SourceModule] = field(default_factory=dict)
    #: class name -> its ``__init__`` (taint uses this to treat project
    #: constructors as returning untainted objects whose *fields* carry
    #: the secrets instead)
    classes: dict[str, FunctionInfo] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def resolve_function(
        self, name: str, cls: str | None = None, module: SourceModule | None = None
    ) -> FunctionInfo | None:
        """The unique project function a call tail refers to, if any.

        Preference order: a method of the caller's own class, then a
        definition in the caller's own module, then a project-unique
        name. Ambiguous names resolve to nothing — the trace stays
        honest rather than guessing.
        """
        candidates = self.functions.get(name, [])
        if not candidates:
            return None
        if cls is not None:
            own = [c for c in candidates if c.cls == cls]
            if len(own) == 1:
                return own[0]
        if module is not None:
            local = [c for c in candidates if c.module.rel == module.rel]
            if len(local) == 1:
                return local[0]
        if len(candidates) == 1:
            return candidates[0]
        return None

    def constant(self, module: SourceModule, name: str) -> object | None:
        """A module-level literal constant, followed through imports."""
        seen: set[tuple[str, str]] = set()
        key = (module.rel, name)
        while key not in seen:
            seen.add(key)
            if key in self.constants:
                return self.constants[key]
            if key in self.imports:
                key = self.imports[key]
                continue
            return None
        return None


def _literal_value(node: ast.expr) -> object | None:
    """The python value of a literal expression (str/int/tuple/list)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, (str, int)):
        return node.value
    if isinstance(node, (ast.Tuple, ast.List)):
        values = [_literal_value(element) for element in node.elts]
        if any(value is None for value in values):
            return None
        return tuple(values)
    return None


def _sibling_rel(importer_rel: str, module_name: str) -> str:
    """Best-effort rel path of ``from .X import Y``'s source module."""
    tail = module_name.split(".")[-1]
    return (PurePosixPath(importer_rel).parent / f"{tail}.py").as_posix()


def build_index(modules: list[SourceModule]) -> ProjectIndex:
    """Index functions, constants and import aliases across the tree."""
    index = ProjectIndex()
    for module in modules:
        index.modules[module.rel] = module
        for statement in module.tree.body:
            if isinstance(statement, ast.Assign) and len(statement.targets) == 1:
                target = statement.targets[0]
                if isinstance(target, ast.Name):
                    value = _literal_value(statement.value)
                    if value is not None:
                        index.constants[(module.rel, target.id)] = value
            elif isinstance(statement, ast.ImportFrom) and statement.module:
                source_rel = _sibling_rel(module.rel, statement.module)
                for alias in statement.names:
                    local = alias.asname or alias.name
                    index.imports[(module.rel, local)] = (source_rel, alias.name)

        def _register(node, cls: str | None) -> None:
            qualname = node.name if cls is None else f"{cls}.{node.name}"
            info = FunctionInfo(
                qualname=qualname, name=node.name, module=module, node=node, cls=cls
            )
            index.functions.setdefault(node.name, []).append(info)
            index.by_qualname.setdefault(f"{module.rel}:{qualname}", info)

        for statement in module.tree.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                _register(statement, None)
            elif isinstance(statement, ast.ClassDef):
                for item in statement.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        _register(item, statement.name)
                        if item.name == "__init__":
                            index.classes.setdefault(
                                statement.name,
                                index.by_qualname[
                                    f"{module.rel}:{statement.name}.__init__"
                                ],
                            )
    return index


# ----------------------------------------------------------------------
# the trace interpreter
# ----------------------------------------------------------------------
class UnresolvableTrace(Exception):
    """The interpreter cannot produce a faithful ordered trace."""

    def __init__(self, message: str, node: ast.AST, module: SourceModule):
        super().__init__(message)
        self.message = message
        self.node = node
        self.module = module


class _Return(Exception):
    """Internal control-flow signal: the traced path ended."""


def _call_tail(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


class TraceExtractor:
    """Symbolic execution of one function.

    Helper calls that resolve to project functions are inlined
    (depth-limited, recursion-guarded) with their string parameters bound
    from the call site, so labels survive pass-through helpers. Anything
    the interpreter cannot model faithfully on a path that communicates —
    an unresolvable loop over comm ops, branches whose arms disagree
    about communication — raises :class:`UnresolvableTrace` instead of
    guessing.
    """

    def __init__(self, index: ProjectIndex):
        self.index = index

    # -- public ---------------------------------------------------------
    def trace(
        self, fn: FunctionInfo, bindings: dict[str, str] | None = None
    ) -> list[CommEvent]:
        merged = fn.default_bindings()
        if bindings:
            merged.update(bindings)
        return self._trace_function(fn, merged, stack=(fn.qualname,))

    # -- internals ------------------------------------------------------
    def _trace_function(
        self, fn: FunctionInfo, bindings: dict[str, str], stack: tuple[str, ...]
    ) -> list[CommEvent]:
        events: list[CommEvent] = []
        env = dict(bindings)
        try:
            self._trace_block(fn.node.body, fn, env, events, stack)
        except _Return:
            pass
        return events

    def _trace_block(self, body, fn, env, events, stack) -> None:
        for statement in body:
            self._trace_statement(statement, fn, env, events, stack)

    def _trace_statement(self, statement, fn, env, events, stack) -> None:
        module = fn.module
        if isinstance(statement, ast.Expr):
            self._emit_expr(statement.value, fn, env, events, stack)
        elif isinstance(statement, ast.Assign):
            self._emit_expr(statement.value, fn, env, events, stack)
            # Track local string constants: labels are often hoisted
            # (``key = "linear-masked-input"``) before the call.
            if len(statement.targets) == 1 and isinstance(
                statement.targets[0], ast.Name
            ):
                value = self._resolve_str(statement.value, fn, env)
                if value is not None:
                    env[statement.targets[0].id] = value
        elif isinstance(statement, (ast.AugAssign, ast.AnnAssign)):
            if getattr(statement, "value", None) is not None:
                self._emit_expr(statement.value, fn, env, events, stack)
        elif isinstance(statement, ast.Return):
            if statement.value is not None:
                self._emit_expr(statement.value, fn, env, events, stack)
            raise _Return()
        elif isinstance(statement, ast.Raise):
            if statement.exc is not None:
                self._emit_expr(statement.exc, fn, env, events, stack)
            raise _Return()
        elif isinstance(statement, ast.If):
            self._trace_if(statement, fn, env, events, stack)
        elif isinstance(statement, ast.For):
            self._trace_for(statement, fn, env, events, stack)
        elif isinstance(statement, ast.While):
            if self._block_communicates(statement.body, fn, stack):
                raise UnresolvableTrace(
                    "while-loop over communication ops — iteration count "
                    "is not static, the round schedule cannot be proven",
                    statement,
                    module,
                )
        elif isinstance(statement, ast.With):
            for item in statement.items:
                self._emit_expr(item.context_expr, fn, env, events, stack)
            self._trace_block(statement.body, fn, env, events, stack)
        elif isinstance(statement, ast.Try):
            # Handlers model error paths; the schedule is the happy path.
            self._trace_block(statement.body, fn, env, events, stack)
            self._trace_block(statement.orelse, fn, env, events, stack)
            self._trace_block(statement.finalbody, fn, env, events, stack)
        elif isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            pass  # nested definitions execute when called, not here
        elif isinstance(statement, (ast.Break, ast.Continue)):
            if isinstance(statement, ast.Break):
                raise UnresolvableTrace(
                    "break inside an unrolled loop — the static iteration "
                    "count would be a lie",
                    statement,
                    module,
                )
        # Pass/Import/Global/Assert/Delete: no communication.

    def _trace_if(self, statement: ast.If, fn, env, events, stack) -> None:
        # Both arms must agree about what they communicate (row-local
        # arithmetic, optional bias adds). Disagreement means the schedule
        # depends on runtime data the analyzer cannot see.
        body_events, body_returned = self._branch_trace(statement.body, fn, env, stack)
        else_events, else_returned = self._branch_trace(statement.orelse, fn, env, stack)
        if [e.key for e in body_events] != [e.key for e in else_events]:
            raise UnresolvableTrace(
                "if-branches disagree about communication "
                f"({[e.key for e in body_events]} vs {[e.key for e in else_events]})",
                statement,
                fn.module,
            )
        events.extend(body_events)
        if body_returned and else_returned:
            raise _Return()

    def _branch_trace(self, body, fn, env, stack) -> tuple[list[CommEvent], bool]:
        branch_events: list[CommEvent] = []
        branch_env = dict(env)
        try:
            self._trace_block(body, fn, branch_env, branch_events, stack)
        except _Return:
            env.update(branch_env)
            return branch_events, True
        env.update(branch_env)
        return branch_events, False

    def _trace_for(self, statement: ast.For, fn, env, events, stack) -> None:
        count = self._iteration_count(statement.iter, fn, env)
        if count is None:
            if self._block_communicates(statement.body, fn, stack):
                raise UnresolvableTrace(
                    f"loop over {ast.unparse(statement.iter)!r} communicates "
                    "but its iteration count cannot be resolved statically",
                    statement,
                    fn.module,
                )
            return
        self._emit_expr(statement.iter, fn, env, events, stack)
        for _ in range(min(count, _LOOP_UNROLL_LIMIT)):
            self._trace_block(statement.body, fn, env, events, stack)
        self._trace_block(statement.orelse, fn, env, events, stack)

    def _iteration_count(self, iterable: ast.expr, fn, env) -> int | None:
        if isinstance(iterable, (ast.Tuple, ast.List)):
            return len(iterable.elts)
        if isinstance(iterable, ast.Call) and isinstance(iterable.func, ast.Name):
            if iterable.func.id == "range":
                bounds = [_literal_value(a) for a in iterable.args]
                if all(isinstance(b, int) for b in bounds) and bounds:
                    return max(0, len(range(*bounds)))
            return None
        if isinstance(iterable, ast.Name):
            value = self.index.constant(fn.module, iterable.id)
            if isinstance(value, tuple):
                return len(value)
        return None

    def _block_communicates(self, body, fn, stack) -> bool:
        """Whether any comm call is reachable from this block (transitively)."""
        for statement in body:
            for node in ast.walk(statement):
                if not isinstance(node, ast.Call):
                    continue
                tail = _call_tail(node)
                if tail is None:
                    continue
                if tail in SEND_CALLS or tail in RECV_CALLS or tail in SWAP_CALLS:
                    return True
                if tail in ACCT_CALLS or tail in TICK_CALLS:
                    return True
                callee = self._resolvable_callee(node, fn)
                if (
                    callee is not None
                    and callee.qualname not in stack
                    and len(stack) < _INLINE_DEPTH_LIMIT
                    and self._block_communicates(
                        callee.node.body, callee, stack + (callee.qualname,)
                    )
                ):
                    return True
        return False

    # -- expressions ----------------------------------------------------
    def _emit_expr(self, expr: ast.expr, fn, env, events, stack) -> None:
        """Emit events of an expression in evaluation order (post-order)."""
        if expr is None:
            return
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self._emit_expr(child, fn, env, events, stack)
            elif isinstance(child, ast.keyword):
                self._emit_expr(child.value, fn, env, events, stack)
            elif isinstance(child, (ast.comprehension,)):
                self._emit_expr(child.iter, fn, env, events, stack)
        if isinstance(expr, ast.Call):
            self._emit_call(expr, fn, env, events, stack)

    def _emit_call(self, call: ast.Call, fn, env, events, stack) -> None:
        tail = _call_tail(call)
        if tail is None:
            return
        module = fn.module

        def event(kind: str, label: str) -> None:
            events.append(
                CommEvent(kind=kind, label=label, rel=module.rel, line=call.lineno)
            )

        if tail in SEND_CALLS:
            event("send", self._label(call, SEND_CALLS[tail], fn, env))
            return
        if tail in RECV_CALLS:
            event("recv", self._label(call, RECV_CALLS[tail], fn, env))
            return
        if tail in SWAP_CALLS:
            event("swap", self._label(call, SWAP_CALLS[tail], fn, env))
            return
        if tail in ACCT_CALLS:
            event("acct", self._label(call, ACCT_CALLS[tail], fn, env))
            return
        if tail in TICK_CALLS:
            event("tick", self._label(call, TICK_CALLS[tail], fn, env))
            return
        if tail in CONSUME_METHODS and isinstance(call.func, ast.Attribute):
            event("consume", tail)
            return
        # Project-local helper: inline its trace with bound labels. Only
        # bare-name calls and ``self.method`` resolve — an attribute call
        # on a runtime object (``io.alloc_words``, ``np.subtract``) is a
        # method of *that object's* class, which static name matching
        # cannot identify safely.
        callee = self._resolvable_callee(call, fn)
        if callee is None or callee.qualname in stack:
            return
        if len(stack) >= _INLINE_DEPTH_LIMIT:
            raise UnresolvableTrace(
                f"call chain deeper than {_INLINE_DEPTH_LIMIT} at {tail!r}",
                call,
                module,
            )
        bindings = callee.default_bindings()
        params = callee.params
        # self/cls receivers are not in the call's positional args.
        offset = 1 if (callee.cls is not None and params and params[0] == "self") else 0
        for position, arg in enumerate(call.args):
            slot = position + offset
            if slot < len(params):
                value = self._resolve_str(arg, fn, env)
                if value is not None:
                    bindings[params[slot]] = value
        for keyword in call.keywords:
            if keyword.arg is not None:
                value = self._resolve_str(keyword.value, fn, env)
                if value is not None:
                    bindings[keyword.arg] = value
        events.extend(
            self._trace_function(callee, bindings, stack + (callee.qualname,))
        )

    def _resolvable_callee(self, call: ast.Call, fn) -> FunctionInfo | None:
        func = call.func
        if isinstance(func, ast.Name):
            return self.index.resolve_function(func.id, cls=None, module=fn.module)
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls")
            and fn.cls is not None
        ):
            return self.index.resolve_function(
                func.attr, cls=fn.cls, module=fn.module
            )
        return None

    def _label(self, call: ast.Call, index: int, fn, env) -> str:
        for keyword in call.keywords:
            if keyword.arg == "label":
                return self._label_value(keyword.value, fn, env)
        if len(call.args) > index:
            return self._label_value(call.args[index], fn, env)
        return "<missing>"

    def _label_value(self, expr: ast.expr, fn, env) -> str:
        value = self._resolve_str(expr, fn, env)
        if value is not None:
            return value
        # Symbolic but *stable*: the same unresolved expression always
        # produces the same token.
        return f"<{ast.unparse(expr)}>"

    def _resolve_str(self, expr: ast.expr, fn, env) -> str | None:
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            return expr.value
        if isinstance(expr, ast.Name):
            if expr.id in env:
                return env[expr.id]
            value = self.index.constant(fn.module, expr.id)
            if isinstance(value, str):
                return value
        return None


# ----------------------------------------------------------------------
# order-free collection (request-driven control flow)
# ----------------------------------------------------------------------
def collect_events(
    index: ProjectIndex, fn: FunctionInfo, max_depth: int = 6
) -> list[CommEvent]:
    """Every comm call reachable from ``fn`` through same-module helpers.

    The dealer RPC loop dispatches on request payloads — its per-branch
    ordering is runtime data, but its *label vocabulary* is static. This
    walks the function and its same-module callees (depth-bounded,
    recursion-guarded) and returns every movement/accounting event, in
    source order per function, without claiming any cross-branch order.
    """
    events: list[CommEvent] = []
    extractor = TraceExtractor(index)
    seen: set[str] = set()

    def visit(info: FunctionInfo, depth: int) -> None:
        if info.qualname in seen or depth > max_depth:
            return
        seen.add(info.qualname)
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            tail = _call_tail(node)
            if tail is None:
                continue
            for table, kind in (
                (SEND_CALLS, "send"),
                (RECV_CALLS, "recv"),
                (SWAP_CALLS, "swap"),
                (ACCT_CALLS, "acct"),
                (TICK_CALLS, "tick"),
            ):
                if tail in table:
                    events.append(
                        CommEvent(
                            kind=kind,
                            label=extractor._label(node, table[tail], info, {}),
                            rel=info.module.rel,
                            line=node.lineno,
                        )
                    )
                    break
            else:
                callee = extractor._resolvable_callee(node, info)
                if callee is not None and callee.module.rel == info.module.rel:
                    visit(callee, depth + 1)

    visit(fn, 0)
    return events
