"""Interprocedural secret-taint pass: secrets stay out of strings and logs.

The :mod:`~repro.analysis.secrecy` pass checks the *provenance* of wire
payloads function-locally; this pass tracks the *values themselves* —
secret shares, dealer rng state and seeds, keys, unsealed bundle
payloads — forward through assignments, returns and project-local call
hops, to the three places a secret most plausibly escapes in practice:

``taint/secret-in-exception``
    A raised exception interpolates a secret-derived value (f-string,
    ``%``, ``.format``, ``str``/``repr`` — any expression shape).
    Exception messages end up in logs, tracebacks and crash reports on
    *both* sides of the deployment.

``taint/secret-in-log``
    ``print`` / ``logging`` called with a secret-derived argument.
    (The secrecy pass already bans printing in the protocol layer
    wholesale; this rule follows the tainted value anywhere in scope.)

``taint/secret-to-wire``
    A payload-moving send or opening whose argument is secret-derived
    and not produced by a sanctioned masking chain (``stage``, sealed
    bundles, share splitters, masked frames and expressions) — including
    values laundered
    through a helper's return value, which the per-function secrecy
    pass cannot see.

The analysis is a two-phase abstract interpretation over *origin sets*:

1. a fixpoint over per-function summaries — which parameters flow to
   the return value, whether the return is itself a source, whether
   every return is a sanctioned producer — plus two global facts:
   object *fields* assigned secret-derived values (by attribute name:
   constructing ``_Stream(key, seed)`` taints ``.key`` reads
   everywhere), and parameters that *receive* tainted arguments at some
   call site;
2. a sink walk over in-scope functions with the converged state.

Deliberately not modeled (see DESIGN.md §13): ``send_obj`` (the RPC
control plane — its dict payloads are audited by hand and by the
secrecy pass's sink rules), ``recv_obj`` as a source (control messages
are public by construction), taint through ``out=`` in-place writes
(masked-frame discipline is the secrecy pass's job), and ``except``
handler variables (exception objects are not sources).
"""

from __future__ import annotations

import ast

from .core import Finding, SourceModule, dotted_name, emit
from .dataflow import CONSUME_METHODS, FunctionInfo, ProjectIndex, build_index
from .secrecy import (
    SCOPE,
    _ALLOCATORS,
    _SEALED_CALLS,
    _SHARE_SPLITTERS,
    _STAGING_CALLS,
    _WRAPPERS,
    _is_alloc_chain,
)

__all__ = ["NAME", "SCOPE", "run"]

NAME = "taint"

#: Calls whose result IS secret material: raw bundle blobs off the
#: wire, the record/bundle unpackers and the dealer-material draws
#: (``dealer.bit_triples(shape)``). ``dealer.state()`` (the serialized
#: rng state) is also a source but needs a shape check, so it is handled
#: in :meth:`_Analyzer._call_origins`. ``begin_bundle()`` hands back a
#: bundle's seed — party 0's whole half.
_SOURCE_CALLS = {
    "begin_bundle",
    "recv_blob",
    "_unpack_record",
    "unpack_party_bundle",
} | CONSUME_METHODS

#: Parameter names that carry secret values by the repo's own naming
#: conventions. Deliberately absent: ``fingerprint`` (a public program
#: hash), ``seq``/``batch`` (public stream positions), ``label``,
#: ``bits`` (public bit *width*), ``request``/``reply`` (control
#: plane).
_SECRET_PARAMS = {
    "x",
    "y",
    "a",
    "b",
    "share",
    "shares",
    "secret",
    "mask",
    "masks",
    "triple",
    "triples",
    "material",
    "correlation",
    "dabit",
    "dabits",
    "record",
    "blob",
    "blob0",
    "blob1",
    "session_seed",
    "dealer_seed",
    "z_low",
    "r_words",
}

#: Attribute reads that *declassify*: shapes, dtypes and sizes of a
#: secret array are public metadata (the cost model broadcasts them),
#: and a stream's sequence position is public protocol state (the
#: dealer sends it in control replies).
_DECLASSIFIED_ATTRS = {
    "shape",
    "dtype",
    "nbytes",
    "size",
    "ndim",
    "itemsize",
    "name",
    "next_seq",
}

#: Calls that declassify their argument entirely.
_DECLASSIFIERS = {"len", "type", "isinstance", "id", "hex_digest"}

_LOG_SINKS = {"print"}
_LOG_MODULES = {"logging", "logger", "log"}

#: Payload-moving sinks (payload is argument 0). ``send_obj`` is the
#: RPC control plane and is deliberately excluded — see the module
#: docstring.
_WIRE_SINKS = {
    "open_add",
    "open_xor",
    "open_bits",
    "push",
    "push_deferred",
    "swap",
    "send_blob",
}

_SANCTIONED_PRODUCERS = _STAGING_CALLS | _SEALED_CALLS | _SHARE_SPLITTERS

_MAX_ITERATIONS = 10
_SNIPPET_LIMIT = 60


def _call_tail(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _snippet(expr: ast.expr) -> str:
    text = ast.unparse(expr)
    if len(text) > _SNIPPET_LIMIT:
        text = text[: _SNIPPET_LIMIT - 3] + "..."
    return text


def _all_params(info: FunctionInfo) -> list[str]:
    args = info.node.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return names


class _Summary:
    """What a function does with taint, as seen from a call site."""

    __slots__ = ("return_origins", "returns_sanctioned", "saw_return")

    def __init__(self):
        self.return_origins: set[str] = set()
        self.returns_sanctioned = True
        self.saw_return = False

    def key(self) -> tuple:
        return (
            frozenset(self.return_origins),
            self.returns_sanctioned,
            self.saw_return,
        )


class _Analyzer:
    """Origin-set abstract interpretation over the whole scanned tree.

    An *origin set* is the set of places a value may derive from: its
    own function's parameter names, plus ``"*"`` for "a source call or
    tainted field was read". A value is tainted when its origins
    intersect the function's tainted parameters (secret-named or
    call-site-propagated) or contain ``"*"``.
    """

    def __init__(self, index: ProjectIndex):
        self.index = index
        self.summaries: dict[str, _Summary] = {}
        self.param_taint: dict[str, set[str]] = {}
        self.tainted_fields: set[str] = set()
        self.changed = False

    # -- identity -------------------------------------------------------
    @staticmethod
    def _key(info: FunctionInfo) -> str:
        return f"{info.module.rel}:{info.qualname}"

    def _tainted_params(self, info: FunctionInfo) -> set[str]:
        tainted = {"*"}
        tainted.update(p for p in _all_params(info) if p in _SECRET_PARAMS)
        tainted.update(self.param_taint.get(self._key(info), set()))
        return tainted

    def _is_tainted(self, origins: set[str], info: FunctionInfo) -> bool:
        return bool(origins & self._tainted_params(info))

    # -- callee resolution ---------------------------------------------
    def _callee(self, call: ast.Call, info: FunctionInfo) -> FunctionInfo | None:
        func = call.func
        if isinstance(func, ast.Name):
            resolved = self.index.resolve_function(
                func.id, cls=None, module=info.module
            )
            if resolved is not None:
                return resolved
            return self.index.classes.get(func.id)
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls")
            and info.cls is not None
        ):
            return self.index.resolve_function(
                func.attr, cls=info.cls, module=info.module
            )
        return None

    def _propagate_args(
        self, call: ast.Call, callee: FunctionInfo, info: FunctionInfo, env
    ) -> None:
        """Record tainted arguments arriving at a project function."""
        params = callee.params
        offset = 1 if params and params[0] in ("self", "cls") else 0
        key = self._key(callee)
        incoming = self.param_taint.setdefault(key, set())
        for position, arg in enumerate(call.args):
            slot = position + offset
            if slot < len(params) and self._is_tainted(
                self._origins(arg, info, env), info
            ):
                if params[slot] not in incoming:
                    incoming.add(params[slot])
                    self.changed = True
        for keyword in call.keywords:
            if keyword.arg is not None and self._is_tainted(
                self._origins(keyword.value, info, env), info
            ):
                if keyword.arg not in incoming:
                    incoming.add(keyword.arg)
                    self.changed = True

    # -- origins --------------------------------------------------------
    def _origins(self, expr, info: FunctionInfo, env) -> set[str]:
        if expr is None or isinstance(expr, ast.Constant):
            return set()
        if isinstance(expr, ast.Name):
            return set(env.get(expr.id, ()))
        if isinstance(expr, ast.Attribute):
            if expr.attr in _DECLASSIFIED_ATTRS:
                return set()
            if expr.attr in self.tainted_fields:
                return {"*"}
            return self._origins(expr.value, info, env)
        if isinstance(expr, ast.Lambda):
            return set()
        if isinstance(expr, ast.Call):
            return self._call_origins(expr, info, env)
        origins: set[str] = set()
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                origins |= self._origins(child, info, env)
            elif isinstance(child, ast.keyword):
                origins |= self._origins(child.value, info, env)
            elif isinstance(child, ast.comprehension):
                origins |= self._origins(child.iter, info, env)
        return origins

    def _call_origins(self, call: ast.Call, info: FunctionInfo, env) -> set[str]:
        tail = _call_tail(call)
        if tail in _DECLASSIFIERS:
            return set()
        if tail in _SOURCE_CALLS:
            return {"*"}
        if isinstance(call.func, ast.Attribute):
            # ``dealer.state()``: the serialized rng state.
            if tail == "state" and not call.args and not call.keywords:
                return {"*"}
        callee = self._callee(call, info)
        if callee is not None:
            self._propagate_args(call, callee, info, env)
            if callee.name == "__init__":
                # A project constructor returns an untainted *object*;
                # the secrets it swallows resurface as tainted fields.
                return set()
            summary = self.summaries.get(self._key(callee))
            if summary is not None:
                origins: set[str] = set()
                params = callee.params
                offset = 1 if params and params[0] in ("self", "cls") else 0
                flows = summary.return_origins
                if "*" in flows:
                    origins.add("*")
                for position, arg in enumerate(call.args):
                    slot = position + offset
                    if slot < len(params) and params[slot] in flows:
                        origins |= self._origins(arg, info, env)
                for keyword in call.keywords:
                    if keyword.arg in flows:
                        origins |= self._origins(keyword.value, info, env)
                return origins
            return set()
        # Unknown call: taint flows through arguments and — for method
        # calls — through the receiver (``tainted.tobytes()``).
        origins = set()
        for arg in call.args:
            origins |= self._origins(arg, info, env)
        for keyword in call.keywords:
            origins |= self._origins(keyword.value, info, env)
        if isinstance(call.func, ast.Attribute):
            origins |= self._origins(call.func.value, info, env)
        return origins

    # -- sanctioned-producer check -------------------------------------
    def _unwrap(self, expr: ast.expr) -> ast.expr:
        for _ in range(12):
            if isinstance(expr, ast.Call):
                tail = _call_tail(expr)
                if tail == "cast" and isinstance(expr.func, ast.Attribute):
                    expr = expr.func.value
                    continue
                if tail in _WRAPPERS and expr.args:
                    expr = expr.args[0]
                    continue
            return expr
        return expr

    def _is_sanctioned(self, expr: ast.expr, info: FunctionInfo) -> bool:
        resolved = self._unwrap(expr)
        if isinstance(resolved, ast.BinOp):
            # Blinded in the expression itself: a dealer-material read
            # (``b ^ dabit.boolean``) is mixed in.
            return any(
                isinstance(side, ast.Attribute)
                and side.attr not in _DECLASSIFIED_ATTRS
                for side in (resolved.left, resolved.right)
            )
        if not isinstance(resolved, ast.Call):
            return False
        tail = _call_tail(resolved)
        if tail in _SANCTIONED_PRODUCERS or tail in _ALLOCATORS:
            return True
        if _is_alloc_chain(resolved):
            return True
        callee = self._callee(resolved, info)
        if callee is not None:
            summary = self.summaries.get(self._key(callee))
            if summary is not None and summary.saw_return:
                return summary.returns_sanctioned
        return False

    # -- function evaluation -------------------------------------------
    def evaluate(
        self,
        info: FunctionInfo,
        findings: list[Finding] | None = None,
    ) -> _Summary:
        env = {p: {p} for p in _all_params(info)}
        summary = _Summary()
        reported: set[int] = set()
        self._walk_block(info.node.body, info, env, summary, findings, reported)
        if not summary.saw_return:
            summary.returns_sanctioned = False
        key = self._key(info)
        previous = self.summaries.get(key)
        if previous is None or previous.key() != summary.key():
            self.summaries[key] = summary
            self.changed = True
        return summary

    def _walk_block(self, body, info, env, summary, findings, reported) -> None:
        for statement in body:
            self._walk_statement(statement, info, env, summary, findings, reported)

    def _walk_statement(self, stmt, info, env, summary, findings, reported) -> None:
        if isinstance(stmt, ast.Expr):
            self._visit_expr(stmt.value, info, env, findings, reported)
        elif isinstance(stmt, ast.Assign):
            origins = self._visit_expr(stmt.value, info, env, findings, reported)
            for target in stmt.targets:
                self._bind_target(target, origins, info, env)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                origins = self._visit_expr(stmt.value, info, env, findings, reported)
                self._bind_target(stmt.target, origins, info, env)
        elif isinstance(stmt, ast.AugAssign):
            origins = self._visit_expr(stmt.value, info, env, findings, reported)
            if isinstance(stmt.target, ast.Name):
                env.setdefault(stmt.target.id, set())
                env[stmt.target.id] = env[stmt.target.id] | origins
            else:
                self._bind_target(stmt.target, origins, info, env)
        elif isinstance(stmt, ast.Return):
            summary.saw_return = True
            if stmt.value is None:
                summary.returns_sanctioned = False
            else:
                origins = self._visit_expr(stmt.value, info, env, findings, reported)
                summary.return_origins |= origins
                if not self._is_sanctioned(stmt.value, info):
                    summary.returns_sanctioned = False
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                origins = self._visit_expr(stmt.exc, info, env, findings, reported)
                if (
                    findings is not None
                    and id(stmt) not in reported
                    and self._is_tainted(origins, info)
                ):
                    reported.add(id(stmt))
                    emit(
                        findings,
                        info.module,
                        "taint/secret-in-exception",
                        stmt,
                        f"exception raised in {info.qualname!r} interpolates "
                        f"a secret-derived value ({_snippet(stmt.exc)}) — "
                        "redact to shapes/dtypes/labels",
                    )
        elif isinstance(stmt, ast.If):
            self._visit_expr(stmt.test, info, env, findings, reported)
            self._walk_branches(
                (stmt.body, stmt.orelse), info, env, summary, findings, reported
            )
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            origins = self._visit_expr(stmt.iter, info, env, findings, reported)
            self._bind_target(stmt.target, origins, info, env)
            # Twice: the second pass sees loop-carried taint.
            for _ in range(2):
                self._walk_block(stmt.body, info, env, summary, findings, reported)
            self._walk_block(stmt.orelse, info, env, summary, findings, reported)
        elif isinstance(stmt, ast.While):
            self._visit_expr(stmt.test, info, env, findings, reported)
            for _ in range(2):
                self._walk_block(stmt.body, info, env, summary, findings, reported)
            self._walk_block(stmt.orelse, info, env, summary, findings, reported)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                origins = self._visit_expr(
                    item.context_expr, info, env, findings, reported
                )
                if item.optional_vars is not None:
                    self._bind_target(item.optional_vars, origins, info, env)
            self._walk_block(stmt.body, info, env, summary, findings, reported)
        elif isinstance(stmt, ast.Try):
            self._walk_block(stmt.body, info, env, summary, findings, reported)
            for handler in stmt.handlers:
                if handler.name is not None:
                    env[handler.name] = set()  # exception objects: not sources
                self._walk_block(handler.body, info, env, summary, findings, reported)
            self._walk_block(stmt.orelse, info, env, summary, findings, reported)
            self._walk_block(stmt.finalbody, info, env, summary, findings, reported)
        elif isinstance(stmt, ast.Assert):
            self._visit_expr(stmt.test, info, env, findings, reported)
            if stmt.msg is not None:
                origins = self._visit_expr(stmt.msg, info, env, findings, reported)
                if (
                    findings is not None
                    and id(stmt) not in reported
                    and self._is_tainted(origins, info)
                ):
                    reported.add(id(stmt))
                    emit(
                        findings,
                        info.module,
                        "taint/secret-in-exception",
                        stmt,
                        f"assert message in {info.qualname!r} interpolates a "
                        f"secret-derived value ({_snippet(stmt.msg)})",
                    )
        elif isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            pass  # nested definitions are separate analysis units
        # Pass / Import / Global / Delete / Break / Continue: no flow.

    def _walk_branches(
        self, branches, info, env, summary, findings, reported
    ) -> None:
        """Branches run on copies; the join is a per-name union."""
        merged: dict[str, set[str]] = {}
        for body in branches:
            branch_env = {name: set(origins) for name, origins in env.items()}
            self._walk_block(body, info, branch_env, summary, findings, reported)
            for name, origins in branch_env.items():
                merged.setdefault(name, set()).update(origins)
        env.clear()
        env.update(merged)

    def _bind_target(self, target, origins: set[str], info, env) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = set(origins)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                # Coarse: one tainted element taints every unpacked name.
                self._bind_target(element, origins, info, env)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, origins, info, env)
        elif isinstance(target, ast.Attribute):
            # Field taint is by attribute name, recorded only for
            # ``self.X = ...`` stores in *scoped* modules — object
            # construction is how secrets land in fields, and the
            # secret-bearing classes live where the secrets do. Writes
            # elsewhere (a model builder storing layer widths, the
            # analyzer storing AST nodes) must not poison every ``.key``
            # or ``.program`` read in the protocol layer.
            if (
                isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and info.module.in_scope(SCOPE)
                and self._is_tainted(origins, info)
            ):
                if target.attr not in self.tainted_fields:
                    self.tainted_fields.add(target.attr)
                    self.changed = True
        # Subscript stores: container taint is out of scope (out= and
        # frame writes belong to the secrecy pass).

    # -- sinks ----------------------------------------------------------
    def _visit_expr(self, expr, info, env, findings, reported) -> set[str]:
        origins = self._origins(expr, info, env)
        if findings is not None and expr is not None:
            for node in ast.walk(expr):
                if isinstance(node, ast.Call) and id(node) not in reported:
                    if self._check_call_sinks(node, info, env, findings):
                        reported.add(id(node))
        return origins

    def _check_call_sinks(self, call: ast.Call, info, env, findings) -> bool:
        name = dotted_name(call.func)
        if name in _LOG_SINKS or (
            name is not None and name.split(".")[0] in _LOG_MODULES
        ):
            arguments = list(call.args) + [k.value for k in call.keywords]
            if any(
                self._is_tainted(self._origins(a, info, env), info)
                for a in arguments
            ):
                emit(
                    findings,
                    info.module,
                    "taint/secret-in-log",
                    call,
                    f"{name}() in {info.qualname!r} receives a secret-derived "
                    f"argument ({_snippet(call)}) — logging live secret "
                    "material",
                )
                return True
            return False
        tail = _call_tail(call)
        if (
            tail in _WIRE_SINKS
            and isinstance(call.func, ast.Attribute)
            and call.args
        ):
            payload = call.args[0]
            if not self._is_sanctioned(payload, info) and self._is_tainted(
                self._origins(payload, info, env), info
            ):
                emit(
                    findings,
                    info.module,
                    "taint/secret-to-wire",
                    call,
                    f"{tail}() in {info.qualname!r} ships a secret-derived "
                    f"payload ({_snippet(payload)}) that bypasses the "
                    "sanctioned masking chains",
                )
                return True
        return False


def _tree_functions(index: ProjectIndex) -> list[FunctionInfo]:
    return list(index.by_qualname.values())


def run(modules: list[SourceModule]) -> list[Finding]:
    index = build_index(modules)
    analyzer = _Analyzer(index)
    functions = _tree_functions(index)
    # Phase 1: converge summaries, tainted fields and call-site taint.
    for _ in range(_MAX_ITERATIONS):
        analyzer.changed = False
        for info in functions:
            analyzer.evaluate(info)
        if not analyzer.changed:
            break
    # Phase 2: sink walk over the secrecy scope with converged state.
    findings: list[Finding] = []
    for info in functions:
        if info.module.in_scope(SCOPE):
            analyzer.evaluate(info, findings=findings)
    return findings
