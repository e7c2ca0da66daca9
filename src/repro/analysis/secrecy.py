"""Secret-flow taint pass: shares reach the wire only through sanitizers.

The crypto-clear split stays private because every byte that crosses the
process boundary is either (a) a fresh additive/XOR share — uniformly
distributed on its own — or (b) a protocol value masked by dealer
randomness before the reveal (the Beaver ``d = x - a`` / ``e = y - b``
openings, the comparison circuit's ``z = x + r`` masked reveal). The
runtime byte-identity tests exercise this on the paths they run; this
pass checks it on *every* wire sink in the protocol layer.

Model (function-local, provenance-based): for each payload expression
handed to a wire sink — the placement's openings (``open_add`` /
``open_xor`` / ``open_bits``), the raw movement calls (``push`` /
``push_deferred`` / ``swap``) —
walk its definition chain and require a *sanctioned* producer:

* ``io.stage(...)`` — packed-word staging; by contract its input is a
  pre-masked/share value;
* an opening frame (``frame`` / ``alloc_words`` / ``alloc_frame``)
  whose every in-place write (``out=``, subscript store, ``np.copyto``)
  mixes in a mask operand — dealer-material attribute (``triple.a``,
  ``mask.r``, ``correlation.mask``) or a uniform ring draw
  (``random_ring`` / ``rng.integers``);
* an expression that itself mixes in a mask operand
  (``b ^ dabit.boolean``);
* a share freshly split by ``share_additive`` / ``share_boolean`` /
  ``share_boolean_words`` (one share alone is uniform).

``hand(label, shape, fill)`` is the one client-to-server sink: its
``fill`` must be a lambda whose body writes ``out=`` its argument with a
mask operand. The ``noised-reveal`` message is the paper's one deliberate
declassification — the client's boundary share leaves *un*masked, bounded
noise added — so its fill is held to its own rule: what it writes must
come out of ``perturb_share``, and nothing else (a mask operand included)
clears it.

Anything else — a bare parameter, an unmasked intermediate, an unknown
call — is flagged: it may be exactly the secret the protocol exists to
hide. Taint-preserving wrappers (``memoryview(...).cast``, ``bytes``,
``pack_bits``, ``np.ascontiguousarray``) are looked through.

A second rule bans ``print`` / ``logging`` in the protocol layer
outright: a debug print of a live share is the classic leak, and the
protocol modules have no legitimate console output.

A third keeps the dealer's two streams apart (``mpc/dealer.py``): every
splitter's free row and both client fields of a linear correlation must be
draws from the bundle's *client stream*, and such a draw lands nowhere else.
"""

from __future__ import annotations

import ast

from .core import Finding, SourceModule, dotted_name, emit

__all__ = ["NAME", "SCOPE", "run"]

NAME = "secrecy"

# The modules where share-typed values live: the protocol layer and the
# C2PI flow on top of it (core/c2pi.py reveals the boundary share).
# serve/remote.py and the transport are byte movers — they only ever see
# already-staged buffers — but the crypto-producer service
# (serve/dealer_service.py) *creates* material and ships it as blobs, so
# its dealer-bound frames are audited like protocol sinks.
SCOPE = (
    "mpc/protocols",
    "mpc/dealer.py",
    "mpc/engine.py",
    "mpc/party.py",
    "core/c2pi.py",
    "serve/dealer_service.py",
)

# Payload-moving sink methods and the argument that is the payload.
# send_blob is the dealer service's bundle sink: in scope its payload
# must come from a sealed-bundle producer (see _SEALED_CALLS).
_SINKS = {
    "open_add": 0,
    "open_xor": 0,
    "open_bits": 0,
    "push": 0,
    "push_deferred": 0,
    "swap": 0,
    "send_blob": 0,
}
# The client-to-server message sink and the argument that writes it.
_FILL_SINKS = {"hand": 2}
# Declassifying labels: the one call whose result their fill may write.
_DECLASSIFIERS = {"noised-reveal": "perturb_share"}

# Producers whose result is cleared for the wire as-is.
_STAGING_CALLS = {"stage"}
# Sealed-bundle producers: per-party material laid out by
# party_bundle_segments / pack_party_bundle (each half is individually
# uniform; both refuse a joint bundle), and the dealer reply sealer that
# selects/blanks record fields for one requester. These are the only
# sanctioned sources for a dealer-bound blob frame.
_SEALED_CALLS = {"party_bundle_segments", "pack_party_bundle", "_seal_reply"}
# Frame allocators: contents must be written via masked ops.
_ALLOCATORS = {"frame", "alloc_words", "alloc_frame"}
# Splitting a secret yields two individually-uniform shares.
_SHARE_SPLITTERS = {"share_additive", "share_boolean", "share_boolean_words"}
# Content-preserving wrappers the checker looks through.
_WRAPPERS = {"memoryview", "bytes", "pack_bits", "ascontiguousarray"}
# Mask-producing calls: uniform draws that blind whatever they touch.
_MASK_CALLS = {"random_ring", "integers", "next"}

_LOG_SINKS = {"print"}
_LOG_MODULES = {"logging", "logger", "log"}

_DEALER_SCOPE = ("mpc/dealer.py",)
# How dealer code names a bundle's client stream, and a raw draw.
_CLIENT_STREAMS = {"client_stream", "_client"}
_RAW_DRAWS = {"_random_ring", "random_ring", "random_lanes", "random_bits", "integers"}
_PARTY0_FIELDS = {"mask", "client_offset"}


def _call_tail(node: ast.Call) -> str | None:
    """The final attribute/function name of a call (``io.stage`` -> stage)."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


class _FunctionFacts:
    """Single-pass collection of a function's local definitions."""

    def __init__(self, fn: ast.FunctionDef | ast.AsyncFunctionDef):
        self.fn = fn
        self.params = {arg.arg for arg in fn.args.args}
        self.params.update(arg.arg for arg in fn.args.kwonlyargs)
        if fn.args.vararg:
            self.params.add(fn.args.vararg.arg)
        self.assigns: dict[str, ast.expr] = {}
        # name -> set of sibling names from one tuple-unpacked allocator
        self.alloc_groups: dict[str, set[str]] = {}
        self.writes: list[ast.Call] = []  # calls carrying an out= kwarg
        self.stores: list[tuple[str, ast.expr, ast.AST]] = []  # subscript stores
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                self._record_assign(node)
            elif isinstance(node, ast.Call):
                if any(kw.arg == "out" for kw in node.keywords):
                    self.writes.append(node)
                tail = _call_tail(node)
                if tail == "copyto" and len(node.args) >= 2:
                    target = node.args[0]
                    if isinstance(target, ast.Name):
                        self.stores.append((target.id, node.args[1], node))

    def _record_assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Name):
                self.assigns[target.id] = node.value
            elif isinstance(target, ast.Tuple) and isinstance(node.value, ast.Call):
                tail = _call_tail(node.value)
                if tail in _ALLOCATORS:
                    names = {
                        element.id
                        for element in target.elts
                        if isinstance(element, ast.Name)
                    }
                    for name in names:
                        self.alloc_groups[name] = names
            elif isinstance(target, ast.Subscript) and isinstance(
                target.value, ast.Name
            ):
                self.stores.append((target.value.id, node.value, node))


def _unwrap(expr: ast.expr, facts: _FunctionFacts, depth: int = 0) -> ast.expr:
    """Strip content-preserving wrappers and name indirection."""
    while depth < 12:
        depth += 1
        if isinstance(expr, ast.Call):
            tail = _call_tail(expr)
            if tail == "cast" and isinstance(expr.func, ast.Attribute):
                expr = expr.func.value  # memoryview(x).cast("B") -> memoryview(x)
                continue
            if tail in _WRAPPERS and expr.args:
                expr = expr.args[0]
                continue
            return expr
        if isinstance(expr, ast.Name) and expr.id in facts.assigns:
            if _is_alloc_chain(facts.assigns[expr.id]):
                return expr  # a named frame: its in-place writes get audited
            expr = facts.assigns[expr.id]
            continue
        return expr
    return expr


def _is_alloc_chain(expr: ast.expr) -> bool:
    """``io.alloc_words(...)`` possibly followed by ``.reshape(...)`` etc."""
    while True:
        if isinstance(expr, ast.Call):
            tail = _call_tail(expr)
            if tail in _ALLOCATORS:
                return True
            if tail in {"reshape", "view", "astype"} and isinstance(
                expr.func, ast.Attribute
            ):
                expr = expr.func.value
                continue
        if isinstance(expr, ast.Subscript):
            expr = expr.value
            continue
        return False


def _is_mask_operand(expr: ast.expr, facts: _FunctionFacts) -> bool:
    """Does this operand blind the value it is combined with?

    Dealer material arrives as attribute access on a material record
    (``triple.a``, ``mask.r``, ``correlation.mask``, ``dabit.boolean``)
    — in the protocol layer *any* attribute operand is a material read,
    since protocol functions are free functions over arrays and records.
    Fresh uniform draws (``random_ring``, ``rng.integers``) and names
    bound to either also qualify.
    """
    if isinstance(expr, ast.Attribute):
        return True
    if isinstance(expr, ast.Call):
        tail = _call_tail(expr)
        if tail in _MASK_CALLS:
            return True
    if isinstance(expr, ast.Name):
        defn = facts.assigns.get(expr.id)
        if defn is not None and defn is not expr:
            return _is_mask_operand(defn, facts)
    if isinstance(expr, ast.BinOp):
        return _is_mask_operand(expr.left, facts) or _is_mask_operand(
            expr.right, facts
        )
    return False


def _alias_set(name: str, facts: _FunctionFacts) -> set[str]:
    """Every local name viewing the same allocated frame."""
    aliases = set(facts.alloc_groups.get(name, {name}))
    grew = True
    while grew:
        grew = False
        for other, defn in facts.assigns.items():
            if other in aliases:
                continue
            base = defn
            while isinstance(base, (ast.Subscript, ast.Attribute, ast.Call)):
                if isinstance(base, ast.Call):
                    if not isinstance(base.func, ast.Attribute):
                        break
                    base = base.func.value
                else:
                    base = base.value
            if isinstance(base, ast.Name) and base.id in aliases:
                aliases.add(other)
                grew = True
    return aliases


def _unsanitized_frame_writes(
    name: str, facts: _FunctionFacts
) -> list[ast.AST]:
    """In-place writes into an allocated frame that carry no mask."""
    aliases = _alias_set(name, facts)
    offending: list[ast.AST] = []
    for call in facts.writes:
        out = next(kw.value for kw in call.keywords if kw.arg == "out")
        target = out
        while isinstance(target, ast.Subscript):
            target = target.value
        if not (isinstance(target, ast.Name) and target.id in aliases):
            continue
        if not any(_is_mask_operand(arg, facts) for arg in call.args):
            offending.append(call)
    for target_name, value, node in facts.stores:
        if target_name in aliases and not _is_mask_operand(value, facts):
            offending.append(node)
    return offending


def _check_payload(
    payload: ast.expr,
    facts: _FunctionFacts,
    module: SourceModule,
    sink: ast.Call,
    findings: list[Finding],
) -> None:
    resolved = _unwrap(payload, facts)

    if isinstance(resolved, ast.BinOp) and _is_mask_operand(resolved, facts):
        return  # blinded in the expression itself (b ^ dabit.boolean)

    if isinstance(resolved, ast.Call):
        tail = _call_tail(resolved)
        if tail in _STAGING_CALLS:
            return  # io.stage(...): staged through the pool, pre-masked
        if tail in _SEALED_CALLS:
            return  # sealed party bundle: sanctioned dealer-bound sink
        if _is_alloc_chain(resolved):
            # Direct push of an anonymous frame: nothing was written into
            # it locally, so its content is pool scratch — harmless.
            return
        if tail in _SHARE_SPLITTERS:
            return
        emit(
            findings,
            module,
            "secrecy/unsanitized-sink",
            sink,
            f"payload produced by unvetted call {tail!r} reaches the wire "
            "without an allowlisted sanitizer (stage / masked frame / "
            "share split)",
        )
        return

    if isinstance(resolved, ast.Name):
        name = resolved.id
        defn = facts.assigns.get(name)
        if name in facts.alloc_groups or (
            defn is not None and _is_alloc_chain(defn)
        ):
            for write in _unsanitized_frame_writes(name, facts):
                emit(
                    findings,
                    module,
                    "secrecy/unsanitized-sink",
                    write,
                    f"wire frame {name!r} is written without a mask operand "
                    "before being pushed — a raw (unblinded) value would "
                    "cross the process boundary",
                )
            return
        if defn is not None:
            resolved_def = _unwrap(defn, facts)
            if isinstance(resolved_def, ast.Call):
                _check_payload(resolved_def, facts, module, sink, findings)
                return
        if name in facts.params:
            emit(
                findings,
                module,
                "secrecy/unsanitized-sink",
                sink,
                f"parameter {name!r} of {facts.fn.name!r} flows to the wire "
                "unmasked",
            )
            return
    emit(
        findings,
        module,
        "secrecy/unsanitized-sink",
        sink,
        f"cannot establish sanitized provenance for wire payload in "
        f"{facts.fn.name!r}",
    )


def _check_fill(
    fill: ast.expr,
    facts: _FunctionFacts,
    module: SourceModule,
    sink: ast.Call,
    findings: list[Finding],
) -> None:
    """``hand``'s writer: ``lambda out: np.op(..., mask operand, out=out)``.

    Under a declassifying label every written operand must instead be the
    declassifier's result (or a list / comprehension of them).
    """
    label = next(
        (kw.value for kw in sink.keywords if kw.arg == "label"),
        sink.args[0] if sink.args else None,
    )
    declassifier = _DECLASSIFIERS.get(getattr(label, "value", None))
    if isinstance(fill, ast.Lambda) and isinstance(fill.body, ast.Call):
        write = fill.body
        out = next((kw.value for kw in write.keywords if kw.arg == "out"), None)
        params = [arg.arg for arg in fill.args.args]
        if declassifier is None:
            cleared = any(_is_mask_operand(arg, facts) for arg in write.args)
        else:
            cleared = bool(write.args) and all(
                _is_result_of(arg, declassifier) for arg in write.args
            )
        if isinstance(out, ast.Name) and params == [out.id] and cleared:
            return
    wanted = f"{declassifier}(...) results only" if declassifier else "<mask operand>"
    emit(
        findings,
        module,
        "secrecy/unsanitized-sink",
        sink,
        f"message handed to the server in {facts.fn.name!r} is not written "
        f"as `lambda out: op(..., {wanted}, out=out)` — a raw "
        "(unblinded) value would cross the process boundary",
    )


def _is_result_of(expr: ast.expr, producer: str) -> bool:
    """``producer(...)`` itself, or a list / comprehension of such calls."""
    if isinstance(expr, ast.ListComp):
        return _is_result_of(expr.elt, producer)
    if isinstance(expr, ast.List):
        return bool(expr.elts) and all(_is_result_of(e, producer) for e in expr.elts)
    return isinstance(expr, ast.Call) and _call_tail(expr) == producer


def _audit_function(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
    module: SourceModule,
    findings: list[Finding],
) -> None:
    facts = _FunctionFacts(fn)
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        if func.attr in _SINKS and node.args:
            _check_payload(node.args[_SINKS[func.attr]], facts, module, node, findings)
        elif func.attr in _FILL_SINKS:
            index = _FILL_SINKS[func.attr]
            fill = next(
                (kw.value for kw in node.keywords if kw.arg == "fill"),
                node.args[index] if len(node.args) > index else None,
            )
            if fill is not None:
                _check_fill(fill, facts, module, node, findings)


def _from_client_stream(expr: ast.expr | None, facts: _FunctionFacts) -> bool:
    expr = _unwrap(expr, facts) if expr is not None else None
    if isinstance(expr, ast.Call):
        return _call_tail(expr) in _CLIENT_STREAMS
    return isinstance(expr, ast.Attribute) and expr.attr in _CLIENT_STREAMS


def _audit_streams(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
    module: SourceModule,
    findings: list[Finding],
) -> None:
    """The dealer's stream discipline (see the module docstring)."""
    facts = _FunctionFacts(fn)

    def flag(node: ast.AST, why: str) -> None:
        emit(findings, module, "secrecy/stream-mix", node, f"in {fn.name!r}, {why}")

    calls = [node for node in ast.walk(fn) if isinstance(node, ast.Call)]
    stray = {  # client-stream draws not (yet) seen to land in a party-0 field
        id(call): call
        for call in calls
        if _call_tail(call) in _RAW_DRAWS
        and _from_client_stream(
            call.func.value if isinstance(call.func, ast.Attribute) else call.args[0],
            facts,
        )
    }
    for call in calls:
        if _call_tail(call) in _SHARE_SPLITTERS and not (
            len(call.args) == 2 and _from_client_stream(call.args[1], facts)
        ):
            flag(call, "a splitter's free row is not drawn from the client stream")
        for keyword in call.keywords:
            if keyword.arg in _PARTY0_FIELDS and not stray.pop(
                id(_unwrap(keyword.value, facts)), None
            ):
                flag(keyword.value, f"{keyword.arg!r} is not a client-stream draw")
    for call in stray.values():
        flag(call, "a client-stream draw lands outside party 0's rows")


def _audit_logging(module: SourceModule, findings: list[Finding]) -> None:
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name in _LOG_SINKS or (
            name is not None and name.split(".")[0] in _LOG_MODULES
        ):
            emit(
                findings,
                module,
                "secrecy/print-in-protocol",
                node,
                f"{name}() in the protocol layer — console/log output can "
                "leak live shares; protocol modules must not print",
            )


def run(modules: list[SourceModule]) -> list[Finding]:
    findings: list[Finding] = []
    for module in modules:
        if not module.in_scope(SCOPE):
            continue
        _audit_logging(module, findings)
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                _audit_function(node, module, findings)
                if module.in_scope(_DEALER_SCOPE):
                    _audit_streams(node, module, findings)
    return findings
