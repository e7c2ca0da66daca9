"""Round-schedule pass: openings match the cost model, the dealer RPC is dual.

The online protocols are written once over a party axis
(:mod:`repro.mpc.protocols`): both parties execute the same ``open_*`` /
``hand`` call on the same line, so the wedges a pair of hand-mirrored
halves could hide — one half pushing a label the other never pulls, both
receiving first, one skipping a round — cannot be written, and this pass
no longer simulates them. What can still drift is checked here, before any
process is spawned:

* **protocols** (``mpc/protocols``) — every function's ordered
  communication trace is extracted with the :mod:`~repro.analysis.dataflow`
  interpreter and cross-checked against :mod:`repro.mpc.costs`: one
  consumed dealer-material item opens exactly one round of that method's
  wire label (``costs.method_wire_labels()``), so a function that
  consumes ``bit_triples`` three times must account three ``and-open``
  openings. The cost model cannot drift from the code;
* **dealer RPC** (``serve/dealer_service.py``) — the client stub and the
  server loop *are* two hand-written halves. They are request-driven, so
  only *label-level* duality is meaningful: every label the client sends
  must be received by the server and vice versa, and the connection
  handshake must open with a matched send/receive pair.

Rules:

``schedule/cost-drift``
    Consumed dealer material does not match the opened rounds of its
    wire label per ``costs.method_wire_labels()``.

``schedule/unresolvable-trace``
    The interpreter cannot extract a faithful ordered trace (data-driven
    loop over communication, a branch whose arms disagree).
    An unprovable schedule is a finding, not a silent skip.

``schedule/missing-receive``
    One side of the dealer RPC sends a label the other never receives.

``schedule/label-mismatch``
    One side of the dealer RPC expects a label the other never sends, or
    the handshake opens with mismatched labels.

``schedule/deadlock``
    Both sides of the dealer handshake open by receiving — the deployed
    processes would hang, not crash.
"""

from __future__ import annotations

import ast
from collections import Counter

from .core import Finding, SourceModule, emit
from .dataflow import (
    MOVEMENT_KINDS,
    CommEvent,
    FunctionInfo,
    ProjectIndex,
    TraceExtractor,
    UnresolvableTrace,
    build_index,
    collect_events,
)

__all__ = [
    "NAME",
    "PROTOCOL_SCOPE",
    "DEALER_SCOPE",
    "run",
    "extract_schedule",
    "method_labels",
]

NAME = "schedule"

#: The online protocols: consumed material vs. accounted openings.
PROTOCOL_SCOPE = ("mpc/protocols",)
#: The dealer RPC: label-set duality between client stub and server loop.
DEALER_SCOPE = ("serve/dealer_service",)


def method_labels() -> dict[str, str]:
    """Dealer method -> wire label, imported lazily (costs pulls numpy)."""
    from repro.mpc.costs import method_wire_labels

    return method_wire_labels()


def _anchor(line: int) -> ast.AST:
    """A synthetic node carrying only a location, for emit()/suppression."""
    node = ast.Pass()
    node.lineno = line
    node.end_lineno = line
    return node


# ----------------------------------------------------------------------
# the cost cross-check
# ----------------------------------------------------------------------
def _check_costs(
    fn: FunctionInfo,
    module: SourceModule,
    trace: list[CommEvent],
    labels: dict[str, str],
    findings: list[Finding],
) -> None:
    """Consumed material items == opened rounds of the method's label.

    Only checked for labels the function consumes material for.
    """
    node = _anchor(fn.node.lineno)
    expected = Counter(
        labels[e.label] for e in trace if e.kind == "consume" and e.label in labels
    )
    observed = Counter(e.label for e in trace if e.kind == "acct")
    for label, count in sorted(expected.items()):
        if observed.get(label, 0) != count:
            emit(
                findings,
                module,
                "schedule/cost-drift",
                node,
                f"{fn.qualname}: consumes material for {count} opening(s) of "
                f"{label!r} but accounts {observed.get(label, 0)} — the "
                "extracted schedule no longer matches costs._METHOD_TRAFFIC",
            )


# ----------------------------------------------------------------------
# per-family audits
# ----------------------------------------------------------------------
def _module_functions(
    module: SourceModule, index: ProjectIndex
) -> list[FunctionInfo]:
    infos = []
    for statement in module.tree.body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info = index.by_qualname.get(f"{module.rel}:{statement.name}")
            if info is not None:
                infos.append(info)
    return infos


def _audit_protocol_module(
    module: SourceModule,
    index: ProjectIndex,
    labels: dict[str, str],
    findings: list[Finding],
) -> None:
    for fn in _module_functions(module, index):
        try:
            trace = TraceExtractor(index).trace(fn)
        except UnresolvableTrace as exc:
            emit(
                findings,
                exc.module,
                "schedule/unresolvable-trace",
                exc.node,
                f"cannot statically extract the communication schedule of "
                f"{fn.qualname!r}: {exc.message}",
            )
            continue
        if trace:
            _check_costs(fn, module, trace, labels, findings)


def _class_events(
    module: SourceModule, index: ProjectIndex, cls: ast.ClassDef
) -> dict[str, list[CommEvent]]:
    """Per-method comm events of one class (same-module transitive)."""
    events: dict[str, list[CommEvent]] = {}
    for item in cls.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info = index.by_qualname.get(f"{module.rel}:{cls.name}.{item.name}")
            if info is not None:
                events[item.name] = collect_events(index, info)
    return events


def _role_labels(
    per_method: dict[str, list[CommEvent]]
) -> tuple[set[str], set[str]]:
    sends: set[str] = set()
    recvs: set[str] = set()
    for events in per_method.values():
        for event in events:
            if event.kind == "send":
                sends.add(event.label)
            elif event.kind == "recv":
                recvs.add(event.label)
    return sends, recvs


def _first_movement(
    per_method: dict[str, list[CommEvent]], names: tuple[str, ...]
) -> CommEvent | None:
    for name in names:
        for event in per_method.get(name, []):
            if event.kind in MOVEMENT_KINDS:
                return event
    return None


def _audit_dealer_module(
    module: SourceModule, index: ProjectIndex, findings: list[Finding]
) -> None:
    """Label-set duality between the RPC stub and the serving loop.

    The dealer's control flow is request-driven — per-branch ordering is
    runtime data — so the check is: every label one side sends, the
    other receives (and vice versa), plus strict ordering of the one
    statically-known sequence, the connection handshake.
    """
    clients: list[ast.ClassDef] = []
    servers: list[ast.ClassDef] = []
    for statement in module.tree.body:
        if isinstance(statement, ast.ClassDef):
            if statement.name.endswith("Client"):
                clients.append(statement)
            elif statement.name.endswith("Server"):
                servers.append(statement)
    if not clients or not servers:
        return
    client_events: dict[str, list[CommEvent]] = {}
    for cls in clients:
        client_events.update(_class_events(module, index, cls))
    server_events: dict[str, list[CommEvent]] = {}
    for cls in servers:
        server_events.update(_class_events(module, index, cls))

    client_sends, client_recvs = _role_labels(client_events)
    server_sends, server_recvs = _role_labels(server_events)
    pairs = (
        (client_sends - server_recvs, "schedule/missing-receive",
         "the client sends {label!r} but no server handler receives it"),
        (server_sends - client_recvs, "schedule/missing-receive",
         "the server sends {label!r} but the client stub never receives it"),
        (client_recvs - server_sends, "schedule/label-mismatch",
         "the client expects {label!r} but no server handler sends it"),
        (server_recvs - client_sends, "schedule/label-mismatch",
         "a server handler expects {label!r} but the client stub never "
         "sends it"),
    )
    anchor = _anchor(servers[0].lineno)
    for labels, rule, template in pairs:
        for label in sorted(labels):
            emit(findings, module, rule, anchor, template.format(label=label))

    first_client = _first_movement(client_events, ("_connect", "connect"))
    first_server = _first_movement(
        server_events, ("_serve_connection", "serve_connection")
    )
    if first_client is None or first_server is None:
        return
    if first_client.kind == "recv" and first_server.kind == "recv":
        emit(
            findings,
            module,
            "schedule/deadlock",
            anchor,
            f"handshake deadlock: the client opens by receiving "
            f"{first_client.label!r} while the server opens by receiving "
            f"{first_server.label!r} — neither side speaks first",
        )
    elif (
        first_client.kind != first_server.kind
        and first_client.label != first_server.label
    ):
        emit(
            findings,
            module,
            "schedule/label-mismatch",
            anchor,
            f"handshake mismatch: the client opens with "
            f"{first_client.kind} {first_client.label!r} but the server "
            f"opens with {first_server.kind} {first_server.label!r}",
        )


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def run(modules: list[SourceModule]) -> list[Finding]:
    index = build_index(modules)
    labels = method_labels()
    findings: list[Finding] = []
    for module in modules:
        if module.in_scope(PROTOCOL_SCOPE):
            _audit_protocol_module(module, index, labels, findings)
        if module.in_scope(DEALER_SCOPE):
            _audit_dealer_module(module, index, findings)
    return findings


def _label_counts(labels) -> dict[str, int]:
    return dict(sorted(Counter(labels).items()))


def extract_schedule(modules: list[SourceModule]) -> dict:
    """The full extracted schedule as a JSON-serializable table.

    CI uploads this as an artifact so the protocol schedule — per-function
    event sequences, per-label opening counts, dealer RPC label sets —
    stays reviewable PR over PR without rerunning the analyzer.
    """
    index = build_index(modules)
    labels = method_labels()
    table: dict = {"protocols": {}, "dealer": {}}
    for module in modules:
        if module.in_scope(PROTOCOL_SCOPE):
            for fn in _module_functions(module, index):
                try:
                    trace = TraceExtractor(index).trace(fn)
                except UnresolvableTrace:
                    table["protocols"][fn.qualname] = {"error": "unresolvable"}
                    continue
                if not trace:
                    continue
                consumed = [e.label for e in trace if e.kind == "consume"]
                table["protocols"][fn.qualname] = {
                    "events": [[e.kind, e.label] for e in trace],
                    "consumes": _label_counts(consumed),
                    "opens": _label_counts(
                        e.label for e in trace if e.kind == "acct"
                    ),
                    "expected_opens": _label_counts(
                        labels[method] for method in consumed if method in labels
                    ),
                }
        if module.in_scope(DEALER_SCOPE):
            for statement in module.tree.body:
                if not isinstance(statement, ast.ClassDef):
                    continue
                if not (
                    statement.name.endswith("Client")
                    or statement.name.endswith("Server")
                ):
                    continue
                per_method = _class_events(module, index, statement)
                sends, recvs = _role_labels(per_method)
                table["dealer"][statement.name] = {
                    "sends": sorted(sends),
                    "recvs": sorted(recvs),
                }
    return table
