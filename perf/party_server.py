"""The benchmark's remote party: one child process.

Default mode builds the victim and a ``RemoteServer`` on an ephemeral
port, prints ``{"port": ...}`` and then obeys lines on stdin:

``warm N``  refill the anonymous batch-1 pool with N bundles (the offline
            phase), reply ``{"warm_s": ...}``
``stats``   reply with this process's CPU seconds, peak RSS and counters
``stop``    drain and exit (end of input does the same)

``--echo`` mode is the transport probe's peer instead: every accepted
connection sends one order ``{"size", "count", "shm"}`` and gets that many
``swap`` rounds of ``size`` bytes back, over the socket or, with ``shm``,
over shared-memory rings negotiated on that socket.
"""

from __future__ import annotations

import sys
from pathlib import Path

# Run as a script, import as a package: the script's own directory would
# put perf/trace.py in front of the standard library's trace module.
ROOT = Path(__file__).resolve().parents[1]
sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

import json  # noqa: E402
import resource  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

from perf import common  # noqa: E402


def say(reply: dict) -> None:
    print(json.dumps(reply), flush=True)


def serve(core: int | None) -> None:
    from repro.serve import RemoteServer

    server = RemoteServer(
        common.build_victim(),
        common.BOUNDARY,
        seed=common.PROTOCOL_SEED,
        request_timeout=common.REQUEST_TIMEOUT_S,
    )
    loop = threading.Thread(target=server.serve_forever, daemon=True)
    loop.start()
    say({"port": server.port, "core": core})
    try:
        for line in sys.stdin:
            words = line.split()
            if not words:
                continue
            if words[0] == "warm":
                start = time.perf_counter()
                server.warm(1, int(words[1]))
                say({"warm_s": time.perf_counter() - start})
            elif words[0] == "stats":
                say(
                    {
                        "cpu_s": time.process_time(),
                        "peak_rss_mb": resource.getrusage(
                            resource.RUSAGE_SELF
                        ).ru_maxrss
                        / 1024.0,
                        "requests_served": server.requests_served,
                    }
                )
            elif words[0] == "stop":
                break
    finally:
        server.stop(timeout=common.CHILD_GRACE_S)
        loop.join(timeout=common.CHILD_GRACE_S)
        common.stop_resource_tracker()


def echo(core: int | None) -> None:
    from repro.mpc.shm import ShmChannel
    from repro.mpc.transport import PeerChannel

    listener = PeerChannel.listen()
    # An orphaned probe peer must not wait for a connection for ever.
    listener.settimeout(common.REQUEST_TIMEOUT_S)
    say({"port": listener.getsockname()[1], "core": core})
    try:
        while True:
            carrier = PeerChannel.accept(listener, timeout=common.REQUEST_TIMEOUT_S)
            link = carrier
            try:
                order = carrier.recv_obj("order")
                if order.get("stop"):
                    return
                if order["shm"]:
                    link, grant = ShmChannel.serve(carrier)
                    carrier.send_obj(grant, "grant")
                payload = bytes(order["size"])
                for _ in range(order["count"]):
                    link.swap(payload, "ping")
            finally:
                link.close()  # a ShmChannel closes its carrier too
    finally:
        listener.close()
        common.stop_resource_tracker()


def main() -> int:
    core = common.pin()
    if "--echo" in sys.argv[1:]:
        echo(core)
    else:
        serve(core)
    return 0


if __name__ == "__main__":
    sys.exit(main())
