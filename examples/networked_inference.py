"""Two-process private inference over a real TCP socket.

Everything the in-process engine reports about "network traffic" is
accounting; this walkthrough makes it physical. It spawns an actual
server process (``c2pi serve``), connects a :class:`RemoteClient` to it
over loopback TCP, and runs the full C2PI flow between the two
processes:

1. **handshake** — the server ships a weight-free program manifest (op
   kinds and shapes; the model never leaves the server);
2. **offline phase** — the server generates a preprocessing bundle,
   splits it, and ships the client's half: in-band for a connection's
   first request, then one request ahead — behind each reply, while its
   pool has a bundle ready — so a later request is ``req`` + online;
3. **online phase** — both party engines execute the compiled program
   over the socket (every protocol message is a real length-prefixed
   frame);
4. **reveal + clear phase** — the client noises and reveals its boundary
   share; the server runs the clear layers and returns the logits.

The walkthrough then verifies the deployment invariants: the logits are
byte-identical to the in-process engine under the same seeds, and the
bytes measured on the socket equal the protocol's channel accounting.
A final shaped connection emulates the paper's LAN setting (token-bucket
bandwidth + injected RTT — no ``tc`` needed) and compares the measured
wall clock with the cost model's prediction for the same run.

Run:  python examples/networked_inference.py
"""

import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
BOUNDARY = 3.5
SEED = 5


def _start_server(warm: int = 0) -> tuple[subprocess.Popen, int]:
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--listen", "127.0.0.1:0",
            "--arch", "resnet20", "--untrained-width", "0.25",
            "--model-seed", "0", "--boundary", str(BOUNDARY),
            "--seed", str(SEED), "--warm", str(warm), "--once",
        ],
        stdout=subprocess.PIPE,
        text=True,
        cwd=REPO,
    )
    line = proc.stdout.readline()
    match = re.search(r"listening on [\d.]+:(\d+)", line)
    if not match:
        proc.kill()
        proc.stdout.close()
        raise RuntimeError(f"server did not announce a port: {line!r}")
    return proc, int(match.group(1))


def main():
    from repro.core import C2PIPipeline
    from repro.mpc import LAN
    from repro.serve.remote import RemoteClient, _demo_victim

    rng = np.random.default_rng(7)
    image, *more = rng.random((3, 1, 3, 32, 32), dtype=np.float32)

    print("== in-process reference (both parties in one address space) ==\n")
    victim = _demo_victim("resnet20", 0.25, 0)
    pipeline = C2PIPipeline(victim, BOUNDARY, noise_magnitude=0.1, seed=SEED)
    pipeline.prepare_offline(batch=1, bundles=1)
    reference = pipeline.infer(image)
    print(f"prediction {int(reference.prediction[0])}, "
          f"{reference.total_bytes / 1e6:.2f} MB accounted over "
          f"{reference.crypto_rounds + 1} rounds")

    print("\n== the same inference, as two actual processes ==\n")
    proc, port = _start_server(warm=3)
    try:
        client = RemoteClient("127.0.0.1", port, noise_magnitude=0.1, seed=SEED)
        print(f"handshake: server model {client.server_model}, "
              f"boundary {client.boundary}, weight-free manifest with "
              f"{len(client.manifest['ops'])} ops")
        replies = []
        for request in (image, *more):
            start = time.perf_counter()
            replies.append(client.infer(request))
            wall_s = time.perf_counter() - start
            print(f"request {len(replies) - 1}: "
                  f"{replies[-1].online_s * 1e3:.1f} ms online, "
                  f"request - online {(wall_s - replies[-1].online_s) * 1e3:.1f} ms "
                  f"({replies[-1].offline_bytes:,} B offline bundle "
                  f"{'shipped ahead' if replies[-1].prefetched else 'in-band'})")
        reply = replies[0]
        client.close()
    finally:
        proc.wait(timeout=120)
        proc.stdout.close()

    print(f"prediction {int(reply.prediction[0])}")
    identical = np.array_equal(reply.logits, reference.logits)
    print(f"logits byte-identical to the in-process engine: {identical}")
    print(f"socket payload {reply.measured_payload_bytes / 1e6:.2f} MB == "
          f"channel accounting {reply.traffic.total_bytes / 1e6:.2f} MB: "
          f"{reply.bytes_match}")

    print("\n== measured vs modeled under LAN shaping ==\n")
    proc, port = _start_server()
    try:
        client = RemoteClient(
            "127.0.0.1", port, noise_magnitude=0.1, seed=SEED, network=LAN
        )
        shaped = client.infer(image)
        client.close()
    finally:
        proc.wait(timeout=120)
        proc.stdout.close()
    modeled = LAN.latency_of(shaped.traffic, compute_s=reply.online_s)
    print(f"measured {shaped.online_s:.3f} s vs modeled {modeled:.3f} s "
          f"(x{shaped.online_s / modeled:.2f}) for "
          f"{shaped.traffic.total_bytes / 1e6:.2f} MB "
          f"in {shaped.traffic.rounds} rounds")
    print("\nthe wire is real; the model now has a measurement to answer to.")


if __name__ == "__main__":
    sys.exit(main() or 0)
