"""Serve C2PI inferences from warm offline pools: compile once, serve many.

The PI protocols C2PI builds on (Delphi, Cheetah) split inference into an
offline preprocessing phase and a cheap online phase. This walkthrough
shows the reproduction doing the same:

1. compile a ResNet-20 crypto segment into a ``SecureProgram`` (typed ops
   with pre-folded batch norms and pre-encoded ring weights);
2. pre-generate pools of correlated randomness for the program —
   the offline phase;
3. serve a queue of requests through ``C2PIServer``, which coalesces them
   into batched secure executions that only *consume* pooled material,
   and read the offline/online split off ``C2PIServer.snapshot()``.

Run:  python examples/serving.py
"""

import numpy as np

from repro import nn
from repro.models import resnet20
from repro.mpc import compile_program
from repro.serve import C2PIServer

BOUNDARY = 3.5  # stem conv + the first residual block under crypto
REQUESTS = 8
BATCH = 4


def _demo_model():
    rng = np.random.default_rng(0)
    model = resnet20(width_mult=0.25, rng=rng).eval()
    # Give batch norms non-trivial inference statistics so folding matters.
    for module in model.modules():
        if isinstance(module, nn.BatchNorm2d):
            module.running_mean[:] = rng.normal(0, 0.2, module.num_features)
            module.running_var[:] = rng.uniform(0.5, 2.0, module.num_features)
    return model


def main():
    model = _demo_model()
    images = np.random.default_rng(1).random((REQUESTS, 3, 32, 32), dtype=np.float32)

    print("== the compiled crypto segment ==\n")
    program = compile_program(model, BOUNDARY)
    print(program.describe())
    print(f"\ncrypto-segment MACs per sample: {program.total_macs():,}")

    print("\n== one server, warm pools, batched queue ==\n")
    server = C2PIServer(model, BOUNDARY, noise_magnitude=0.1, max_batch=BATCH,
                        warm_bundles=REQUESTS // BATCH)
    for i in range(REQUESTS):
        server.submit(images[i])
    print(f"queued {server.pending} requests; serving in batches of {BATCH}...")
    replies = server.drain()
    for reply in replies[:3]:
        print(f"  request {reply.request_id}: class {reply.prediction} "
              f"(batch of {reply.batch_size}, online {reply.online_s * 1e3:.1f} ms)")
    snapshot = server.snapshot()
    print(f"...\nserved {snapshot['requests']} requests in "
          f"{snapshot['batches']} secure executions")

    print("\n== the offline/online split ==\n")
    pools = [*snapshot["pools"].values(), *snapshot["session_pools"].values()]
    print(f"offline (pooled ahead of time): {snapshot['offline_s']:.2f} s, "
          f"{sum(p['misses'] for p in pools)} pool misses")
    print(f"online                        : "
          f"{snapshot['amortized_online_s'] * 1e3:8.1f} ms/inference, "
          f"{snapshot['online_bytes'] / 1e6:.2f} MB in "
          f"{snapshot['online_rounds']} rounds")

    print("\nwhere the online bytes go (per-label channel breakdown):")
    for label, bucket in list(snapshot["traffic_by_label"].items())[:5]:
        print(f"  {label:<22} {bucket['bytes'] / 1e3:10.1f} KB in "
              f"{bucket['messages']} messages")

if __name__ == "__main__":
    main()
