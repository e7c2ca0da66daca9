"""The four workloads, each driven through the public API only.

Every workload is a closed loop with one caller: the next request is sent
when the previous one has answered. A workload knows how to set itself
up, run its offline phase for a number of requests (``refill``), serve
one timed request, produce the in-process reference its first requests
must equal byte for byte, and tear itself down.
"""

from __future__ import annotations

import json
import select
import time
from dataclasses import dataclass, field

import numpy as np

from repro import nn
from repro.core import C2PIPipeline
from repro.core.noise import NoiseMechanism
from repro.mpc.network import WAN
from repro.mpc.preprocessing import PreprocessingPool, pack_party_bundle, split_bundle
from repro.serve import C2PIServer, RemoteClient, derive_session_seed

from . import common

VERIFIED = 8  # requests (rows, for fused_b8) checked against the reference


@dataclass
class Sample:
    """One request as its caller saw it."""

    wall_s: float
    online_s: float = 0.0
    logits: np.ndarray | None = None  # (rows, classes)
    online_bytes: int = 0  # per row
    rounds: int = 0
    offline_bytes: int = 0  # per row; 0 where no bundle crosses a wire
    failed: str | None = None
    images: np.ndarray | None = None
    extra: dict = field(default_factory=dict)


def new_pipeline(victim, seed: int = common.PROTOCOL_SEED) -> C2PIPipeline:
    return C2PIPipeline(
        victim, common.BOUNDARY, noise_magnitude=common.NOISE, seed=seed
    )


def client_bundle_bytes(program) -> int:
    """Packed size of the client's half of one batch-1 bundle."""
    pool = PreprocessingPool(program, 1, dealer_seed=common.PROTOCOL_SEED)
    return len(pack_party_bundle(split_bundle(pool.acquire_bundle(), 0)))


class Workload:
    name = ""
    rows = 1  # images per request
    chunk_requests = 8
    warm_requests = 2
    smoke_requests = 2  # per chunk under --smoke
    trace_chunks = 4  # in the traced run
    party_peak_rss_mb = 0.0  # of the remote party, if there is one
    party_core = None  # the core it pinned itself to

    def __init__(self, seed: int, tracer=None):
        self.seed = seed
        self.tracer = tracer
        self.setup_parts: dict[str, float] = {}

    def setup(self) -> None:
        start = time.perf_counter()
        self.victim = common.build_victim()
        self.setup_parts["models.build_s"] = time.perf_counter() - start

    def refill(self, requests: int) -> None:
        raise NotImplementedError

    def request(self, images: np.ndarray) -> Sample:
        raise NotImplementedError

    def reference(self, images: list[np.ndarray]) -> list[np.ndarray]:
        """What the first requests must have answered, per request."""
        raise NotImplementedError

    def matches_reference(self, got: np.ndarray, want: np.ndarray) -> bool:
        return got.shape == want.shape and got.tobytes() == want.tobytes()

    def offline_bytes(self, samples: list[Sample]) -> int:
        """Packed client half of one bundle, per row."""
        raise NotImplementedError

    def counters(self) -> dict:
        """Counters that only grow; a chunk reports what they gained."""
        return {}

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
class InProc(Workload):
    name = "inproc_b1"

    def setup(self) -> None:
        super().setup()
        start = time.perf_counter()
        self.pipeline = new_pipeline(self.victim)
        self.setup_parts["mpc.program.compile_s"] = time.perf_counter() - start

    def refill(self, requests: int) -> None:
        self.pipeline.prepare_offline(batch=1, bundles=requests)

    def offline_bytes(self, samples) -> int:
        return client_bundle_bytes(self.pipeline.program)

    def request(self, images: np.ndarray) -> Sample:
        infer = self._traced_infer if self.tracer else self.pipeline.infer
        start = time.perf_counter()
        result = infer(images)
        wall = time.perf_counter() - start
        return Sample(
            wall_s=wall,
            online_s=result.online_s,
            logits=result.logits,
            online_bytes=result.total_bytes,
            rounds=sum(s.rounds for s in result.traffic_by_label.values()),
        )

    def _traced_infer(self, images: np.ndarray):
        """``C2PIPipeline.infer`` taken apart at its layer boundaries.

        Same calls in the same order on the same objects, so the logits
        must equal the untraced run's; the traced run checks that they do.
        """
        pipeline, span = self.pipeline, self.tracer.span
        with span("mpc.preprocessing.acquire"):
            material = pipeline.prepare_offline(batch=1, bundles=0).acquire()
        start = time.perf_counter()
        with span("mpc.engine.run"):
            execution = pipeline.engine.run(images, material=material)
        with span("core.noise.perturb_share"):
            client_share = pipeline.noise.perturb_share(
                execution.shares[0], pipeline.config
            )
        execution.channel.send(0, client_share.nbytes, label="noised-reveal")
        execution.channel.tick_round("noised-reveal")
        with span("mpc.fixedpoint.decode"):
            view = pipeline.config.decode(
                (client_share + execution.shares[1]).astype(np.uint64)
            )
        with span("models.forward_from"), nn.no_grad():
            logits = pipeline.model.forward_from(
                nn.Tensor(view), pipeline.boundary
            ).data
        online_s = time.perf_counter() - start
        return _TracedResult(
            logits, online_s, execution.channel.total_bytes,
            execution.channel.label_breakdown(),
        )

    def reference(self, images):
        """The clear model on the same noised activation: the secure path
        may differ from it by fixed-point rounding only."""
        noise = NoiseMechanism(common.NOISE, seed=common.PROTOCOL_SEED)
        out = []
        with nn.no_grad():
            for image in images:
                hidden = self.victim.forward_to(nn.Tensor(image), common.BOUNDARY).data
                out.append(
                    self.victim.forward_from(
                        nn.Tensor(noise.perturb(hidden)), common.BOUNDARY
                    ).data
                )
        return out

    def matches_reference(self, got, want) -> bool:
        # 2 % of a logit range of ~5; fixed-point error measures ~1e-3.
        return got.shape == want.shape and bool(np.allclose(got, want, atol=0.02))


@dataclass
class _TracedResult:
    logits: np.ndarray
    online_s: float
    total_bytes: int
    traffic_by_label: dict


# ----------------------------------------------------------------------
class Remote(Workload):
    """``RemoteClient.infer`` against a ``RemoteServer`` child process."""

    network = None
    shm = False

    def setup(self) -> None:
        super().setup()
        start = time.perf_counter()
        self.proc = common.spawn("party_server.py", pipe_stdin=True)
        try:
            hello = self._read_reply()
            self.setup_parts["serve.remote.spawn_s"] = time.perf_counter() - start
            start = time.perf_counter()
            self.client = RemoteClient(
                "127.0.0.1",
                hello["port"],
                noise_magnitude=common.NOISE,
                seed=common.PROTOCOL_SEED,
                network=self.network,
                timeout=common.REQUEST_TIMEOUT_S,
                shm=self.shm,
            )
            self.setup_parts["serve.remote.handshake_s"] = time.perf_counter() - start
        except BaseException:
            self._stop_child()
            raise
        self.party_core = hello["core"]

    def _read_reply(self) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError(f"{self.name}: the server child did not answer")
        return json.loads(line)

    def _ask(self, line: str) -> dict:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        return self._read_reply()

    def refill(self, requests: int) -> None:
        self._ask(f"warm {requests}")

    def offline_bytes(self, samples) -> int:
        return max(sample.offline_bytes for sample in samples)

    def counters(self) -> dict:
        party = self._ask("stats")
        self.party_peak_rss_mb = party["peak_rss_mb"]
        out = {"party_cpu_s": party["cpu_s"]}
        transport = self.client.transport  # None after a failed request
        if transport is not None:
            wire = transport.stats
            out["frames"] = wire.frames_sent + wire.frames_received
            out["bytes_copied"] = wire.bytes_copied
            out["framing_overhead_bytes"] = wire.framing_overhead
        return out

    def request(self, images: np.ndarray) -> Sample:
        start = time.perf_counter()
        reply = self.client.infer(images)
        end = time.perf_counter()
        if self.tracer:
            # The caller can time only the call; the phases inside it are
            # laid out from what the reply reports.
            online_from = end - reply.online_s
            self.tracer.add("serve.remote.bundle_ship", start, online_from)
            self.tracer.add("serve.remote.client_online", online_from, end)
            self.tracer.add(
                "serve.remote.server_acquire", start, start + reply.server["offline_s"]
            )
            self.tracer.add(
                "serve.remote.server_online", online_from,
                online_from + reply.server["online_s"],
            )
        return Sample(
            wall_s=end - start,
            online_s=reply.online_s,
            logits=reply.logits,
            online_bytes=reply.traffic.total_bytes,
            rounds=reply.traffic.rounds,
            offline_bytes=reply.offline_bytes,
            failed=None if reply.bytes_match else "socket payload != accounting",
            extra={
                "server_online_s": reply.server["online_s"],
                "server_acquire_s": reply.server["offline_s"],
                "modeled_wan_s": WAN.latency_of(reply.traffic),
            },
        )

    def reference(self, images):
        pipeline = new_pipeline(self.victim)
        pipeline.prepare_offline(batch=1, bundles=len(images))
        return [pipeline.infer(image).logits for image in images]

    def _stop_child(self) -> None:
        try:
            self.proc.stdin.write("stop\n")
            self.proc.stdin.flush()
        except (BrokenPipeError, ValueError):
            pass  # already gone
        common.reap(self.proc)

    def close(self) -> None:
        try:
            self.client.close()
        finally:
            self._stop_child()


class Socket(Remote):
    name = "socket_b1"
    # Half the default: on the reference box, twice as many chunks to pick
    # the best from halved the run-to-run spread when the host was slow.
    chunk_requests = 4
    trace_chunks = 8


class Wan(Remote):
    name = "wan_b1"
    network = WAN
    chunk_requests = 4
    warm_requests = 1
    smoke_requests = 1


class Shm(Socket):
    """``socket_b1``'s stream over shared memory; traced run only."""

    name = "shm_b1"
    shm = True


# ----------------------------------------------------------------------
class Fused(Workload):
    name = "fused_b8"
    rows = 8
    chunk_requests = 2
    warm_requests = 1
    smoke_requests = 1

    def setup(self) -> None:
        super().setup()
        start = time.perf_counter()
        self.server = C2PIServer(
            self.victim,
            common.BOUNDARY,
            noise_magnitude=common.NOISE,
            seed=common.PROTOCOL_SEED,
            max_batch=self.rows,
            warm_bundles=0,
        )
        self.setup_parts["mpc.program.compile_s"] = time.perf_counter() - start
        self.sessions = [f"bench-{self.seed}-{row}" for row in range(self.rows)]

    def refill(self, requests: int) -> None:
        self.server.warm_sessions(self.sessions, bundles=requests)

    def offline_bytes(self, samples) -> int:
        return client_bundle_bytes(self.server.program)

    def request(self, images: np.ndarray) -> Sample:
        metrics = self.server.metrics
        bytes_before, rounds_before = metrics.online_bytes, metrics.online_rounds
        start = time.perf_counter()
        for image, session in zip(images, self.sessions):
            self.server.submit(image, session=session)
        if self.tracer:
            with self.tracer.span("serve.server.step"):
                replies = self.server.step()
        else:
            replies = self.server.step()
        wall = time.perf_counter() - start
        return Sample(
            wall_s=wall,
            online_s=replies[0].online_s,
            logits=np.stack([reply.logits for reply in replies]),
            online_bytes=(metrics.online_bytes - bytes_before) // self.rows,
            rounds=metrics.online_rounds - rounds_before,
            failed=None if len(replies) == self.rows else "step served a short batch",
            extra={
                "queued_s": float(np.mean([reply.queued_s for reply in replies])),
                "batch_rows": float(np.mean([reply.batch_size for reply in replies])),
            },
        )

    def reference(self, images):
        """Each session alone on its own pipeline, first step only."""
        rows = []
        for image, session in zip(images[0], self.sessions):
            pipeline = new_pipeline(
                self.victim, derive_session_seed(common.PROTOCOL_SEED, session)
            )
            pipeline.prepare_offline(batch=1, bundles=1)
            rows.append(pipeline.infer(image[None]).logits[0])
        return [np.stack(rows)]


WORKLOADS = {cls.name: cls for cls in (InProc, Socket, Wan, Fused)}
