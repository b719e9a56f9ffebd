"""The three workloads: set-up, warm-up, measured phase, correctness gate.

``solo-cold``
    Closed loop, one caller, ``repro.core.api.solve`` on distinct
    gravity-family problems; the three diagonal kinds rotate at sizes of
    equal cost.  The sweeps own the time; journal, wire, edge and cluster
    are idle.
``service-wal``
    Closed loop, one caller (submit one, then drain) on an embedded
    ``SolveService`` with the write-ahead journal on (``fsync=1``, ids
    derived by the service) and warm starts on, over 8 elastic n=160
    families revisited with small drift.  Journaling costs more than the
    warm solve here.
``edge-net``
    Open loop (stratified Poisson at a fixed rate), 2 connections, to an
    in-process ``EdgeServer`` in front of
    ``ClusterService(shard_backend="net")``
    with one ``shard-serve`` child that journals with ``--fsync 1`` and
    ships into a router-side replica; 16 fixed-totals families of n=12.
    Edge parsing and encoding, routing, the net transport and two WALs
    own the request.

Each workload's ``setup`` is what ``setup_s`` times, in a fresh
interpreter; everything else here runs in the measurement process.
Every phase also times the ``hostspeed`` reference while the program is
idle, and :func:`report` puts the end-to-end times on its scale.

A traced run of a closed loop alternates untraced and traced blocks of
requests (a block is one turn of the workload's input rotation), so both
see the same mix; the per-layer metrics come from the traced blocks and
their throughput gap is ``trace.overhead_pct``.  The open loop runs an
untraced and then a traced half on the same arrival schedule.
"""

from __future__ import annotations

import asyncio
import json
from collections import Counter
import os
import pathlib
import re
import resource
import subprocess
import sys

import numpy as np

import inputs
import hostspeed
import spans
from hostspeed import HostSpeed
from spans import Patch, Tracer, TracedKernel, clock
from stats import beyond

import repro.cluster.cluster as cluster_module
import repro.edge.server as edge_module
import repro.service.service as service_module
from repro.cluster import ClusterService
from repro.cluster.net import NetShard
from repro.core import api
from repro.core.convergence import StoppingRule
from repro.core.kkt import kkt_violations
from repro.core.problems import ElasticProblem, FixedTotalsProblem
from repro.edge import EdgeServer
from repro.equilibration.backends import backend_versions, get_backend
from repro.equilibration.exact import solve_piecewise_linear
from repro.equilibration.workspace import SweepWorkspace
from repro.service import SolveService
from repro.service.journal import ReplicaJournal
from repro.service.request import SolveRequest

BACKEND = "cnative"

#: Largest accepted constraint residual, relative to the largest total,
#: as a share of the request's ``eps`` (converged solves land ~100x
#: inside it).
RESIDUAL_TOL = 0.1

_STOP = StoppingRule(**inputs.STOP)

# Request indices of warm-up inputs: disjoint from the measured ones.
_WARM = 1_000_000

#: A closed loop reads its peak RSS after this many measured requests,
#: a fixed amount of work.  The service's warm-start cache holds up to
#: 256 entries of ~0.4 MiB at n=160 and fills during the run, so a peak
#: read at the end of a timed run grew with throughput.
RSS_AFTER = 100

#: Host-speed samples after each timed set-up (about 1 ms each).
SETUP_SPEED_SAMPLES = 50


def pinned_backend():
    """The pinned kernel backend, or an error: never a silent fallback."""
    backend = get_backend()
    if backend.name != BACKEND:
        raise RuntimeError(
            f"kernel backend resolved to {backend.name!r}, pinned {BACKEND!r}"
        )
    return backend


# -- correctness gate --------------------------------------------------------------


def _within(residual: float, totals, eps: float) -> bool:
    scale = max(float(np.max(np.abs(totals))), 1.0)
    return bool(np.isfinite(residual)) and residual <= RESIDUAL_TOL * eps * scale


def check_result(problem, result, eps: float) -> bool:
    """Converged, and row and column constraints hold within tolerance
    (``repro.core.kkt`` residuals against the totals the solve used)."""
    if result is None or not result.converged:
        return False
    fixed = type(problem) is FixedTotalsProblem
    s = None if fixed else result.s
    d = result.d if type(problem) is ElasticProblem else None
    v = kkt_violations(problem, result.x, result.lam, result.mu, s=s, d=d)
    totals = problem.s0 if s is None else result.s
    return _within(v["row"], totals, eps) and _within(v["col"], totals, eps)


def check_wire(problem: FixedTotalsProblem, answer: dict, eps: float) -> bool:
    """A decoded edge response: ``ok``, converged, finite, and its matrix
    meets the fixed row and column totals within tolerance."""
    if (
        answer.get("status") != "ok"
        or answer.get("converged") is not True
        or "nonfinite" in answer
        or not isinstance(answer.get("x"), list)
    ):
        return False
    try:
        x = np.asarray(answer["x"], dtype=np.float64)
    except (TypeError, ValueError):
        return False
    if x.shape != problem.shape:
        return False
    row = float(np.max(np.abs(x.sum(1) - problem.s0)))
    col = float(np.max(np.abs(x.sum(0) - problem.d0)))
    return _within(row, problem.s0, eps) and _within(col, problem.d0, eps)


def decode_answer(line) -> dict:
    """One response line as a dict (empty when it is not one)."""
    try:
        obj = json.loads(line)
    except (TypeError, ValueError):
        return {}
    return obj if isinstance(obj, dict) else {}


# -- phases ---------------------------------------------------------------------------


class Phase:
    """Outcome of one measured phase.

    ``plain`` and ``traced`` hold ``(request index, seconds)`` of the
    untraced and traced requests; ``seconds`` is the untraced requests'
    measured time.  ``speed`` holds the host-speed reference timed while
    the program was idle; ``closed`` tells a closed loop, whose
    throughput follows the host's speed, from an open one."""

    def __init__(self, closed: bool = True) -> None:
        self.plain: list[tuple[int, float]] = []
        self.traced: list[tuple[int, float]] = []
        self.attempted = 0
        self.failed = 0
        self.seconds = 0.0
        self.late: list[float] = []  # open loop: send - due
        self.layers: dict = {}
        self.peak_rss: float | None = None  # closed loop: at RSS_AFTER
        self.speed = HostSpeed()
        self.closed = closed

    @property
    def latencies(self) -> list[float]:
        return [dt for _, dt in self.plain]

    @property
    def throughput(self) -> float:
        # Only read for untraced phases, where every request is plain.
        done = len(self.plain) - self.failed
        return done / self.seconds if self.seconds > 0 else 0.0


def closed_loop(step, seconds: float, tracer: Tracer | None = None,
                block: int = 1) -> Phase:
    """One caller: ``step(i, traced)`` returns ``(seconds on the clock,
    ok)``; input generation and checking happen inside ``step`` but off
    its clock.  Runs until the clocked time reaches ``seconds``.  After
    each request, off the clock, the host-speed reference is timed once.
    With a tracer, blocks of ``block`` requests alternate untraced and
    traced."""
    phase = Phase()
    clocked = 0.0
    i = 0
    try:
        while clocked < seconds:
            traced = tracer is not None and (i // block) % 2 == 1
            if tracer is not None:
                tracer.enabled = traced
            dt, ok = step(i, traced)
            clocked += dt
            (phase.traced if traced else phase.plain).append((i, dt))
            phase.attempted += 1
            phase.failed += 0 if ok else 1
            phase.speed.sample()
            i += 1
            if i == RSS_AFTER:
                phase.peak_rss = peak_rss_mib()
    finally:
        if tracer is not None:
            tracer.enabled = False
    phase.seconds = sum(dt for _, dt in phase.plain)
    if tracer is not None:
        plain = sum(dt for _, dt in phase.plain) / max(len(phase.plain), 1)
        traced = sum(dt for _, dt in phase.traced) / max(len(phase.traced), 1)
        phase.layers["trace.overhead_pct"] = 100.0 * (1.0 - plain / traced)
    return phase


def request_span(tracer: Tracer, i: int, traced: bool):
    """The root span of closed-loop request ``i`` (``None`` untraced)."""
    if not traced:
        return None
    root = tracer.open("request")
    root.rid = i
    return root


def sum_self(recorded: list, name: str) -> float:
    selfs = spans.self_times(recorded)
    return sum(selfs[id(s)] for s in recorded if s.name == name)


def median_of(values) -> float:
    values = list(values)
    return float(np.percentile(values, 50)) if values else 0.0


def layer_shares(rows: list[dict]) -> dict:
    """``layer.share``: self seconds over request wall, pooled over
    requests.  Per request, medians over requests:

    ``trace.coverage``
        the share of the wall the program's layers cover.  It is near 1
        by construction: the residual (the ``edge`` remainder of an open
        loop, the outermost program span's self time in a closed loop)
        absorbs whatever no inner span names.
    ``trace.attributed_share``
        the same without the residual: the share that spans around named
        functions account for.  A span that goes missing lowers it.
    ``trace.residual_ms_p50``
        the residual itself.
    """
    wall = sum(r["wall"] for r in rows) or 1.0
    totals: dict = {}
    for r in rows:
        for layer, sec in r["layers"].items():
            totals[layer] = totals.get(layer, 0.0) + sec
    out = {f"{layer}.share": sec / wall for layer, sec in totals.items()
           if layer != "request"}
    timed = [r for r in rows if r["wall"] > 0]
    cover = [sum(s for k, s in r["layers"].items() if k != "request")
             for r in timed]
    out["trace.coverage"] = median_of(
        c / r["wall"] for c, r in zip(cover, timed))
    out["trace.attributed_share"] = median_of(
        (c - r["residual"]) / r["wall"] for c, r in zip(cover, timed))
    out["trace.residual_ms_p50"] = 1e3 * median_of(
        r["residual"] for r in rows)
    return out


def closed_rows(tracer: Tracer, phase: Phase) -> list[dict]:
    return spans.per_request(
        tracer.spans, [(i, 0.0, 0.0, 0.0) for i, _ in phase.traced])


def kernel_layers(tracer: Tracer, kernel: TracedKernel, phase: Phase,
                  iterations: list, counts: Counter) -> dict:
    recorded = tracer.spans
    reused, resorted = counts["reused"], counts["resorted"]
    return {
        "core.solve_ms_p50": 1e3 * median_of(
            s.duration for s in recorded if s.name == "core.solve"),
        "core.sweeps_per_solve": float(np.mean(iterations or [0])),
        "equilibration.calls_per_req":
            kernel.calls / max(len(phase.traced), 1),
        "equilibration.us_per_call": 1e6 * sum_self(
            recorded, "equilibration.kernel") / max(kernel.calls, 1),
        "equilibration.sort_reuse_rate": reused / max(reused + resorted, 1),
        "equilibration.rows_skipped_share":
            counts["skipped"] / max(kernel.rows, 1),
    }


# -- solo-cold ----------------------------------------------------------------------


class SoloCold:
    name = "solo-cold"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    @classmethod
    def setup(cls, seed: int, tmp: pathlib.Path, **_) -> "SoloCold":
        pinned_backend()
        return cls(seed)

    def warm_up(self) -> None:
        for k in range(len(inputs.SOLO_KINDS)):
            api.solve(inputs.solo_problem(self.seed, _WARM + k), stop=_STOP)

    def run(self, seconds: float, tracer: Tracer | None) -> Phase:
        kernel = traced_solve = None
        if tracer is not None:
            kernel = TracedKernel(tracer, solve_piecewise_linear)
            traced_solve = tracer.wrap("core.solve", api.solve)
        iterations: list = []
        counts: Counter = Counter()  # sort counters of the traced solves

        def step(i, traced):
            problem = inputs.solo_problem(self.seed, i)
            if not traced:
                t0 = clock()
                result = api.solve(problem, stop=_STOP)
                dt = clock() - t0
                return dt, check_result(problem, result, _STOP.eps)
            m, n = problem.shape
            root = request_span(tracer, i, traced)
            t0 = clock()
            # The solvers build exactly this pair for the default kernel.
            pair = (SweepWorkspace(m, n), SweepWorkspace(n, m))
            result = traced_solve(problem, stop=_STOP, kernel=kernel,
                                  workspaces=pair)
            dt = clock() - t0
            tracer.close(root)
            iterations.append(result.iterations)
            for ws in pair:
                counts.update(reused=ws.rows_reused,
                              resorted=ws.rows_resorted,
                              skipped=ws.rows_skipped)
            return dt, check_result(problem, result, _STOP.eps)

        phase = closed_loop(step, seconds, tracer, len(inputs.SOLO_KINDS))
        if tracer is not None:
            phase.layers.update(layer_shares(closed_rows(tracer, phase)))
            phase.layers.update(
                kernel_layers(tracer, kernel, phase, iterations, counts))
        return phase

    def teardown(self) -> None:
        pass


# -- service-wal --------------------------------------------------------------------


def _service_counts(svc: SolveService) -> dict:
    st = svc.stats()
    return {"reused": st.sort_rows_reused, "resorted": st.sort_rows_resorted,
            "skipped": st.sort_rows_skipped, "hits": st.cache_hits,
            "misses": st.cache_misses, "retries": st.retries,
            "errors": st.errors}


class ServiceWal:
    name = "service-wal"

    def __init__(self, seed: int, service: SolveService,
                 journal_path: pathlib.Path) -> None:
        self.seed = seed
        self.service = service
        self.journal_path = journal_path
        self.families = inputs.service_families(seed)

    @classmethod
    def setup(cls, seed: int, tmp: pathlib.Path, **_) -> "ServiceWal":
        pinned_backend()
        path = tmp / "service.journal"
        return cls(seed, SolveService(journal=path, fsync=1), path)

    def _request(self, problem):
        self.service.submit(SolveRequest(problem=problem,
                                         **inputs.SERVICE_STOP))
        return self.service.drain()

    def warm_up(self) -> None:
        for k in range(2 * inputs.SERVICE_FAMILIES):
            self._request(self.families.problem(_WARM + k))

    def run(self, seconds: float, tracer: Tracer | None) -> Phase:
        svc = self.service
        eps = inputs.SERVICE_STOP["eps"]
        patch = kernel = None
        if tracer is not None:
            patch = Patch(tracer)
            patch.wrap(svc, "submit", "service.submit")
            patch.wrap(svc, "drain", "service.drain")
            kernel = TracedKernel(tracer, svc.kernel)
            patch.set(svc, "kernel", kernel)
            patch.wrap(service_module, "solve", "core.solve")
            patch.wrap(service_module, "derive_request_id",
                       "journal.derive_id")
            journal = svc.journal
            patch.wrap(journal, "append_request", "journal.append_request")
            patch.wrap(journal, "append_response", "journal.append_response")
            patch.wrap(journal, "sync", "journal.sync")
            patch.wrap(svc.cache, "lookup_with_perms", "cache.lookup")
        iterations: list = []
        counts: Counter = Counter()  # counter deltas of the traced requests

        def step(i, traced):
            problem = self.families.problem(i)
            if traced:
                before = _service_counts(svc)
                size = self.journal_path.stat().st_size
            root = request_span(tracer, i, traced)
            t0 = clock()
            responses = self._request(problem)
            dt = clock() - t0
            ok = (
                len(responses) == 1 and responses[0].ok
                and check_result(problem, responses[0].result, eps)
            )
            if traced:
                tracer.close(root)
                after = _service_counts(svc)
                counts.update({k: after[k] - before[k] for k in after})
                counts["bytes"] += self.journal_path.stat().st_size - size
                if ok:
                    iterations.append(responses[0].result.iterations)
            return dt, ok

        try:
            phase = closed_loop(step, seconds, tracer,
                                inputs.SERVICE_FAMILIES)
        finally:
            if patch is not None:
                patch.restore()
        if tracer is None:
            return phase

        recorded = tracer.spans
        rows = closed_rows(tracer, phase)
        n = max(len(phase.traced), 1)
        lookups = [s.duration for s in recorded if s.name == "cache.lookup"]
        hits = counts["hits"]
        phase.layers.update(layer_shares(rows))
        phase.layers.update(
            kernel_layers(tracer, kernel, phase, iterations, counts))
        phase.layers.update({
            "service.self_ms_p50": 1e3 * median_of(
                r["layers"].get("service", 0.0) for r in rows),
            "service.retries": counts["retries"],
            "service.errors": counts["errors"],
            "cache.hit_rate": hits / max(hits + counts["misses"], 1),
            "cache.lookup_us": 1e6 * sum(lookups) / max(len(lookups), 1),
            "journal.derive_id_ms_per_req":
                1e3 * sum_self(recorded, "journal.derive_id") / n,
            "journal.append_ms_per_req": 1e3 * (
                sum_self(recorded, "journal.append_request")
                + sum_self(recorded, "journal.append_response")) / n,
            "journal.sync_ms_per_req":
                1e3 * sum_self(recorded, "journal.sync") / n,
            "journal.bytes_per_req": counts["bytes"] / n,
        })
        return phase

    def teardown(self) -> None:
        self.service.close()


# -- edge-net -----------------------------------------------------------------------

_ANNOUNCE = re.compile(r"shard listening on ([\d.]+:\d+)")
#: Shortest idle gap of the open loop in which the host-speed reference
#: (about 1 ms) is timed, so it ends well before the next send.
IDLE_GAP_S = 0.02


class EdgeNet:
    name = "edge-net"
    connections = 2

    def __init__(self, seed: int, rate: float, proc, cluster, edge, loop,
                 replica: pathlib.Path) -> None:
        self.seed = seed
        self.rate = rate
        self.proc = proc
        self.cluster = cluster
        self.edge = edge
        self.loop = loop
        self.replica = replica
        self.families = inputs.edge_families(seed)
        self.conns: list = []
        self.next_index = 0

    @classmethod
    def setup(cls, seed: int, tmp: pathlib.Path, rate: float = 1.0,
              **_) -> "EdgeNet":
        pinned_backend()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "shard-serve",
             "--tcp", "127.0.0.1:0", "--shard-id", "shard-0",
             "--journal", str(tmp / "shard" / "local.journal"),
             "--fsync", "1", "--no-batch"],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        loop = cluster = None
        try:
            # Blocks until the child has bound its port and says so.
            line = proc.stderr.readline()
            match = _ANNOUNCE.search(line)
            if match is None:
                raise RuntimeError(f"shard-serve did not announce: {line!r}")
            replicas = tmp / "replicas"
            cluster = ClusterService(
                shards=1, shard_backend="net",
                shard_specs=[match.group(1)], journal_dir=replicas, fsync=1,
            )
            loop = asyncio.new_event_loop()
            edge = EdgeServer(cluster)
            loop.run_until_complete(edge.start())
        except BaseException:
            if cluster is not None:
                cluster.close()
            if loop is not None:
                loop.close()
            _reap(proc)
            raise
        return cls(seed, rate, proc, cluster, edge, loop,
                   replicas / "shard-0.journal")

    # -- load generator ---------------------------------------------------

    async def _connect(self) -> None:
        for _ in range(self.connections):
            self.conns.append(await asyncio.open_connection(
                "127.0.0.1", self.edge.port, limit=2**26))

    async def _closed(self, lines) -> list:
        out = []
        for k, line in enumerate(lines):
            reader, writer = self.conns[k % self.connections]
            writer.write(line)
            out.append(await reader.readline())
        return out

    async def _open(self, lines, offsets, due, sent, done, raw,
                    speed: HostSpeed) -> None:
        """Send ``lines`` at ``offsets`` and record when each was due,
        sent and answered.  The host-speed reference is timed into
        ``speed`` once in each gap of more than :data:`IDLE_GAP_S` in
        which every request sent so far has its answer."""
        conns = self.connections
        n = len(lines)
        answered = 0
        answer = asyncio.Event()

        async def read(c: int) -> None:
            nonlocal answered
            reader = self.conns[c][0]
            for i in range(c, n, conns):
                raw[i] = await reader.readline()
                done[i] = clock()
                answered += 1
                answer.set()

        async def sample_when_idle(i: int) -> None:
            # Requests 0..i-1 are out: wait for their answers while the
            # gap lasts, then time the reference if it still does.
            while answered < i and due[i] - clock() > IDLE_GAP_S:
                answer.clear()
                try:
                    await asyncio.wait_for(
                        answer.wait(), due[i] - clock() - IDLE_GAP_S)
                except asyncio.TimeoutError:
                    return
            if answered == i and due[i] - clock() > IDLE_GAP_S:
                speed.sample()

        readers = [asyncio.ensure_future(read(c)) for c in range(conns)]
        try:
            t0 = clock() + 0.01
            for i in range(n):
                due[i] = t0 + offsets[i]
                await sample_when_idle(i)
                delay = due[i] - clock()
                if delay > 0:
                    await asyncio.sleep(delay)
                self.conns[i % conns][1].write(lines[i])
                sent[i] = clock()
            await asyncio.wait_for(asyncio.gather(*readers), timeout=120)
        finally:
            for task in readers:
                task.cancel()

    def warm_up(self) -> None:
        self.loop.run_until_complete(self._connect())
        lines = [inputs.request_line(self.families.problem(_WARM + k))
                 for k in range(2 * inputs.EDGE_FAMILIES)]
        self.loop.run_until_complete(self._closed(lines))

    def run(self, seconds: float, tracer: Tracer | None) -> Phase:
        offsets = inputs.poisson_schedule(self.seed, 0, self.rate, seconds)
        n = len(offsets)
        first = self.next_index
        self.next_index += n
        lines = [inputs.request_line(self.families.problem(first + k))
                 for k in range(n)]
        due, sent, done = [0.0] * n, [0.0] * n, [0.0] * n
        raw: list = [None] * n
        edge0 = self._edge_errors()
        size0 = self.replica.stat().st_size
        patch = None
        if tracer is not None:
            patch = self._instrument(tracer)
            tracer.enabled = True
        phase = Phase(closed=False)
        try:
            self.loop.run_until_complete(
                self._open(lines, offsets, due, sent, done, raw,
                           phase.speed))
        finally:
            if tracer is not None:
                tracer.enabled = False
                patch.restore()

        answers = [decode_answer(line) for line in raw]
        phase.attempted = n
        phase.seconds = max(done) - (due[0] - offsets[0])
        phase.plain = [(i, done[i] - due[i]) for i in range(n)]
        phase.late = [sent[i] - due[i] for i in range(n)]
        phase.failed = max(
            sum(not check_wire(self.families.problem(first + k), answers[k],
                               _STOP.eps) for k in range(n)),
            self._edge_errors() - edge0)
        if tracer is None:
            return phase

        # The shard's own counters are read off its answers: a stats call
        # from this thread would race the edge's service thread on the
        # shard connection.
        recorded = tracer.spans
        rows = spans.per_request(
            recorded,
            [(answers[i].get("id"), due[i], sent[i], done[i])
             for i in range(n)])
        wire_bytes = sum(len(lines[i]) + len(raw[i] or b"") for i in range(n))
        phase.layers = {
            **layer_shares(rows),
            "service.retries": sum(a.get("retries", 0) for a in answers),
            "service.errors": sum(a.get("status") != "ok" for a in answers),
            "cache.hit_rate": sum(
                a.get("warm_started") is True for a in answers) / n,
            "journal.derive_id_ms_per_req":
                1e3 * sum_self(recorded, "journal.derive_id") / n,
            "journal.bytes_per_req":
                (self.replica.stat().st_size - size0) / n,
            "wire.decode_us_per_req":
                1e6 * sum_self(recorded, "wire.decode") / n,
            "wire.encode_us_per_req":
                1e6 * sum_self(recorded, "wire.encode") / n,
            "wire.bytes_per_req": wire_bytes / n,
            "edge.self_ms_p50": 1e3 * median_of(
                r["layers"].get("edge", 0.0) for r in rows),
            "edge.gen_late_ms_p90": 1e3 * np.percentile(phase.late, 90),
            "edge.errors": self._edge_errors() - edge0,
            "cluster.route_us_per_req":
                1e6 * sum_self(recorded, "cluster.submit") / n,
            "cluster.drain_ms_p50": 1e3 * median_of(
                s.duration for s in recorded
                if s.name == "cluster.drain" and s.rids),
            # Round trips that brought answers back (drain, collect):
            # remote solve, remote WAL and shipping, not submit acks.
            "net.roundtrip_ms_p50": 1e3 * median_of(
                s.duration for s in recorded
                if s.name.startswith("net.roundtrip.") and s.rids),
            "net.replica_append_ms_per_req":
                1e3 * sum_self(recorded, "net.replica_append") / n,
            "net.shipped_records_per_req": sum(
                s.name == "net.replica_append" for s in recorded) / n,
            "net.reconnects": sum(s.name == "net.reconnect" for s in recorded),
        }
        return phase

    def _edge_errors(self) -> int:
        st = self.edge.stats
        return (st.edge_errors + st.overload_rejections + st.deadline_expired
                + st.dropped_responses)

    def _instrument(self, tracer: Tracer) -> Patch:
        """Spans at the edge's codec calls, the router's public surface,
        the net transport and the replica journal.  The edge decodes a
        request before the router assigns its id, so the decode span is
        tied to the id when the same request object reaches ``submit``."""
        decoded: dict = {}

        def tag_decode(span, args, result):
            if isinstance(result, SolveRequest):
                decoded[id(result)] = span

        def tag_submit(span, args, rid):
            span.rid = rid
            dspan = decoded.pop(id(args[0]), None)
            if dspan is not None:
                dspan.rid = rid

        def tag_encode(span, args, result):
            span.rid = args[0].id

        def tag_batch(span, args, responses):
            if isinstance(responses, list):
                span.rids = tuple(r.id for r in responses)

        patch = Patch(tracer)
        patch.wrap(edge_module, "decode_request_line", "wire.decode",
                   tag_decode)
        patch.wrap(edge_module, "dump_response", "wire.encode", tag_encode)
        patch.wrap(self.cluster, "submit", "cluster.submit", tag_submit)
        patch.wrap(self.cluster, "drain", "cluster.drain", tag_batch)
        patch.wrap(self.cluster, "collect", "cluster.collect", tag_batch)
        patch.wrap(cluster_module, "derive_request_id", "journal.derive_id")
        patch.wrap_pair(NetShard, "start", "finish", "net.roundtrip",
                        tag_batch)
        patch.wrap(ReplicaJournal, "append_line", "net.replica_append")
        patch.wrap(NetShard, "reconnect", "net.reconnect")
        return patch

    def teardown(self) -> None:
        try:
            for _, writer in self.conns:
                writer.close()
            self.loop.run_until_complete(self.edge.drain())
        finally:
            self.loop.close()
            _reap(self.proc)


def _reap(proc) -> None:
    """Stop the shard child and wait for it; it exits by itself once the
    router closes it, SIGTERM otherwise."""
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stderr is not None:
        proc.stderr.close()


WORKLOADS = {w.name: w for w in (SoloCold, ServiceWal, EdgeNet)}


def peak_rss_mib() -> float:
    """Peak RSS of this process plus its largest reaped child (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def measure(name: str, seed: int, seconds: float, traced: bool,
            rate: float, tmp: pathlib.Path) -> dict:
    """Set up, warm up, measure and check one workload."""
    workload = WORKLOADS[name].setup(seed, tmp, rate=rate)
    try:
        workload.warm_up()
        if not traced:
            phases = [workload.run(seconds, None)]
        elif name == EdgeNet.name:
            phases = [workload.run(seconds / 2, None),
                      workload.run(seconds / 2, Tracer())]
        else:
            phases = [workload.run(seconds, Tracer())]
    finally:
        workload.teardown()
    return report(name, phases)


def report(name: str, phases: list) -> dict:
    """End-to-end figures of the untraced phase, on the host-speed
    scale (``hostspeed``): latencies divided by the run's slowness, a
    closed loop's throughput multiplied by it.  An open loop's
    throughput is its offered rate and stays as measured.  ``raw`` keeps
    the figures as measured."""
    plain = phases[0]
    p50, p90 = np.percentile(plain.latencies, [50, 90])
    slow = plain.speed.slowness
    raw = {"throughput_rps": plain.throughput, "latency_p50_ms": 1e3 * p50,
           "latency_p90_ms": 1e3 * p90}
    out = {
        "workload": name,
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "throughput_rps": raw["throughput_rps"] * (slow if plain.closed
                                                   else 1.0),
        "latency_p50_ms": raw["latency_p50_ms"] / slow,
        "latency_p90_ms": raw["latency_p90_ms"] / slow,
        "raw": raw,
        "slowness": slow,
        "samples": len(plain.latencies),
        "beyond_p90": beyond(plain.latencies, p90),
        "peak_rss_mib": plain.peak_rss or peak_rss_mib(),
    }
    if plain.late:
        out["gen_late_ms_p90"] = 1e3 * np.percentile(plain.late, 90)
    traced = phases[-1]
    if traced.layers:
        layers = out["layers"] = dict(traced.layers)
        out["traced_samples"] = len(traced.traced) or traced.attempted
        if len(phases) == 2:
            # Open loop: throughput is the offered rate, so tracing shows
            # as latency on the same schedule instead.
            base = median_of(plain.latencies)
            layers["trace.overhead_pct"] = 100.0 * (
                median_of(traced.latencies) - base) / base
    return out


def setup_seconds(name: str, seed: int, rate: float,
                  tmp: pathlib.Path, t0: float) -> float:
    """Finish one timed set-up started at ``t0`` (before ``import repro``)
    and tear it down off the clock; then time the host-speed reference
    ``SETUP_SPEED_SAMPLES`` times.  Returns ``(seconds as measured,
    slowness)``."""
    workload = WORKLOADS[name].setup(seed, tmp, rate=rate)
    elapsed = clock() - t0
    workload.teardown()
    speed = HostSpeed(hostspeed.NOMINAL_HOT_S)
    for _ in range(SETUP_SPEED_SAMPLES):
        speed.sample()
    return elapsed, speed.slowness


def environment(seed: int) -> dict:
    return {
        "backend": pinned_backend().name,
        "backend_versions": backend_versions(),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "seed": seed,
    }
