"""Tests of the benchmark's own machinery: seeded inputs, sample counts,
open-loop timing, the correctness gate and span self times.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

import hostspeed
import inputs
import run
import spans
import workloads
from stats import beyond, spread

from repro.core import api
from repro.core.problems import FixedTotalsProblem
from repro.service.request import SolveResponse
from repro.service.wire import dump_response


# -- seeded inputs -------------------------------------------------------------------


def _lines(seed: int, count: int = 4) -> list[bytes]:
    fam = inputs.edge_families(seed)
    return [inputs.request_line(fam.problem(k)) for k in range(count)]


def test_same_seed_gives_identical_request_lines_and_schedule():
    assert _lines(3) == _lines(3)
    assert inputs.poisson_schedule(3, 0, 10.0, 5.0) == \
        inputs.poisson_schedule(3, 0, 10.0, 5.0)
    a, b = inputs.solo_problem(3, 7), inputs.solo_problem(3, 7)
    assert np.array_equal(a.s0, b.s0) and np.array_equal(a.gamma, b.gamma)


def test_other_seed_gives_other_request_lines_and_schedule():
    assert not set(_lines(3)) & set(_lines(4))
    assert inputs.poisson_schedule(3, 0, 10.0, 5.0) != \
        inputs.poisson_schedule(4, 0, 10.0, 5.0)
    assert not np.array_equal(inputs.solo_problem(3, 7).s0,
                              inputs.solo_problem(4, 7).s0)


def test_schedule_has_the_offered_count_inside_the_window():
    offsets = inputs.poisson_schedule(5, 1, 12.0, 10.0)
    assert len(offsets) == 120
    assert offsets == sorted(offsets)
    assert 0.0 <= offsets[0] and offsets[-1] <= 10.0


def test_every_seed_gets_the_same_gap_mix_in_another_order():
    a = np.diff(inputs.poisson_schedule(3, 0, 12.0, 32.0))
    b = np.diff(inputs.poisson_schedule(4, 0, 12.0, 32.0))
    assert not np.allclose(a, b)
    # Stratified gaps: below the few longest, the k-th shortest gaps of
    # two seeds lie within a few milliseconds of each other.
    assert np.max(np.abs(np.sort(a)[:-10] - np.sort(b)[:-10])) < 0.004
    assert (a < 1 / 60).sum() == pytest.approx((b < 1 / 60).sum(), abs=2)


def test_request_lines_carry_no_client_id():
    obj = json.loads(_lines(1, 1)[0])
    assert "id" not in obj and obj["problem"]["kind"] == "fixed"


# -- sample counts and spread ------------------------------------------------------


def test_p90_sample_count_counts_samples_beyond_it():
    data = list(range(1, 101))
    p90 = np.percentile(data, 90)
    assert p90 == pytest.approx(90.1)
    assert beyond(data, p90) == 10
    assert beyond(range(1, 20), np.percentile(range(1, 20), 90)) == 2


def test_spread_is_iqr_over_median():
    out = spread([10.0, 10.0, 10.0, 10.0])
    assert out["median"] == 10.0 and out["iqr_share"] == 0.0
    out = spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert out["median"] == 3.0
    assert out["iqr_share"] == pytest.approx((4.5 - 1.5) / 3.0)


# -- open-loop timing ----------------------------------------------------------------


def test_open_loop_charges_a_stall_to_requests_scheduled_behind_it():
    """A server that stalls on its first request answers the next ones
    late; their latency runs from when they were due, not from when the
    stalled server got round to them."""
    stall = 0.4

    async def scenario():
        first = True

        async def handle(reader, writer):
            nonlocal first
            while line := await reader.readline():
                if first:
                    first = False
                    await asyncio.sleep(stall)
                writer.write(line)
                await writer.drain()
            writer.close()

        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        gen = workloads.EdgeNet.__new__(workloads.EdgeNet)
        gen.connections = 1
        gen.conns = [await asyncio.open_connection("127.0.0.1", port)]
        offsets = [0.0, 0.1, 0.2, 0.3, 0.7]
        n = len(offsets)
        due, sent, done, raw = [0.0] * n, [0.0] * n, [0.0] * n, [None] * n
        lines = [f"{i}\n".encode() for i in range(n)]
        await gen._open(lines, offsets, due, sent, done, raw, speed)
        gen.conns[0][1].close()
        server.close()
        await server.wait_closed()
        return offsets, due, sent, done, raw

    speed = hostspeed.HostSpeed()
    offsets, due, sent, done, raw = asyncio.run(scenario())
    assert raw == [f"{i}\n".encode() for i in range(5)]
    latency = [d - t for d, t in zip(done, due)]
    for i, off in enumerate(offsets[:4]):
        # Everyone queued behind the stall waits for it to end.
        assert latency[i] >= stall - off - 0.02
    # The generator itself kept to its schedule.
    assert max(s - d for s, d in zip(sent, due)) < 0.05
    assert latency[0] > latency[1] > latency[2] > latency[3]
    # Only the idle gap before the last request timed the reference:
    # the earlier gaps all had a request waiting on the stall.
    assert len(speed.samples) == 1


# -- host-speed scale ----------------------------------------------------------------


def _phase(closed: bool, reference_s: float):
    phase = workloads.Phase(closed=closed)
    phase.plain = [(i, 0.1 * (i + 1)) for i in range(10)]
    phase.attempted, phase.seconds = 10, 5.5
    phase.speed.samples = [reference_s] * 3
    return phase


def test_times_are_scaled_by_the_runs_slowness():
    nominal = hostspeed.NOMINAL_S
    slow = workloads.report("solo-cold", [_phase(True, 2 * nominal)])
    base = workloads.report("solo-cold", [_phase(True, nominal)])
    assert slow["slowness"] == pytest.approx(2.0)
    assert slow["latency_p50_ms"] == pytest.approx(base["latency_p50_ms"] / 2)
    assert slow["latency_p90_ms"] == pytest.approx(base["latency_p90_ms"] / 2)
    assert slow["throughput_rps"] == pytest.approx(2 * 10 / 5.5)
    assert slow["raw"] == base["raw"]


def test_open_loop_throughput_is_not_scaled():
    out = workloads.report("edge-net", [_phase(False, 2 * hostspeed.NOMINAL_S)])
    assert out["throughput_rps"] == pytest.approx(10 / 5.5)


def test_closed_loop_times_the_reference_after_each_request():
    phase = workloads.closed_loop(lambda i, traced: (1.0, True), 3.0)
    assert len(phase.speed.samples) == 3
    assert phase.speed.slowness > 0
    hot = hostspeed.HostSpeed(nominal=2 * hostspeed.NOMINAL_S)
    hot.samples = list(phase.speed.samples)
    assert hot.slowness == pytest.approx(phase.speed.slowness / 2)
    with pytest.raises(RuntimeError):
        hostspeed.HostSpeed().slowness


def test_slowness_is_a_clipped_mean_of_the_reference():
    speed = hostspeed.HostSpeed(nominal=1.0)
    speed.samples = [1.0, 1.0, 2.0]
    assert speed.slowness == pytest.approx(4 / 3)
    # One preempted sample counts as CLIP medians, not its full length.
    speed.samples = [1.0, 1.0, 1.0, 1000.0]
    assert speed.slowness == pytest.approx((3 + hostspeed.CLIP) / 4)


# -- correctness gate ----------------------------------------------------------------


@pytest.fixture(scope="module")
def solved():
    problem = inputs.edge_families(2).problem(0)
    result = api.solve(problem, stop=workloads._STOP)
    return problem, result


def test_gate_accepts_a_right_answer(solved):
    problem, result = solved
    assert workloads.check_result(problem, result, workloads._STOP.eps)
    line = dump_response(SolveResponse(id="r", result=result, kind="fixed"))
    assert workloads.check_wire(problem, workloads.decode_answer(line),
                                workloads._STOP.eps)


def test_gate_counts_a_wrong_answer_as_failed(solved):
    problem, result = solved
    wrong = type(result)(**{**result.__dict__, "x": result.x * 1.001})
    assert not workloads.check_result(problem, wrong, workloads._STOP.eps)
    unconverged = type(result)(**{**result.__dict__, "converged": False})
    assert not workloads.check_result(problem, unconverged,
                                      workloads._STOP.eps)
    answer = workloads.decode_answer(
        dump_response(SolveResponse(id="r", result=result, kind="fixed")))
    answer["x"][0][1] += 0.01 * float(np.max(problem.s0))
    assert not workloads.check_wire(problem, answer, workloads._STOP.eps)
    assert not workloads.check_wire(problem, {"status": "error"},
                                    workloads._STOP.eps)
    assert not workloads.check_wire(problem, workloads.decode_answer(b"{"),
                                    workloads._STOP.eps)


def test_closed_loop_counts_failed_steps():
    outcomes = iter([True, False, True])

    def step(i, traced):
        return 1.0, next(outcomes)

    phase = workloads.closed_loop(step, 3.0)
    assert (phase.attempted, phase.failed) == (3, 1)
    assert phase.throughput == pytest.approx(2 / 3)


def test_closed_loop_reads_peak_rss_after_a_fixed_request_count(monkeypatch):
    monkeypatch.setattr(workloads, "RSS_AFTER", 2)
    phase = workloads.closed_loop(lambda i, traced: (1.0, True), 1.0)
    assert phase.attempted == 1 and phase.peak_rss is None
    phase = workloads.closed_loop(lambda i, traced: (1.0, True), 5.0)
    assert phase.attempted == 5 and phase.peak_rss > 0


def test_wrong_fixed_totals_problem_is_caught_by_wire_shape():
    problem = FixedTotalsProblem(
        x0=np.ones((2, 2)), gamma=np.ones((2, 2)),
        s0=np.array([2.0, 2.0]), d0=np.array([2.0, 2.0]))
    answer = {"status": "ok", "converged": True, "x": [[1.0, 1.0]]}
    assert not workloads.check_wire(problem, answer, 1e-4)


# -- spans ----------------------------------------------------------------------------


def _span(name, start, end, parent=None, rid=None, rids=()):
    s = spans.Span(name, start, parent)
    s.end, s.rid, s.rids = end, rid, rids
    return s


def test_self_time_subtracts_children():
    root = _span("request", 0.0, 10.0, rid=1)
    core = _span("core.solve", 1.0, 9.0, root)
    k1 = _span("equilibration.kernel", 2.0, 4.0, core)
    k2 = _span("equilibration.kernel", 5.0, 8.0, core)
    rows = spans.per_request([root, core, k1, k2], [(1, 0.0, 0.0, 0.0)])
    assert rows[0]["wall"] == 10.0
    assert rows[0]["layers"] == pytest.approx(
        {"request": 2.0, "core": 3.0, "equilibration": 5.0})
    # The outermost program span's self time is the catch-all residual.
    assert rows[0]["residual"] == pytest.approx(3.0)
    shares = workloads.layer_shares(rows)
    assert shares["trace.coverage"] == pytest.approx(0.8)
    assert shares["trace.attributed_share"] == pytest.approx(0.5)
    assert shares["trace.residual_ms_p50"] == pytest.approx(3000.0)


def test_open_loop_request_gets_edge_time_and_batch_spans():
    # Request "a": due 0, sent 1, answered 20.  Its submit (2-4), an
    # empty collect inside its window (5-6), the drain that answered it
    # (6-15, shared with "b") and its encode (16-17).
    recorded = [
        _span("cluster.submit", 2.0, 4.0, rid="a"),
        _span("cluster.collect", 5.0, 6.0),
        _span("cluster.drain", 6.0, 15.0, rids=("a", "b")),
        _span("wire.encode", 16.0, 17.0, rid="a"),
        _span("cluster.collect", 30.0, 31.0),
    ]
    net = _span("net.roundtrip", 7.0, 14.0, recorded[2])
    rows = spans.per_request(recorded + [net], [("a", 0.0, 1.0, 20.0)])
    layers = rows[0]["layers"]
    assert rows[0]["wall"] == 20.0
    assert layers["cluster"] == pytest.approx(2.0 + 1.0 + 2.0)
    assert layers["net"] == pytest.approx(7.0)
    assert layers["wire"] == pytest.approx(1.0)
    # 19 s from send to answer, 13 covered by router spans.
    assert layers["edge"] == pytest.approx(19.0 - 13.0)
    assert rows[0]["residual"] == pytest.approx(6.0)


def test_traced_kernel_keeps_the_workspace_seam():
    tracer = spans.Tracer()
    seen = {}

    def inner(b, s, t, a=None, c=None, workspace=None):
        seen["workspace"] = workspace
        return t

    kernel = spans.TracedKernel(tracer, inner)
    assert kernel.accepts_workspace
    tracer.enabled = True
    kernel(np.zeros((3, 2)), None, np.ones(3), workspace="ws")
    assert seen["workspace"] == "ws"
    assert (kernel.calls, kernel.rows) == (1, 3)
    assert [s.name for s in tracer.spans] == ["equilibration.kernel"]


def test_wrap_pair_names_the_op_and_tags_the_finish_result():
    class Transport:
        def start(self, op, *args):
            self.op = op

        def finish(self):
            return ["answer"] if self.op == "drain" else "ack"

    tracer = spans.Tracer()
    patch = spans.Patch(tracer)
    patch.wrap_pair(Transport, "start", "finish", "net.roundtrip",
                    lambda span, args, result: setattr(span, "rid", result))
    tracer.enabled = True
    t = Transport()
    for op in ("submit", "drain", "collect"):
        t.start(op)
        t.finish()
    patch.restore()
    assert [(s.name, s.rid) for s in tracer.spans] == [
        ("net.roundtrip.submit", "ack"),
        ("net.roundtrip.drain", ["answer"]),
        ("net.roundtrip.collect", "ack"),
    ]


def test_patch_restores_what_it_replaced():
    class Thing:
        def f(self):
            return 1

    obj = Thing()
    tracer = spans.Tracer()
    patch = spans.Patch(tracer)
    patch.wrap(obj, "f", "x.f")
    patch.wrap(Thing, "f", "x.g")
    tracer.enabled = True
    assert obj.f() == 1
    patch.restore()
    assert "f" not in obj.__dict__ and Thing.f(obj) == 1
    assert [s.name for s in tracer.spans] == ["x.f"]


# -- metric catalogue -----------------------------------------------------------------


def test_every_per_layer_metric_names_what_it_should_move():
    e2e, per_layer, _ = run.load_spec()
    assert set(per_layer) == set(run.MOVES)
    assert "setup_s" in e2e and e2e["setup_s"] == "s"


def test_result_line_refuses_a_layer_metric_the_spec_lacks():
    raw = {"failed": 0, "attempted": 1, "layers": {"bogus.share": 1.0}}
    with pytest.raises(RuntimeError):
        run.result_line(raw, {"core.share": "share"}, traced=True)
    raw["layers"] = {"core.share": 0.5}
    line = run.result_line(raw, {"core.share": "share", "net.share": "share"},
                           traced=True)
    assert line["correct"] and line["metrics"]["net.share"]["value"] == 0.0
