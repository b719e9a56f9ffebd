"""The internal record codec: packed arrays, encode-once, compatibility.

Journal records and router↔``shard-serve`` frames carry every float
array as a *packed array* (little-endian bytes in base64).  These tests
pin what that buys and what it must never cost:

* bit-exact round trips for every float64 bit pattern and any input
  layout, through strict JSON;
* a hardened decoder whose every rejection is a classified
  ``invalid-request`` (an edge line, a shard frame) or
  ``invalid-problem`` (``SolveService.solve``), never ``internal``;
* one encoding per request per process — the derived id digests the
  exact payload text the journal line and the submit frame carry;
* old list-form journals replay bit-identically next to packed ones.
"""

from __future__ import annotations

import base64
import hashlib
import json
import socket
import threading
import time

import numpy as np
import pytest
from conftest import random_elastic_problem, random_fixed_problem
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro.service.journal as journal_module
from repro.cluster.net import NetShard, ShardServer
from repro.cluster.transport import FrameSocket
from repro.core.api import solve
from repro.core.result import SolveResult
from repro.errors import InvalidProblemError, InvalidRequestError
from repro.io import pack_array, problem_to_jsonable, unpack_array
from repro.service import SolveService
from repro.service.journal import (
    Journal,
    derive_request_id,
    replay,
    replay_full,
    response_from_record,
    response_to_record,
)
from repro.service.request import SolveRequest, SolveResponse
from repro.service.wire import (
    RequestError,
    decode_request_line,
    error_line,
    request_to_jsonable,
)

SPECIALS = np.array(
    [0x7FF8000000000001, 0x7FF0000000000001, 0xFFF8DEADBEEF0000,  # NaNs
     0x7FF0000000000000, 0xFFF0000000000000,  # +inf, -inf
     0x8000000000000000, 0x0000000000000001,  # -0.0, smallest subnormal
     0x800FFFFFFFFFFFFF],  # largest negative subnormal
    dtype=np.uint64,
)


def bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype="<f8").view(np.uint64)


def through_json(obj):
    return json.loads(json.dumps(obj, allow_nan=False))


# Any float64 bit pattern, in any shape of at most two (possibly empty)
# dimensions.
float_bits = hnp.arrays(
    np.uint64,
    hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=6),
    elements=st.one_of(
        st.integers(0, 2**64 - 1), st.sampled_from([int(b) for b in SPECIALS])
    ),
)


class TestPackedArrays:
    @settings(max_examples=200, deadline=None)
    @given(raw=float_bits, layout=st.sampled_from(
        ["c", "fortran", "strided", "big-endian"]))
    def test_round_trip_is_bit_exact_in_any_layout(self, raw, layout):
        a = raw.view(np.float64)
        if layout == "fortran":
            a = np.asfortranarray(a)
        elif layout == "strided" and a.ndim:
            a = np.repeat(a, 2, axis=-1)[..., ::2]
        elif layout == "big-endian":
            a = a.astype(">f8")
        packed = through_json(pack_array(a))
        assert packed["dtype"] == "<f8"  # written back little-endian
        back = unpack_array(packed)
        assert back.shape == a.shape and back.dtype == np.float64
        np.testing.assert_array_equal(bits(back), bits(a))
        assert back.flags.writeable

    def test_special_values_survive(self):
        a = SPECIALS.view(np.float64).reshape(2, 4)
        back = unpack_array(through_json(pack_array(a)))
        np.testing.assert_array_equal(bits(back), SPECIALS.reshape(2, 4))

    @settings(deadline=None)
    @given(mask=hnp.arrays(bool, hnp.array_shapes(max_dims=2, min_side=0)))
    def test_masks_round_trip(self, mask):
        back = unpack_array(through_json(pack_array(mask, "|b1")), dtype=bool)
        assert back.dtype == bool
        np.testing.assert_array_equal(back, mask)

    def test_lists_still_decode(self):
        np.testing.assert_array_equal(
            unpack_array([[1.0, 2.0]]), np.array([[1.0, 2.0]])
        )

    @pytest.mark.parametrize("bad", [
        {"dtype": "<f4", "shape": [1], "b64": "AAAAAA=="},
        {"dtype": ">f8", "shape": [1], "b64": "AAAAAAAAAAA="},
        {"dtype": "|b1", "shape": [1], "b64": "AA=="},  # mask where floats go
        {"dtype": "<f8", "shape": [1, 1, 1], "b64": "AAAAAAAAAAA="},
        {"dtype": "<f8", "shape": [-1], "b64": ""},
        {"dtype": "<f8", "shape": [True], "b64": "AAAAAAAAAAA="},
        {"dtype": "<f8", "shape": [1.0], "b64": "AAAAAAAAAAA="},
        {"dtype": "<f8", "shape": 1, "b64": "AAAAAAAAAAA="},
        {"dtype": "<f8", "shape": [2], "b64": "AAAAAAAAAAA="},  # 8 of 16 bytes
        {"dtype": "<f8", "shape": [10**12, 10**12], "b64": ""},
        {"dtype": "<f8", "shape": [1], "b64": "not base64!"},
        {"dtype": "<f8", "shape": [1], "b64": 7},
        {"shape": [1], "b64": "AAAAAAAAAAA="},
    ])
    def test_malformed_packed_arrays_are_invalid_requests(self, bad):
        with pytest.raises(InvalidRequestError):
            unpack_array(bad)

    def test_mask_bytes_must_be_zero_or_one(self):
        bad = {"dtype": "|b1", "shape": [2],
               "b64": base64.b64encode(b"\x01\x02").decode()}
        with pytest.raises(InvalidRequestError, match="0 or 1"):
            unpack_array(bad, dtype=bool)

    @settings(max_examples=300, deadline=None)
    @given(obj=st.fixed_dictionaries({}, optional={
        "dtype": st.sampled_from(["<f8", "|b1", ">f8", "<f4", 1, None]),
        "shape": st.one_of(
            st.lists(st.integers(-2, 4), max_size=3),
            st.lists(st.booleans(), max_size=2), st.integers(), st.none(),
        ),
        "b64": st.one_of(
            st.binary(max_size=40).map(lambda b: base64.b64encode(b).decode()),
            st.text(max_size=12), st.integers(),
        ),
    }), dtype=st.sampled_from([np.float64, bool]))
    def test_any_packed_object_decodes_or_is_an_invalid_request(
        self, obj, dtype
    ):
        try:
            a = unpack_array(obj, dtype=dtype)
        except InvalidRequestError:
            return
        assert list(a.shape) == obj["shape"]
        assert a.dtype == np.dtype(dtype)


def packed_line(problem) -> str:
    obj = {"problem": problem_to_jsonable(problem)}
    obj["problem"]["x0"] = {"dtype": "<f8", "shape": [3, 3], "b64": "AAAA"}
    return json.dumps(obj)


class TestMalformedPayloadsAreClassified:
    def test_edge_line_answers_invalid_request(self, rng):
        line = packed_line(random_fixed_problem(rng, 3, 3))
        decoded = decode_request_line(line, 4)
        assert isinstance(decoded, RequestError)
        assert json.loads(error_line(decoded))["error"]["kind"] == (
            "invalid-request"
        )

    def test_shard_frame_answers_invalid_request(self, tmp_path, rng):
        service = SolveService(journal=tmp_path / "j.jsonl", backend="serial")
        server = ShardServer(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        fs = FrameSocket(socket.create_connection((server.host, server.port)))
        try:
            fs.send({"op": "hello", "have": None})
            assert "hello" in fs.recv(time.monotonic() + 10)
            frame = json.loads(packed_line(random_fixed_problem(rng, 3, 3)))
            fs.send({"op": "submit", "id": "r0", "order": 0,
                     "request": frame})
            reply = fs.recv(time.monotonic() + 10)
            assert reply["error"][0] == "invalid-request"
            assert service.journal.lines == 0
        finally:
            fs.close()
            server.stop()
            thread.join(timeout=10)
            service.close()

    def test_solve_refuses_a_payload_dict_as_invalid_problem(self, rng):
        payload = json.loads(packed_line(random_fixed_problem(rng, 3, 3)))
        with SolveService(backend="serial") as svc:
            with pytest.raises(InvalidProblemError):
                svc.solve(payload["problem"])
            assert svc.stats().retries == 0


def journal_lines(path) -> list[str]:
    return path.read_text().splitlines()


def payload_of(line: str) -> str:
    """The request payload exactly as it sits in a journal line."""
    marker = '"request":'
    return line[line.index(marker) + len(marker):-1]


class TestEncodeOnce:
    def test_derived_digest_is_sha1_of_the_journaled_payload(
        self, tmp_path, rng
    ):
        with SolveService(journal=tmp_path / "j.jsonl",
                          backend="serial") as svc:
            rid = svc.submit(random_elastic_problem(rng, 5, 4))
            svc.drain()
        line = journal_lines(tmp_path / "j.jsonl")[0]
        payload = payload_of(line)
        digest, seq = rid.rsplit("-", 1)
        assert digest == hashlib.sha1(payload.encode()).hexdigest()[:12]
        assert json.loads(line)["id"] == rid and seq == "0"

    def test_digest_ignores_id_and_order(self, rng):
        problem = random_fixed_problem(rng, 4, 3)
        plain = derive_request_id(SolveRequest(problem=problem), 3)
        named = SolveRequest(problem=problem, id="client-7")
        named._order = 41
        assert derive_request_id(named, 3) == plain

    def test_submit_encodes_once_and_keeps_no_copy(
        self, tmp_path, rng, monkeypatch
    ):
        calls = []
        real = journal_module.encode_request
        monkeypatch.setattr(journal_module, "encode_request",
                            lambda req: calls.append(req.id) or real(req))
        req = SolveRequest(problem=random_fixed_problem(rng, 3, 3))
        with SolveService(journal=tmp_path / "j.jsonl",
                          backend="serial") as svc:
            svc.submit(req)
            assert len(calls) == 1
            assert "_payload" not in req.__dict__
            svc.drain()

    def test_net_submit_frame_carries_the_digested_payload(self, rng):
        sent = []

        class _Wire:
            def send(self, frame):
                sent.append(frame)

        shard = object.__new__(NetShard)
        shard.id, shard._fs = "s0", _Wire()
        req = SolveRequest(problem=random_fixed_problem(rng, 3, 3))
        req.id = derive_request_id(req, 0)
        req._order = 5
        payload = req._payload
        shard.start("submit", req)
        (frame,) = sent
        assert isinstance(frame, str) and frame.endswith(payload + "}")
        assert json.loads(frame)["id"] == req.id
        assert json.loads(frame)["order"] == 5
        assert "_payload" not in req.__dict__


def old_list_form(line: str) -> str:
    """A packed journal line rewritten in the pre-packing format: arrays
    as nested lists and non-finite scalars as bare ``NaN``/``Infinity``
    tokens (``json.dumps`` defaults), as older journals hold them."""

    def unpack(value):
        if isinstance(value, dict) and "b64" in value:
            a = unpack_array(value, dtype=bool if value["dtype"] == "|b1"
                             else np.float64)
            return a.tolist() if a.ndim else float(a)
        if isinstance(value, dict):
            return {k: unpack(v) for k, v in value.items()}
        return value

    return json.dumps(unpack(json.loads(line)), separators=(",", ":"))


class TestMixedJournalReplay:
    def _responses(self, rng):
        out = []
        for i in range(4):
            problem = random_fixed_problem(rng, 3, 4, density=0.8)
            result = solve(problem)
            if i < 2:  # non-finite values must survive either format
                result.x[0, 0] = np.nan
                result.mu[0] = -np.inf
                result.residual = np.nan
            out.append((
                SolveRequest(problem=problem, id=f"r{i}", eps=1e-6),
                SolveResponse(id=f"r{i}", result=result, kind="fixed",
                              elapsed=float("inf") if i == 2 else 0.25,
                              submitted_at=i),
            ))
        return out

    def test_list_and_packed_records_replay_bit_identically(
        self, tmp_path, rng
    ):
        pairs = self._responses(rng)
        path = tmp_path / "packed.jsonl"
        with Journal(path) as j:
            for order, (req, resp) in enumerate(pairs):
                req._order = order
                j.append_request(req)
                if order < 3:  # r3 stays unanswered
                    j.append_response(resp)
        lines = journal_lines(path)
        assert all("NaN" not in ln and "Infinity" not in ln for ln in lines)
        mixed = tmp_path / "mixed.jsonl"
        # r0 and r2 in the old format, r1 and r3 packed.
        mixed.write_text("".join(
            (old_list_form(ln) if json.loads(ln)["id"] in ("r0", "r2")
             else ln) + "\n"
            for ln in lines
        ))
        text = mixed.read_text()  # the old format really is mixed in
        assert "NaN" in text and "Infinity" in text
        # The list-form request record of the legacy writer also replays.
        legacy = json.dumps({"type": "request", "id": "r9", "seq": 9,
                             "request": request_to_jsonable(pairs[0][0])},
                            separators=(",", ":"))
        with mixed.open("a") as fh:
            fh.write(legacy.replace('"id":"r0"', '"id":"r9"') + "\n")

        unanswered, recorded = replay(mixed)
        requests, responses = replay_full(mixed)
        assert [r.id for r in unanswered] == ["r3", "r9"]
        assert set(recorded) == set(responses) == {"r0", "r1", "r2"}
        for req, resp in pairs:
            got = requests[req.id]
            assert got.eps == req.eps
            for key in ("x0", "gamma", "s0", "d0", "mask"):
                np.testing.assert_array_equal(getattr(got.problem, key),
                                              getattr(req.problem, key))
            if req.id == "r3":
                continue
            for decoded in (recorded[req.id], responses[req.id]):
                assert_same_response(decoded, resp)

    def test_record_is_strict_and_lossless_for_nonfinite_scalars(self):
        resp = SolveResponse(id="r0", elapsed=float("-inf"), submitted_at=2,
                             result=SolveResult(
                                 x=np.zeros((1, 1)), s=None, d=None,
                                 lam=None, mu=None, converged=False,
                                 iterations=1, residual=float("nan"),
                                 objective=float("inf"), elapsed=0.0,
                                 algorithm="a"))
        back = response_from_record(through_json(response_to_record(resp)))
        assert_same_response(back, resp)


def assert_same_response(got: SolveResponse, want: SolveResponse) -> None:
    for field in ("id", "kind", "warm_started", "cache_exact", "batched",
                  "retries", "submitted_at", "error", "error_kind"):
        assert getattr(got, field) == getattr(want, field)
    assert bits(got.elapsed) == bits(want.elapsed)
    g, w = got.result, want.result
    for key in ("x", "s", "d", "lam", "mu"):
        if getattr(w, key) is None:
            assert getattr(g, key) is None
        else:
            np.testing.assert_array_equal(bits(getattr(g, key)),
                                          bits(getattr(w, key)))
    for key in ("residual", "objective", "elapsed"):
        assert bits(getattr(g, key)) == bits(getattr(w, key))
    for key in ("converged", "iterations", "inner_iterations", "algorithm"):
        assert getattr(g, key) == getattr(w, key)
