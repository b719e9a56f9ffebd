"""Write-ahead journal: crash-safe, exactly-once request accounting.

The durability contract of :class:`~repro.service.service.SolveService`
rests on one invariant: **a request is journaled before it is solved,
and its response is journaled before it is delivered**.  The journal is
a JSONL file of two record types::

    {"type": "request",  "id": "r1", "seq": 0, "request":  {...}}
    {"type": "response", "id": "r1", "response": {...}}

so at any instant the set of *unanswered* requests (request record, no
response record) is exactly the work a crashed service lost, and the
set of answered ones carries the full responses — duals included — at
bit-exact float fidelity.  Every float array in a record is a *packed
array* (:func:`repro.io.pack_array`: little-endian bytes in base64), so
NaN payloads, ±inf, −0.0 and subnormals survive by construction; a
non-finite scalar is packed as a 0-d array.  Records are strict JSON.
Journals written with nested-list arrays (and bare ``NaN`` tokens)
still replay: every decoder accepts both forms.

The request payload is encoded once per process.
:func:`derive_request_id` digests the packed payload (id left out) and
caches the text on the request; :meth:`Journal.append_request` and the
network shard's submit frame take those same bytes
(:func:`take_payload`), which drops the cache.
:func:`response_to_record` / :func:`response_from_record` are the one
full-fidelity response codec, shared by the journal and the
router↔``shard-serve`` frames.

Recovery (:func:`replay`, used by ``SolveService.recover``) returns the
unanswered requests in their original submission order plus the
recorded responses by id, enabling exactly-once semantics across
process death: re-solve what was never answered, return what was
answered verbatim, never answer anything twice.  A torn tail — the
partial line a crash mid-``write`` leaves behind — is detected on open
and truncated, so a restarted journal is always append-consistent.

``fsync`` policy is an integer interval: ``0`` never fsyncs (the OS
flushes; fastest, loses the tail on *machine* crash but never on mere
process death since every record is flushed to the kernel), ``1``
fsyncs every record (classic WAL durability), ``N`` every ``N``
records.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pathlib

from repro.core.result import SolveResult
from repro.errors import DuplicateRequestError
from repro.io import pack_array, unpack_array
from repro.service.request import SolveRequest, SolveResponse
from repro.service.wire import request_from_jsonable, request_to_jsonable

__all__ = [
    "Journal",
    "ReplicaJournal",
    "replay",
    "replay_full",
    "derive_request_id",
    "encode_request",
    "take_payload",
    "response_to_record",
    "response_from_record",
]


def encode_request(request: SolveRequest) -> str:
    """The request's record payload: packed arrays, the id left out
    (the record carries it next to the payload)."""
    obj = request_to_jsonable(request, packed=True)
    del obj["id"]
    return json.dumps(obj, separators=(",", ":"))


def derive_request_id(request: SolveRequest, seq: int) -> str:
    """Stable id for a request the client did not name.

    The payload digest makes the id content-addressed (a resubmitted
    identical payload is *visible* as such in the journal) while the
    journal-global ``seq`` suffix keeps legitimately repeated payloads
    distinct — dedup is only *enforced* for client-supplied ids, which
    are the ones a retrying client reuses on purpose.  The digested
    payload is cached on the request for the append or send that
    follows (:func:`take_payload`).
    """
    payload = encode_request(request)
    request._payload = payload  # type: ignore[attr-defined]
    digest = hashlib.sha1(payload.encode()).hexdigest()[:12]
    return f"{digest}-{seq}"


def take_payload(request: SolveRequest) -> str:
    """The payload :func:`derive_request_id` cached (removing it from
    the request), or a fresh encoding when there is none."""
    payload = request.__dict__.pop("_payload", None)
    return encode_request(request) if payload is None else payload


def _scalar(value: float):
    """A float as strict JSON: itself when finite, else a 0-d packed
    array (bit-exact, NaN payload included)."""
    return value if math.isfinite(value) else pack_array(value)


def _unscalar(obj) -> float:
    """Inverse of :func:`_scalar`; bare numbers (and the ``NaN`` tokens
    of older journals) pass through."""
    return float(unpack_array(obj)) if isinstance(obj, dict) else obj


def _result_to_record(result: SolveResult) -> dict:
    return {
        "algorithm": result.algorithm,
        "converged": bool(result.converged),
        "iterations": int(result.iterations),
        "inner_iterations": int(result.inner_iterations),
        "residual": _scalar(float(result.residual)),
        "objective": _scalar(float(result.objective)),
        "elapsed": _scalar(float(result.elapsed)),
        "x": pack_array(result.x),
        "s": pack_array(result.s),
        "d": pack_array(result.d),
        "lam": pack_array(result.lam),
        "mu": pack_array(result.mu),
    }


def _result_from_record(rec: dict) -> SolveResult:
    return SolveResult(
        x=unpack_array(rec["x"], ndmin=2),
        s=unpack_array(rec["s"], ndmin=1),
        d=unpack_array(rec["d"], ndmin=1),
        lam=unpack_array(rec["lam"], ndmin=1),
        mu=unpack_array(rec["mu"], ndmin=1),
        converged=rec["converged"],
        iterations=rec["iterations"],
        inner_iterations=rec.get("inner_iterations", 0),
        residual=_unscalar(rec["residual"]),
        objective=_unscalar(rec["objective"]),
        elapsed=_unscalar(rec["elapsed"]),
        algorithm=rec["algorithm"],
    )


def response_to_record(response: SolveResponse) -> dict:
    """Full-fidelity response encoding (duals included, floats exact,
    strict JSON).

    Unlike the client-facing wire codec (:func:`repro.service.wire
    .response_to_jsonable`) nothing is rounded or dropped: the journal
    and the router↔shard hop must reproduce the response
    *bit-identically*.
    """
    rec: dict = {
        "id": response.id,
        "kind": response.kind,
        "elapsed": _scalar(float(response.elapsed)),
        "warm_started": response.warm_started,
        "cache_exact": response.cache_exact,
        "batched": response.batched,
        "retries": response.retries,
        "submitted_at": response.submitted_at,
    }
    if response.result is not None:
        rec["result"] = _result_to_record(response.result)
    if response.error is not None:
        rec["error"] = response.error
        rec["error_kind"] = response.error_kind
    return rec


def response_from_record(rec: dict) -> SolveResponse:
    """Inverse of :func:`response_to_record` (packed or list-form)."""
    return SolveResponse(
        id=rec["id"],
        result=(
            _result_from_record(rec["result"]) if "result" in rec else None
        ),
        error=rec.get("error"),
        error_kind=rec.get("error_kind"),
        kind=rec.get("kind", ""),
        elapsed=_unscalar(rec.get("elapsed", 0.0)),
        warm_started=rec.get("warm_started", False),
        cache_exact=rec.get("cache_exact", False),
        batched=rec.get("batched", False),
        retries=rec.get("retries", 0),
        submitted_at=rec.get("submitted_at", 0),
    )


def _scan(path: pathlib.Path):
    """Yield ``(record, end_offset)`` for every intact record.

    Stops (without raising) at the first torn or undecodable line — by
    construction only the *last* line can be torn, so everything before
    a decode failure is trusted and everything from it on is garbage a
    crash left behind.
    """
    offset = 0
    with path.open("rb") as fh:
        for raw in fh:
            end = offset + len(raw)
            if not raw.endswith(b"\n"):
                return  # torn tail: the crash interrupted this write
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError:
                return
            if not isinstance(obj, dict) or "type" not in obj:
                return
            yield obj, end
            offset = end


class _JournalFile:
    """The file discipline :class:`Journal` and :class:`ReplicaJournal`
    share: opening rebuilds the id index from the intact records and
    truncates any torn tail; appends are whole flushed lines on the
    0/1/N ``fsync`` cadence."""

    def __init__(self, path, fsync: int = 0) -> None:
        if fsync < 0:
            raise ValueError("fsync must be >= 0")
        self.path = pathlib.Path(path)
        self.fsync = int(fsync)
        # id -> answered?  (False = request journaled, response pending)
        self._seen: dict[str, bool] = {}
        self.request_records = 0  # total request records ever journaled
        self.lines = 0            # total intact records currently on disk
        self._unsynced = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        good_end = 0
        if self.path.exists():
            for obj, end in _scan(self.path):
                good_end = end
                self._index(obj)
            if good_end < self.path.stat().st_size:
                with self.path.open("rb+") as fh:
                    fh.truncate(good_end)
        self._fh = self.path.open("a", encoding="utf-8")

    def _index(self, obj: dict) -> None:
        self.lines += 1
        if obj["type"] == "request":
            self._seen.setdefault(obj.get("id"), False)
            self.request_records += 1
        elif obj["type"] == "response":
            self._seen[obj.get("id")] = True

    def _append(self, text: str, obj: dict) -> None:
        self._fh.write(text + "\n")
        self._fh.flush()
        self._index(obj)
        self._unsynced += 1
        if self.fsync and self._unsynced >= self.fsync:
            self.sync()

    def __contains__(self, request_id: str) -> bool:
        return request_id in self._seen

    def answered(self, request_id: str) -> bool:
        return self._seen.get(request_id) is True

    def sync(self) -> None:
        """Force the appended records onto stable storage."""
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._unsynced = 0

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            if self.fsync:
                os.fsync(self._fh.fileno())
            self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Journal(_JournalFile):
    """Append-only write-ahead log of requests and responses.

    Opening an existing path replays its index (which ids are pending
    vs answered, how many request records exist) and truncates any torn
    tail, so the same ``Journal`` object serves both a fresh service
    and a restarted one.

    Parameters
    ----------
    path:
        JSONL file; created (with parents) when missing.
    fsync:
        ``0`` = never fsync (flush only), ``1`` = fsync every record,
        ``N`` = fsync every ``N`` records.
    """

    def __init__(self, path, fsync: int = 0) -> None:
        self.appended = 0  # records appended by *this* process
        self._subscribers: list = []
        super().__init__(path, fsync)

    def pending_ids(self) -> list[str]:
        """Ids journaled as requests but never answered."""
        return [rid for rid, done in self._seen.items() if not done]

    # -- appends -------------------------------------------------------------

    def append_request(self, request: SolveRequest) -> None:
        """Journal an accepted request; must precede its solve.

        Raises :class:`~repro.errors.DuplicateRequestError` when the id
        was already accepted — the caller never gets to double-journal.
        """
        if request.id is None:
            raise ValueError("journaled requests need an id")
        if request.id in self._seen:
            raise DuplicateRequestError(
                f"request id {request.id!r} already journaled "
                f"({'answered' if self._seen[request.id] else 'pending'})"
            )
        # The payload is spliced in as the text derive_request_id
        # digested; "request" comes last so it ends the line verbatim.
        seq = getattr(request, "_order", self.request_records)
        self._write(
            f'{{"type":"request","id":{json.dumps(request.id)},'
            f'"seq":{json.dumps(seq)},"request":{take_payload(request)}}}',
            {"type": "request", "id": request.id},
        )

    def append_response(self, response: SolveResponse) -> None:
        """Journal a response; must precede its delivery."""
        obj = {
            "type": "response",
            "id": response.id,
            "response": response_to_record(response),
        }
        self._write(json.dumps(obj, separators=(",", ":"), allow_nan=False), obj)

    # -- streaming -----------------------------------------------------------

    def subscribe(self, fn) -> None:
        """Register ``fn(raw_line)`` to observe every appended record.

        Called after the record is flushed to the kernel, with the raw
        JSON text (no trailing newline) exactly as written — the hook
        the network shard server uses to ship its WAL to the router's
        replica byte-for-byte.  Subscriber exceptions propagate to the
        appender: shipping is *synchronous* durability, so a failed
        ship must fail the operation that produced the record.
        """
        self._subscribers.append(fn)

    def read_tail(self, start: int) -> list[str]:
        """Raw record lines from index ``start`` (0-based) to the end.

        Used for replica catch-up after a reconnect: the router says
        how many lines it already holds and the server re-ships the
        rest.  Safe to call on a live journal — every append ends with
        a flush, so the file always contains whole lines up to
        ``self.lines``.
        """
        if start >= self.lines:
            return []
        self._fh.flush()
        with self.path.open("r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        return lines[start:self.lines]

    def _write(self, text: str, obj: dict) -> None:
        self._append(text, obj)
        self.appended += 1
        for fn in self._subscribers:
            fn(text)


class ReplicaJournal(_JournalFile):
    """Router-side byte-for-byte replica of a remote shard's journal.

    The network shard server ships every WAL record it appends as the
    raw line text; :meth:`append_line` validates and appends it here
    *before* the remote's response is delivered, so when the remote
    host dies the replica holds everything the shard ever durably did
    — replaying it (via :func:`replay` / :func:`replay_full`, the file
    format is identical) recovers with zero lost and zero
    double-answered requests.

    ``lines`` counts intact records and doubles as the ``have`` cursor
    the router sends on reconnect so the server ships only the tail it
    missed.  The same torn-tail truncation as :class:`Journal` applies
    on open; ``fsync`` follows the same 0/1/N cadence.
    """

    def append_line(self, line: str) -> None:
        """Append one shipped record line (validated before write).

        Raises ``ValueError`` when the line is not an intact journal
        record — a corrupted ship must be rejected *before* it poisons
        the replica, so the transport can drop the connection and
        re-fetch the line on reconnect.
        """
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"shipped journal line is not JSON: {exc}")
        if not isinstance(obj, dict) or "type" not in obj:
            raise ValueError("shipped journal line is not a journal record")
        self._append(line, obj)


def replay(path) -> tuple[list[SolveRequest], dict[str, SolveResponse]]:
    """Read a journal into recovery inputs.

    Returns ``(unanswered, recorded)``: the requests that were accepted
    but never answered (original submission order preserved via their
    journaled ``seq``, re-attached as ``_order``), and the recorded
    responses of answered ids, decoded verbatim.  A request answered
    *after* a duplicate-looking crash replay appears only once — the
    index keeps the latest state per id.
    """
    requests, responses = replay_full(path)
    unanswered = [
        request for rid, request in requests.items() if rid not in responses
    ]
    unanswered.sort(key=lambda r: r._order)
    return unanswered, responses


def replay_full(
    path,
) -> tuple[dict[str, SolveRequest], dict[str, SolveResponse]]:
    """Read a journal into *complete* id-indexed maps.

    Unlike :func:`replay` — which drops the request objects of answered
    ids because a recovering service only re-solves the unanswered —
    this keeps every request, answered or not (``_order`` re-attached).
    The cluster's :class:`~repro.cluster.recovery.RecoveryCoordinator`
    needs both sides: when a ring remap moves an *answered* id to a new
    shard it must rewrite the request **and** response records into the
    new shard's journal, or a second crash would re-solve work that was
    already answered once.
    """
    path = pathlib.Path(path)
    requests: dict[str, SolveRequest] = {}
    responses: dict[str, SolveResponse] = {}
    if not path.exists():
        return {}, {}
    for obj, _ in _scan(path):
        rid = obj.get("id")
        if obj["type"] == "request":
            request = request_from_jsonable(obj["request"])
            request.id = rid
            request._order = obj.get("seq", len(requests))
            requests[rid] = request
        elif obj["type"] == "response":
            responses[rid] = response_from_record(obj["response"])
    return requests, responses
