"""Shard workers: one `SolveService` per replica, driven over a pipe.

A :class:`ProcessShard` forks a child that owns a complete, independent
:class:`~repro.service.service.SolveService` — its own
:class:`~repro.parallel.executor.ParallelKernel`, warm-start cache,
workspace LRU, write-ahead journal and admission queue — and speaks a
tiny synchronous command protocol over a ``multiprocessing`` pipe::

    ("submit", request)      -> ("ok", request_id) | ("error", (kind, msg))
    ("drain",)               -> ("responses", [SolveResponse, ...])
    ("collect",)             -> ("responses", [...])
    ("shed",)                -> ("response", SolveResponse | None)
    ("stats",)               -> ("stats", ServiceStats)
    ("ping",)                -> ("pong", pending_count)
    ("shutdown", deadline)   -> ("responses", [...]), then the child exits
    ("close",)               -> ("ok", None), then the child exits

On start the child pushes one unsolicited ``("hello", {...})`` frame
carrying its pid plus — when it recovered a journal — the recorded
responses of answered ids and the ``(id, order)`` pairs it re-enqueued,
which is everything the router needs to reconcile its in-flight map
after a replica death.

:class:`InlineShard` is the same interface executed in-process: the
bottom rung of the cluster's degradation ladder (a replica whose
respawns keep dying falls back to it, mirroring the kernel's
``process -> thread -> serial`` ladder), and the zero-IPC backend for
tests.

The command vocabulary itself is one function, :func:`shard_op`,
shared by the pipe child, :class:`InlineShard` and the network
:class:`~repro.cluster.net.ShardServer`.  Objects cross the pipe
pickled (multiprocessing's native transport); pickling preserves
float64 bit patterns, so the journal's bit-identity contract survives
the hop.
"""

from __future__ import annotations

import multiprocessing
import os
import pathlib
import signal
import time

from repro.errors import (
    InvalidRequestError,
    ReproError,
    WorkerCrashError,
    error_class,
)
from repro.service.journal import Journal
from repro.service.service import SolveService

__all__ = ["ProcessShard", "InlineShard", "ShardCrashedError", "shard_journal"]

_HELLO_TIMEOUT_S = 60.0
_POLL_S = 0.05


class ShardCrashedError(WorkerCrashError):
    """A shard replica died mid-conversation (its journal survives)."""

    kind = "worker-crash"


def shard_journal(journal_dir, shard_id: str) -> pathlib.Path:
    """Journal path of one shard under the cluster's journal directory."""
    return pathlib.Path(journal_dir) / f"{shard_id}.journal"


def open_service(journal_path, snapshot_path, service_kwargs,
                 recover: bool = False) -> SolveService:
    """A shard's service: recovered from its journal when asked and the
    journal exists, fresh otherwise."""
    if recover and journal_path is not None and (
        pathlib.Path(journal_path).exists()
    ):
        return SolveService.recover(
            journal_path, snapshot_path=snapshot_path, **service_kwargs
        )
    return SolveService(
        journal=journal_path, snapshot_path=snapshot_path, **service_kwargs
    )


def shard_hello(shard_id: str, svc: SolveService) -> dict:
    """What a (re)started shard tells the router: pid, recovered
    responses and the ``(id, order)`` pairs it re-enqueued."""
    return {
        "shard": shard_id,
        "pid": os.getpid(),
        "recovered": list(svc.recovered.values()),
        "replayed": [
            (req.id, getattr(req, "_order", 0)) for req in svc._queue
        ],
    }


# Commands after which the shard's serving loop ends.
FINAL_OPS = ("shutdown", "close")


def shard_op(svc: SolveService, op: str, args) -> tuple[str, object]:
    """Run one shard command against ``svc``: ``(reply tag, value)``.

    The one command vocabulary of every shard transport — the pipe
    child, the in-process shard and the network shard server only
    frame it differently."""
    if op == "submit":
        return "ok", svc.submit(args[0])
    if op == "drain":
        return "responses", svc.collect() + svc.drain()
    if op == "collect":
        return "responses", svc.collect()
    if op == "shed":
        return "response", svc.shed_oldest()
    if op == "stats":
        return "stats", svc.stats()
    if op == "ping":
        return "pong", svc.pending
    if op == "shutdown":
        responses = svc.shutdown(deadline_s=args[0])
        return "responses", svc.collect() + responses
    if op == "close":
        svc.close()
        return "ok", None
    raise InvalidRequestError(f"unknown shard op {op!r}")


def shard_error(exc: Exception) -> tuple[str, str]:
    """A failed command as the ``(kind, message)`` a router re-raises."""
    if isinstance(exc, ReproError):
        return exc.kind, str(exc)
    return "internal", f"{type(exc).__name__}: {exc}"


def _shard_main(conn, shard_id, recover, journal_path, snapshot_path,
                service_kwargs) -> None:
    """Child-process entry: build the shard's service, serve commands."""
    # The router owns signal policy: Ctrl-C lands on the whole process
    # group, but only the router should act on it (it drains shards via
    # the protocol, not via signals racing the drain).
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except ValueError:  # pragma: no cover — non-main thread (tests)
        pass
    try:
        svc = open_service(journal_path, snapshot_path, service_kwargs,
                           recover)
    except Exception as exc:  # pragma: no cover — config errors surface up
        conn.send(("fatal", f"{type(exc).__name__}: {exc}"))
        conn.close()
        return
    conn.send(("hello", shard_hello(shard_id, svc)))
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):  # router died: flush and stop
            svc.close()
            return
        op, args = msg[0], msg[1:]
        try:
            reply = shard_op(svc, op, args)
        except Exception as exc:  # noqa: BLE001 — isolate, never kill the loop
            conn.send(("error", shard_error(exc)))
            continue
        conn.send(reply)
        if op in FINAL_OPS:
            conn.close()
            return


def _raise_shard_error(kind: str, message: str) -> None:
    raise error_class(kind)(message)


class ProcessShard:
    """Router-side handle of one worker replica (child process).

    The handle is synchronous and single-outstanding-command, but
    :meth:`start` / :meth:`finish` split a command's send and receive so
    the router can broadcast ``drain`` to every shard and *then* gather
    — the replicas compute concurrently.
    """

    backend = "process"

    def __init__(self, shard_id: str, service_kwargs: dict,
                 journal_path=None, snapshot_path=None,
                 recover: bool = False) -> None:
        self.id = shard_id
        self.journal_path = (
            None if journal_path is None else pathlib.Path(journal_path)
        )
        self.snapshot_path = snapshot_path
        ctx = multiprocessing.get_context()
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(
            target=_shard_main,
            args=(child, shard_id, recover, journal_path, snapshot_path,
                  dict(service_kwargs)),
            daemon=True,
            name=f"repro-{shard_id}",
        )
        self._proc.start()
        child.close()
        frame = self._recv(timeout=_HELLO_TIMEOUT_S)
        if frame[0] == "fatal":  # pragma: no cover — bad service config
            self._proc.join(timeout=5)
            raise RuntimeError(f"{shard_id} failed to start: {frame[1]}")
        self.hello = frame[1]

    # -- liveness ------------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self._proc.is_alive()

    @property
    def pid(self) -> int:
        return self._proc.pid

    def kill(self) -> None:
        """SIGKILL the replica — the chaos hook.  No drain, no flush;
        only the journal survives."""
        self._proc.kill()
        self._proc.join(timeout=10)

    # -- protocol ------------------------------------------------------------

    def start(self, op: str, *args) -> None:
        """Send a command without waiting for its reply."""
        try:
            self._conn.send((op, *args))
        except (BrokenPipeError, OSError) as exc:
            raise ShardCrashedError(
                f"{self.id} is gone mid-send ({type(exc).__name__})"
            ) from exc
        if op == "submit":
            # The encoded payload crossed the pipe with the request (the
            # replica's journal appends it); the router's copy drops it.
            args[0].__dict__.pop("_payload", None)

    def finish(self, timeout: float | None = None):
        """Receive (and unwrap) the pending command's reply."""
        frame = self._recv(timeout=timeout)
        tag, payload = frame
        if tag == "error":
            _raise_shard_error(*payload)
        return payload

    def call(self, op: str, *args, timeout: float | None = None):
        self.start(op, *args)
        return self.finish(timeout=timeout)

    def _recv(self, timeout: float | None = None):
        """Receive one frame, detecting replica death instead of
        blocking forever: a SIGKILLed child closes its pipe end (EOF)
        and ``is_alive()`` flips, either of which aborts the wait."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            try:
                if self._conn.poll(_POLL_S):
                    return self._conn.recv()
            except (EOFError, OSError) as exc:
                raise ShardCrashedError(
                    f"{self.id} died (pid {self._proc.pid}, exitcode "
                    f"{self._proc.exitcode})"
                ) from exc
            if not self._proc.is_alive() and not self._conn.poll(0):
                raise ShardCrashedError(
                    f"{self.id} died (pid {self._proc.pid}, exitcode "
                    f"{self._proc.exitcode})"
                )
            if deadline is not None and time.monotonic() >= deadline:
                raise ShardCrashedError(
                    f"{self.id} unresponsive after {timeout:g}s"
                )

    # -- convenience ---------------------------------------------------------

    def submit(self, request) -> str:
        return self.call("submit", request)

    def ping(self, timeout: float | None = 5.0) -> int:
        """Liveness probe.  A child that is *alive but unresponsive*
        (wedged in a fault-plan delay, a runaway solve, a deadlocked
        pool) is as lost to the router as a dead one — and worse: its
        late pong would desynchronize the single-outstanding-command
        pipe.  So a timed-out ping kills the child before raising,
        which both restores pipe discipline and routes the caller into
        the ordinary respawn path."""
        try:
            return self.call("ping", timeout=timeout)
        except ShardCrashedError:
            if self._proc.is_alive():
                self.kill()
            raise

    def stats(self):
        return self.call("stats")

    def close(self) -> None:
        """Graceful child exit; escalate to SIGKILL if it won't die."""
        if self._proc.is_alive():
            try:
                self.call("close", timeout=30.0)
            except ShardCrashedError:
                pass
        self._proc.join(timeout=10)
        if self._proc.is_alive():  # pragma: no cover — stuck child
            self._proc.kill()
            self._proc.join(timeout=10)
        self._conn.close()


class InlineShard:
    """The shard protocol executed in-process (no child, no IPC).

    Serves two roles: the deterministic test/sandbox backend
    (``ClusterService(shard_backend="inline")``) and the terminal rung
    of the replica degradation ladder — when a shard's respawns keep
    dying, the router rebuilds it inline from its journal so the
    keyspace slice stays served.
    """

    backend = "inline"

    def __init__(self, shard_id: str, service_kwargs: dict,
                 journal_path=None, snapshot_path=None,
                 recover: bool = False) -> None:
        self.id = shard_id
        self.journal_path = (
            None if journal_path is None else pathlib.Path(journal_path)
        )
        self.snapshot_path = snapshot_path
        self.service = open_service(journal_path, snapshot_path,
                                    service_kwargs, recover)
        self.hello = shard_hello(shard_id, self.service)
        self._pending_op: tuple | None = None

    @property
    def alive(self) -> bool:
        return True

    @property
    def pid(self) -> int:
        return os.getpid()

    def start(self, op: str, *args) -> None:
        self._pending_op = (op, *args)

    def finish(self, timeout: float | None = None):  # noqa: ARG002
        op, args = self._pending_op[0], self._pending_op[1:]
        self._pending_op = None
        return shard_op(self.service, op, args)[1]

    def call(self, op: str, *args, timeout: float | None = None):
        self.start(op, *args)
        return self.finish(timeout=timeout)

    def submit(self, request) -> str:
        return self.service.submit(request)

    def ping(self, timeout: float | None = None) -> int:  # noqa: ARG002
        return self.service.pending

    def stats(self):
        return self.service.stats()

    def close(self) -> None:
        self.service.close()


def journal_seq_base(journal_dir) -> int:
    """Total request records across a cluster journal directory.

    The router's derived request ids embed a monotonically growing
    sequence (mirroring the single service's journal-global seq); after
    a restart the base must clear every id already journaled, or a
    replayed stream could collide with its own history.

    Archived failover replicas (``failover-NNN/``) count too: their
    records were re-routed into live journals as *responses* but the
    sequence numbers they consumed must stay burned.  Over-counting is
    harmless (ids skip ahead); under-counting risks collision.  Remap
    archives (``remap-NNN/``) are excluded — the coordinator rewrites
    those records into the live journals, which already count them.
    """
    base = 0
    journal_dir = pathlib.Path(journal_dir)
    if not journal_dir.exists():
        return 0
    paths = sorted(journal_dir.glob("shard-*.journal"))
    paths += sorted(journal_dir.glob("failover-*/shard-*.journal"))
    for path in paths:
        journal = Journal(path)
        base += journal.request_records
        journal.close()
    return base
