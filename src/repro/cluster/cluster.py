"""The cluster router: N sharded solve services behind one front door.

``ClusterService`` implements the paper's §3.1.3 split (``N_p = N/p``:
independent equilibration subproblems distributed over processors) as a
service tier: requests are consistent-hash routed on their warm-start
fingerprint (:func:`repro.cluster.ring.request_route_key`) to one of N
replicas, each a complete :class:`~repro.service.service.SolveService`
with its own kernel, warm-start cache, workspace LRU and write-ahead
journal.  Fingerprint routing is what makes the split *better* than
round-robin: one problem family always lands on one shard, so its warm
duals and sort permutations stay hot there while the aggregate cache
capacity grows N-fold.

The router is deliberately thin.  It owns exactly four things:

* **placement** — the :class:`~repro.cluster.ring.HashRing`;
* **edge admission** — the shared
  :class:`~repro.service.admission.AdmissionController` vocabulary
  reused with *shard id* as the kind: ``max_queue`` bounds the
  cluster-wide in-flight total, ``max_per_shard`` bounds any one
  shard's share, and the ``shed-oldest`` policy evicts at the router
  (the victim's overloaded answer is journaled by its shard, exactly
  once) before a hot shard's queue can overflow;
* **an in-flight map** — every submitted id with its shard and request
  object, which is what makes replica death survivable *mid-traffic*:
  on respawn the shard's hello is reconciled against the map
  (journal-answered → deliver the recorded response; journal-replayed →
  still queued, the next drain answers it; in neither → the kill landed
  between pipe-send and journal append, so the router re-submits the
  request it kept);
* **the respawn ladder** — a crashed replica is respawned from its
  journal up to ``max_respawns`` times, then degraded to an in-process
  :class:`~repro.cluster.worker.InlineShard` (the same
  process → inline step the parallel kernel's backend ladder takes), so
  a poisonous replica can never take its keyspace slice down with it.

Delivery mirrors the single service: :meth:`drain` answers everything
queued, merged across shards into cluster submission order;
:meth:`collect` hands out responses produced out-of-band (shed victims,
responses recovered during a revive).  Cluster-wide observability is
:meth:`stats`: per-shard :class:`~repro.service.metrics.ServiceStats`
plus their :meth:`~repro.service.metrics.ServiceStats.merge`-reduced
aggregate and the router's own counters.
"""

from __future__ import annotations

import functools
import pathlib
from dataclasses import dataclass, field

from repro.cluster.ring import HashRing, request_route_key
from repro.cluster.transport import parse_host_port
from repro.cluster.worker import (
    InlineShard,
    ProcessShard,
    ShardCrashedError,
    journal_seq_base,
    shard_journal,
)
from repro.errors import DuplicateRequestError, OverloadedError
from repro.service.admission import (
    ADMISSION_POLICIES,
    AdmissionConfig,
    AdmissionController,
)
from repro.service.journal import derive_request_id, replay_full
from repro.service.metrics import ServiceStats
from repro.service.request import SolveRequest, SolveResponse, check_solvable

__all__ = ["ClusterService", "ClusterStats"]

_SHARD_BACKENDS = ("process", "inline", "net")

# Per-shard counters worth a labelled Prometheus series each (the full
# field set rides in the aggregate; per-shard series are curated to
# bound scrape cardinality at shards x this handful).
_SHARD_SERIES = (
    "requests", "completed", "errors", "cache_hits", "cache_misses",
    "journal_records",
)


@dataclass
class ClusterStats:
    """Cluster-wide observability: per-shard stats + aggregate + router.

    ``shards`` maps shard id to its :class:`ServiceStats` snapshot
    (per-shard ``sort_reuse_rate``/``hit_rate`` are the snapshot's
    properties); ``aggregate`` is their
    :meth:`~ServiceStats.merge`-reduction, so its derived rates are the
    correctly pooled cluster values; ``router`` carries the counters
    only the front tier can know (edge rejections and sheds, respawns,
    degraded shards, in-flight total).
    """

    shards: dict[str, ServiceStats] = field(default_factory=dict)
    aggregate: ServiceStats = field(default_factory=ServiceStats)
    router: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """Flat JSON view: the aggregate's fields at top level (so
        single-service stats readers keep working against a cluster),
        the per-shard and router detail under ``"cluster"``."""
        out = self.aggregate.as_dict()
        out["cluster"] = {
            "shards": {sid: st.as_dict() for sid, st in self.shards.items()},
            "router": dict(self.router),
        }
        return out

    def metrics_text(self, prefix: str = "repro_") -> str:
        """Prometheus text exposition: the pooled aggregate's series,
        the router block, and per-shard labelled series (health,
        respawns, and the curated counters of ``_SHARD_SERIES``) only
        the cluster tier can know.  ``serve --stats --prometheus``
        serves this for a cluster exactly as it serves
        :meth:`ServiceStats.metrics_text` for a single service."""
        lines = [self.aggregate.metrics_text(prefix).rstrip("\n")]
        r = self.router
        for name in ("shards", "pending"):
            lines.append(f"# TYPE {prefix}cluster_{name} gauge")
            lines.append(f"{prefix}cluster_{name} {r.get(name, 0)}")
        for name in ("rejections", "sheds", "resubmitted_in_flight",
                     "recovered_in_flight", "failovers",
                     "failover_recovered", "failover_resubmitted",
                     "failover_lost", "shipped_records", "reconnects"):
            lines.append(f"# TYPE {prefix}cluster_{name}_total counter")
            lines.append(f"{prefix}cluster_{name}_total {r.get(name, 0)}")
        respawns = r.get("respawns", {})
        if respawns:
            lines.append(f"# TYPE {prefix}cluster_respawns_total counter")
            for sid in sorted(respawns):
                lines.append(
                    f'{prefix}cluster_respawns_total{{shard="{sid}"}} '
                    f"{respawns[sid]}"
                )
        for name in _SHARD_SERIES:
            if not self.shards:
                break
            lines.append(f"# TYPE {prefix}shard_{name}_total counter")
            for sid in sorted(self.shards):
                lines.append(
                    f'{prefix}shard_{name}_total{{shard="{sid}"}} '
                    f"{getattr(self.shards[sid], name)}"
                )
        if self.shards:
            lines.append(f"# TYPE {prefix}shard_queue_depth gauge")
            for sid in sorted(self.shards):
                lines.append(
                    f'{prefix}shard_queue_depth{{shard="{sid}"}} '
                    f"{self.shards[sid].queue_depth}"
                )
        health = r.get("health", {})
        if health:
            lines.append(f"# TYPE {prefix}shard_up gauge")
            for sid in sorted(health):
                up = (
                    0 if health[sid] in ("dead", "unreachable", "failed-over")
                    else 1
                )
                lines.append(f'{prefix}shard_up{{shard="{sid}"}} {up}')
        return "\n".join(lines) + "\n"


@dataclass
class _Pending:
    """One in-flight request the router has forwarded but not delivered."""

    shard: str
    request: SolveRequest | None  # None for journal-replayed ids (the
    #                               journal holds them; never lost)


class ClusterService:
    """Sharded multi-replica solve tier with fingerprint routing.

    Duck-types the :class:`~repro.service.service.SolveService` surface
    the CLI and clients use — ``submit`` / ``drain`` / ``collect`` /
    ``shutdown`` / ``stats`` / ``pending`` / context manager — so
    ``serve --cluster N`` is a drop-in swap.

    Parameters
    ----------
    shards:
        Replica count; shard ids are ``shard-0 .. shard-{N-1}``.
    journal_dir:
        Directory of per-shard write-ahead journals
        (``shard-i.journal``).  ``None`` disables durability.
    snapshot_dir:
        Directory of per-shard warm-state sidecars.
    recover:
        Replay each shard's journal at construction (see
        :meth:`recover` for the classmethod that also remaps journals
        when the shard count changed).
    shard_backend:
        ``"process"`` (default): each replica is a child process over a
        pipe.  ``"inline"``: replicas live in-process — deterministic
        for tests, zero IPC for single-core cache-affinity serving.
        ``"net"``: each replica is a remote ``shard-serve`` process
        reached over TCP (:class:`~repro.cluster.net.NetShard`), with
        its journal shipped back into ``journal_dir`` as a router-side
        replica so host loss is survivable (see :meth:`failover`).
    shard_specs:
        Required with ``shard_backend="net"``: one ``"host:port"``
        string (or ``(host, port)`` pair) per shard, validated
        fail-fast before anything is dialled.
    max_queue, admission_policy, max_per_shard:
        Edge admission: cluster-wide and per-shard bounds on in-flight
        requests, applied *at the router* with shard id as the
        admission kind.
    max_respawns:
        Process respawns per shard before degrading it to inline.
    ping_timeout:
        Per-shard budget of the :meth:`ping` probe (and the supervisor's
        :meth:`failover_unreachable` sweep); a replica that cannot pong
        within it is treated as lost.
    net_options:
        Extra :class:`~repro.cluster.net.NetShard` knobs
        (``connect_timeout``, ``op_timeout``, ``backoff_*``,
        ``max_reconnects``, ``seed``), applied to every net shard.
    vnodes:
        Ring points per shard (see :class:`~repro.cluster.ring.HashRing`).
    **service_kwargs:
        Forwarded to every shard's ``SolveService`` (``workers``,
        ``backend``, ``warm_start``, ``cache_size``, ``fsync``, ...).
        Ignored by net shards except ``fsync``, which sets the replica
        journal's cadence (the remote's own kwargs are the
        ``shard-serve`` command line's business).
    """

    def __init__(
        self,
        shards: int = 4,
        *,
        journal_dir=None,
        snapshot_dir=None,
        recover: bool = False,
        shard_backend: str = "process",
        shard_specs=None,
        max_queue: int | None = None,
        admission_policy: str = "reject-newest",
        max_per_shard: int | None = None,
        max_respawns: int = 2,
        ping_timeout: float = 5.0,
        net_options: dict | None = None,
        vnodes: int = 64,
        **service_kwargs,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if shard_backend not in _SHARD_BACKENDS:
            raise ValueError(
                f"shard_backend must be one of {_SHARD_BACKENDS}"
            )
        if max_respawns < 0:
            raise ValueError("max_respawns must be >= 0")
        if shard_specs is not None and shard_backend != "net":
            raise ValueError(
                "shard_specs only applies to shard_backend='net'"
            )
        if shard_backend == "net":
            if shard_specs is None:
                raise ValueError(
                    "shard_backend='net' requires shard_specs "
                    "(one host:port per shard)"
                )
            parsed = [
                parse_host_port(spec) if isinstance(spec, str)
                else (str(spec[0]), int(spec[1]))
                for spec in shard_specs
            ]
            if len(parsed) != shards:
                raise ValueError(
                    f"{shards} shards but {len(parsed)} shard specs"
                )
        self.shard_ids = [f"shard-{i}" for i in range(shards)]
        self.ring = HashRing(self.shard_ids, vnodes=vnodes)
        self.shard_backend = shard_backend
        self.max_respawns = max_respawns
        self.ping_timeout = ping_timeout
        self._net_options = dict(net_options or {})
        self._shard_specs = (
            dict(zip(self.shard_ids, parsed))
            if shard_backend == "net" else {}
        )
        self.journal_dir = (
            None if journal_dir is None else pathlib.Path(journal_dir)
        )
        self.snapshot_dir = (
            None if snapshot_dir is None else pathlib.Path(snapshot_dir)
        )
        if self.journal_dir is not None:
            self.journal_dir.mkdir(parents=True, exist_ok=True)
        if self.snapshot_dir is not None:
            self.snapshot_dir.mkdir(parents=True, exist_ok=True)
        self._service_kwargs = dict(service_kwargs)
        self._admission = AdmissionController(AdmissionConfig(
            max_queue=max_queue,
            policy=admission_policy,
            max_per_kind=max_per_shard,
        ))
        self._pending: dict[str, _Pending] = {}
        self._buffer: list[SolveResponse] = []
        self._accepting = True
        self._paused = False  # supervisor's pause-intake action
        self._closed = False
        self._seq = 0
        self._seq_base = (
            journal_seq_base(self.journal_dir)
            if recover and self.journal_dir is not None
            else 0
        )
        self._respawns = {sid: 0 for sid in self.shard_ids}
        self._degraded: set[str] = set()
        self._failed_over: set[str] = set()
        # Router-only counters (shard stats can't see edge decisions).
        self.router_rejections = 0
        self.router_sheds = 0
        self.router_resubmitted = 0
        self.router_recovered_in_flight = 0
        self.router_failovers = 0
        self.router_failover_recovered = 0
        self.router_failover_resubmitted = 0
        self.router_failover_lost = 0
        # Responses recovered verbatim on a full-cluster recover (the
        # SolveService.recover contract, cluster-wide).
        self.recovered: dict[str, SolveResponse] = {}
        self.remap_summary: dict | None = None
        self._shards = {}
        try:
            for sid in self.shard_ids:
                self._shards[sid] = self._spawn(sid, recover=recover)
        except BaseException:
            # Fail-fast construction (a net spec nobody answers, a bad
            # service config) must not leak the replicas already up.
            # Net shards are only disconnected (kill severs the socket;
            # close then skips the remote op): the *remote* services
            # belong to their own hosts and must survive our bad start.
            for shard in self._shards.values():
                try:
                    if getattr(shard, "backend", "") == "net":
                        shard.kill()
                    shard.close()
                except Exception:  # noqa: BLE001 — best-effort cleanup
                    pass
            raise
        if recover:
            high = self._seq - 1
            for shard in self._shards.values():
                for resp in shard.hello["recovered"]:
                    self.recovered[resp.id] = resp
                    high = max(high, resp.submitted_at)
                for rid, order in shard.hello["replayed"]:
                    self._pending[rid] = _Pending(shard.id, None)
                    high = max(high, order)
            self._seq = high + 1

    # -- placement & replica lifecycle ---------------------------------------

    def _spawn(self, shard_id: str, recover: bool = False):
        journal_path = (
            None if self.journal_dir is None
            else shard_journal(self.journal_dir, shard_id)
        )
        if self.shard_backend == "net":
            from repro.cluster.net import NetShard

            host, port = self._shard_specs[shard_id]
            return NetShard(
                shard_id, host, port,
                replica_path=journal_path,
                fsync=self._service_kwargs.get("fsync", 0),
                **self._net_options,
            )
        cls = (
            ProcessShard if self.shard_backend == "process"
            and shard_id not in self._degraded else InlineShard
        )
        snapshot_path = (
            None if self.snapshot_dir is None
            else self.snapshot_dir / f"{shard_id}.snapshot"
        )
        return cls(
            shard_id, self._service_kwargs,
            journal_path=journal_path, snapshot_path=snapshot_path,
            recover=recover,
        )

    @property
    def active_shard_ids(self) -> list[str]:
        """Shards still owning keyspace (failed-over ones excluded)."""
        return [
            sid for sid in self.shard_ids if sid not in self._failed_over
        ]

    def shard_of(self, request) -> str:
        """Which shard a request (or bare problem) routes to."""
        if not isinstance(request, SolveRequest):
            request = SolveRequest(problem=request)
        return self.ring.lookup(request_route_key(request))

    def _reconcile_hello(self, shard_id: str, hello: dict) -> None:
        """Reconcile the in-flight map against a revived (or
        reconnected) shard's hello — the exactly-once core shared by
        process respawn and network reconnect.

        For every pending id on the shard: journal-answered → deliver
        the recorded response (from the hello, or from the shipped
        replica when the remote restarted leaner); journal-replayed →
        still queued, the next drain answers it; in neither → the
        crash landed between send and journal append, so the request
        the router kept (or the replica's copy of it) is re-submitted —
        safe, because no journal record means no solve ever started.
        """
        shard = self._shards[shard_id]
        recovered = {r.id: r for r in hello["recovered"]}
        replayed = {rid for rid, _ in hello["replayed"]}
        replica = getattr(shard, "replica", None)
        replica_maps: tuple[dict, dict] | None = None

        def from_replica() -> tuple[dict, dict]:
            nonlocal replica_maps
            if replica_maps is None:
                replica_maps = replay_full(replica.path)
            return replica_maps

        for rid, entry in list(self._pending.items()):
            if entry.shard != shard_id:
                continue
            if rid in recovered:
                # Answered before the crash; response journaled, never
                # delivered.  Deliver the recorded one — exactly once.
                self._buffer.append(recovered[rid])
                del self._pending[rid]
                self.router_recovered_in_flight += 1
            elif rid in replayed:
                pass  # still queued; the next drain answers it
            elif replica is not None and replica.answered(rid):
                self._buffer.append(from_replica()[1][rid])
                del self._pending[rid]
                self.router_recovered_in_flight += 1
            else:
                request = entry.request
                if request is None and replica is not None:
                    request = from_replica()[0].get(rid)
                if request is not None:
                    try:
                        shard.call("submit", request)
                    except DuplicateRequestError:
                        pass  # journaled after all; accepted
                    self.router_resubmitted += 1

    def _revive(self, shard_id: str) -> dict:
        """Respawn a dead replica from its journal and reconcile the
        in-flight map against its hello.  Returns the hello."""
        old = self._shards.get(shard_id)
        if old is not None and isinstance(old, ProcessShard):
            old.kill()  # reap the corpse; idempotent on a dead child
        self._respawns[shard_id] += 1
        if (
            self._respawns[shard_id] > self.max_respawns
            and shard_id not in self._degraded
        ):
            # Ladder exhausted: keep the keyspace slice served from an
            # in-process replica instead of crash-looping.
            self._degraded.add(shard_id)
        shard = self._spawn(shard_id, recover=self.journal_dir is not None)
        self._shards[shard_id] = shard
        self._reconcile_hello(shard_id, shard.hello)
        return shard.hello

    def _revive_loop(self, shard_id: str) -> dict:
        """Revive until a replica survives its own startup; terminates
        because the ladder bottoms out at InlineShard (cannot crash)."""
        while True:
            try:
                return self._revive(shard_id)
            except ShardCrashedError:
                continue

    def _recover_shard(self, shard_id: str) -> dict | None:
        """Bring a crashed shard back into service — or fail it over.

        Process/inline shards respawn from their local journals (the
        ladder terminates at inline, so this always succeeds and
        returns the hello).  Net shards reconnect with backoff; when
        the host stays unreachable — or was already failed over — the
        keyspace moves to survivors and ``None`` is returned, which is
        every caller's signal that this shard id no longer serves.
        """
        if shard_id in self._failed_over:
            return None
        shard = self._shards[shard_id]
        if getattr(shard, "backend", "") == "net":
            try:
                hello = shard.reconnect()
                self._reconcile_hello(shard_id, hello)
                return hello
            except ShardCrashedError:
                self.failover(shard_id)
                return None
        return self._revive_loop(shard_id)

    def _call(self, shard_id: str, op: str, *args):
        """One shard op with crash-recover-retry (idempotent ops only —
        ``submit`` has its own loop in :meth:`submit`).  Returns
        ``None`` when the shard was failed over mid-call."""
        while shard_id not in self._failed_over:
            try:
                return self._shards[shard_id].call(op, *args)
            except ShardCrashedError:
                self._recover_shard(shard_id)
        return None

    # -- host-loss failover --------------------------------------------------

    def failover(self, shard_id: str) -> dict:
        """Move a dead host's keyspace onto the survivors.

        This is the host-loss counterpart of the respawn ladder: the
        shard's ring points are removed, and its shipped replica
        journal — the router-side byte-for-byte copy synchronous
        shipping guaranteed is complete up to every delivered
        response — is replayed:

        1. **answered** pending ids get their recorded responses
           delivered verbatim (zero double-answers: the dead shard can
           never deliver them again, and the records are full-fidelity
           so the bytes match an undisturbed run);
        2. **journaled-but-unanswered** requests are re-routed through
           the shrunken ring and re-submitted in their original
           submission order (zero losses: the journal record proves
           admission, so the promise outlives the host; determinism of
           the solver makes the survivor's answer bit-identical);
        3. pending ids with **no journal record** are re-submitted from
           the router's own in-flight copy; only an id with neither a
           replica record nor a router copy — impossible while
           shipping is on — is counted ``router_failover_lost``.

        The consumed replica is archived to ``failover-NNN/`` beside
        the remap archives.  Returns a summary dict.  Raises
        :class:`ShardCrashedError` when no survivors remain.
        """
        shard = self._shards[shard_id]
        if shard_id in self._failed_over:
            return {"shard": shard_id, "already": True}
        survivors = [s for s in self.active_shard_ids if s != shard_id]
        if not survivors:
            raise ShardCrashedError(
                f"{shard_id} is unreachable and no shards survive to "
                "fail over to"
            )
        replica = getattr(shard, "replica", None)
        replica_path = None
        if replica is not None:
            replica.close()
            replica_path = replica.path
        self._failed_over.add(shard_id)
        self.ring.remove(shard_id)
        shard.kill()
        self.router_failovers += 1
        recovered = resubmitted = lost = 0
        requests, responses = (
            replay_full(replica_path) if replica_path is not None
            else ({}, {})
        )
        # 1. answered ids: deliver the recorded responses.
        for rid, entry in list(self._pending.items()):
            if entry.shard == shard_id and rid in responses:
                self._buffer.append(responses[rid])
                del self._pending[rid]
                recovered += 1
        # 2. journaled-unanswered: re-route in submission order.  This
        # also covers ids the router never got to mark pending (the
        # crash landed inside their submit call).
        unanswered = [
            requests[rid] for rid in requests if rid not in responses
        ]
        unanswered.sort(key=lambda r: r._order)
        for request in unanswered:
            target = self._submit_direct(request)
            self._pending[request.id] = _Pending(target, request)
            resubmitted += 1
        # 3. pendings with no journal record: the router's copy is the
        # only one — re-route it too (no record, no solve, so no dup).
        for rid, entry in list(self._pending.items()):
            if entry.shard != shard_id:
                continue
            if entry.request is not None:
                target = self._submit_direct(entry.request)
                self._pending[rid] = _Pending(target, entry.request)
                resubmitted += 1
            else:
                del self._pending[rid]
                lost += 1
        self.router_failover_recovered += recovered
        self.router_failover_resubmitted += resubmitted
        self.router_failover_lost += lost
        if replica_path is not None and self.journal_dir is not None:
            generation = len(list(self.journal_dir.glob("failover-*")))
            archive = self.journal_dir / f"failover-{generation:03d}"
            archive.mkdir(parents=True, exist_ok=True)
            replica_path.rename(archive / replica_path.name)
        return {
            "shard": shard_id,
            "recovered": recovered,
            "resubmitted": resubmitted,
            "lost": lost,
            "survivors": survivors,
        }

    def _submit_direct(self, request) -> str:
        """Re-route one request through the current ring until a live
        shard accepts it (used by failover; cascading failures keep
        re-looking-up as the ring shrinks)."""
        while True:
            target = self.ring.lookup(request_route_key(request))
            try:
                self._shards[target].call("submit", request)
                return target
            except DuplicateRequestError:
                return target  # already journaled there; accepted
            except ShardCrashedError:
                hello = self._recover_shard(target)
                if hello is not None:
                    if request.id in {r for r, _ in hello["replayed"]}:
                        return target
                    continue  # recovered; retry the send
                # target failed over too: the ring changed, re-route

    def failover_unreachable(self) -> list[str]:
        """Probe every active net shard; fail over those that stay
        unreachable after the reconnect backoff.  The supervisor's
        ``FailoverShard`` action calls this.  Returns the shard ids
        failed over (empty when every probe or reconnect succeeded)."""
        failed: list[str] = []
        for sid in list(self.active_shard_ids):
            shard = self._shards[sid]
            if getattr(shard, "backend", "") != "net":
                continue
            try:
                shard.ping(timeout=self.ping_timeout)
            except ShardCrashedError:
                if self._recover_shard(sid) is None:
                    failed.append(sid)
        return failed

    # -- intake --------------------------------------------------------------

    @property
    def pending(self) -> int:
        """In-flight requests across the whole cluster."""
        return len(self._pending)

    def _pending_on(self, shard_id: str) -> int:
        return sum(
            1 for entry in self._pending.values() if entry.shard == shard_id
        )

    def admission_decision(self, request, **options) -> tuple[str, str | None]:
        """Preview the router's admission outcome for ``request`` (or a
        bare problem) without submitting it — the cluster counterpart
        of :meth:`SolveService.admission_decision`, with the routed
        shard id as the admission kind.  The network edge uses it to
        turn a ``block`` verdict into socket backpressure."""
        if not isinstance(request, SolveRequest):
            request = SolveRequest(problem=request, **options)
        if not self._accepting:
            return "reject", "draining"
        if self._paused:
            return "reject", "paused"
        if not self._admission.config.bounded:
            return "accept", None
        shard_id = self.ring.lookup(request_route_key(request))
        return self._admission.decide(
            shard_id, len(self._pending), self._pending_on(shard_id)
        )

    def pause_intake(self) -> None:
        """Refuse new submissions (``overloaded`` errors) until
        :meth:`resume_intake`; in-flight work keeps draining."""
        self._paused = True

    def resume_intake(self) -> None:
        self._paused = False

    @property
    def intake_paused(self) -> bool:
        return self._paused

    @property
    def admission_policy(self) -> str:
        return self._admission.config.policy

    def set_admission_policy(self, policy: str) -> str:
        """Switch the router's overload policy live; returns the
        previous policy so the caller can restore it."""
        if policy not in ADMISSION_POLICIES:
            raise ValueError(
                f"unknown admission policy {policy!r}; "
                f"expected one of {ADMISSION_POLICIES}"
            )
        old = self._admission.config.policy
        self._admission.config.policy = policy
        return old

    def _admit(self, shard_id: str) -> None:
        """Edge admission with shard id as the kind: shed/reject at the
        router before a hot shard's queue can overflow."""
        action, scope = self._admission.decide(
            shard_id, len(self._pending), self._pending_on(shard_id)
        )
        if action == "accept":
            return
        if action == "reject":
            self.router_rejections += 1
            limit = (
                "cluster-wide in-flight limit" if scope == "queue"
                else f"{shard_id}'s fair share"
            )
            raise OverloadedError(
                f"cluster queue full ({limit}, policy 'reject-newest'); "
                "back off and resubmit"
            )
        if action == "block":
            # Backpressure: drain the cluster; responses land in the
            # collect buffer, the caller pays the latency.
            self._buffer.extend(self._drain_shards())
            return
        # shed-oldest: evict from the population whose limit fired —
        # the routed shard when its share is full, else the hottest.
        # A shard's in-flight count can exceed its *queued* count (a
        # shard-internal shed parks the answer in its completed buffer
        # while the router still counts the id in flight), so a "queue"
        # shed falls back across shards by pending count; when nobody
        # has an evictable request the submit is rejected — accepting
        # anyway would silently overrun the bound.
        if scope == "kind":
            candidates = [shard_id]
        else:
            candidates = sorted(
                self.active_shard_ids, key=self._pending_on, reverse=True
            )
        response = None
        for sid in candidates:
            response = self._call(sid, "shed")
            if response is not None:
                break
        if response is None:
            self.router_rejections += 1
            raise OverloadedError(
                "cluster queue full (policy 'shed-oldest') with nothing "
                "evictable; back off and resubmit"
            )
        self.router_sheds += 1
        self._pending.pop(response.id, None)
        self._buffer.append(response)

    def submit(self, request, **options) -> str:
        """Route a request (or bare problem) to its shard; returns its id.

        The router assigns the id — content-derived with a
        cluster-global sequence when journaling, ``req-N`` otherwise —
        and stamps the cluster-global submission order, so responses
        merged across shards come back in one submission-ordered
        stream.  Once ``submit`` returns, the request is journaled on
        its shard (when durability is on): a shard crash after this
        point can never lose it.
        """
        if not isinstance(request, SolveRequest):
            request = SolveRequest(problem=request, **options)
        elif options:
            raise TypeError("options only apply when submitting a bare problem")
        check_solvable(request)
        if not self._accepting:
            self.router_rejections += 1
            raise OverloadedError(
                "cluster is draining for shutdown; no new work accepted"
            )
        if self._paused:
            self.router_rejections += 1
            raise OverloadedError(
                "intake is paused (supervisor load-shedding); "
                "back off and resubmit"
            )
        shard_id = self.ring.lookup(request_route_key(request))
        if self._admission.config.bounded:
            self._admit(shard_id)
        if request.id is None:
            if self.journal_dir is not None:
                request.id = derive_request_id(
                    request, self._seq_base + self._seq
                )
            else:
                request.id = f"req-{self._seq}"
        if request.id in self._pending:
            raise DuplicateRequestError(
                f"request id {request.id!r} is already in flight on "
                f"{self._pending[request.id].shard}"
            )
        request._order = self._seq  # type: ignore[attr-defined]
        self._seq += 1
        while True:
            try:
                rid = self._shards[shard_id].call("submit", request)
                break
            except DuplicateRequestError:
                # A failover running under this submit (the shard died
                # with our request journaled-and-shipped) may have
                # re-routed it already; the duplicate *is* acceptance.
                if request.id in self._pending:
                    rid = request.id
                    break
                raise
            except ShardCrashedError:
                # The shard died with our submit in flight.  Ground
                # truth, in order of authority: a failover that already
                # re-routed it (pending holds it), the revival hello's
                # replay set, the shipped replica's journal record.
                # None of those → the record never existed; re-route
                # and retry the send.
                hello = self._recover_shard(shard_id)
                if hello is None:
                    if request.id in self._pending:
                        rid = request.id
                        break
                    shard_id = self.ring.lookup(request_route_key(request))
                    continue
                if request.id in {r for r, _ in hello["replayed"]}:
                    rid = request.id
                    break
                replica = getattr(self._shards[shard_id], "replica", None)
                if replica is not None and request.id in replica:
                    rid = request.id
                    break
        self._pending.setdefault(rid, _Pending(shard_id, request))
        return rid

    # -- delivery ------------------------------------------------------------

    def _take_buffer(self) -> list[SolveResponse]:
        out = self._buffer
        self._buffer = []
        return out

    def _broadcast(self, op: str, *args) -> list[SolveResponse]:
        """Run a response-list op on every shard, overlapped: send to
        all, then gather — process replicas compute concurrently.
        Crashed shards are revived and retried (their journals make the
        retry exactly-once)."""
        started: list[str] = []
        crashed: list[str] = []
        for sid in self.active_shard_ids:
            try:
                self._shards[sid].start(op, *args)
                started.append(sid)
            except ShardCrashedError:
                crashed.append(sid)
        responses: list[SolveResponse] = []
        for sid in started:
            try:
                responses.extend(self._shards[sid].finish())
            except ShardCrashedError:
                crashed.append(sid)
        for sid in crashed:
            if self._recover_shard(sid) is None:
                continue  # failed over; its work moved to survivors
            responses.extend(self._call(sid, op, *args) or [])
        return responses

    def _drain_shards(self) -> list[SolveResponse]:
        # One broadcast round is not always enough: a crash inside it
        # re-routes in-flight work (revive resubmission, or a failover
        # moving a dead host's queue onto survivors) *after* those
        # survivors already answered this round.  Keep draining until a
        # round completes without re-routing anything — terminates
        # because the respawn ladder bottoms out at inline and the
        # ring only ever shrinks.
        out: list[SolveResponse] = []
        while True:
            mark = self.router_resubmitted + self.router_failover_resubmitted
            responses = self._broadcast("drain")
            for resp in responses:
                self._pending.pop(resp.id, None)
            out.extend(responses)
            if (
                self.router_resubmitted + self.router_failover_resubmitted
                == mark
            ):
                return out

    def drain(self) -> list[SolveResponse]:
        """Answer everything queued on every shard; responses merged
        into cluster submission order (buffered out-of-band responses —
        shed victims, revive-recovered answers — included)."""
        # Shard drains run first: a revive inside the broadcast buffers
        # journal-recovered answers, and taking the buffer afterwards
        # delivers them in *this* drain, not the next one.
        responses = self._drain_shards()
        out = self._take_buffer() + responses
        out.sort(key=lambda r: r.submitted_at)
        return out

    def collect(self) -> list[SolveResponse]:
        """Undelivered completed responses from every shard plus the
        router's own buffer, in submission order."""
        responses = self._broadcast("collect")
        out = self._take_buffer() + responses
        for resp in out:
            self._pending.pop(resp.id, None)
        out.sort(key=lambda r: r.submitted_at)
        return out

    def solve(self, request, **options) -> SolveResponse:
        """Submit one job and drain its shard; other completions are
        retained for :meth:`collect` (single-service semantics)."""
        rid = self.submit(request, **options)
        mine: SolveResponse | None = None
        for response in self.drain():
            if mine is None and response.id == rid:
                mine = response
            else:
                self._buffer.append(response)
        if mine is None:  # pragma: no cover — drain always answers rid
            raise RuntimeError(f"no response produced for request {rid!r}")
        return mine

    # -- health --------------------------------------------------------------

    def shard_health(self) -> dict[str, str]:
        """Passive liveness view — unlike :meth:`ping`, nothing is
        probed or respawned.  Shard id → ``"ok"`` (live process or
        healthy inline replica), ``"degraded-inline"`` (respawn ladder
        exhausted; serving in-process), ``"dead"`` (child exited; the
        next use — or an explicit :meth:`ping` — respawns it),
        ``"unreachable"`` (net shard's connection is down; the next use
        reconnects or fails over) or ``"failed-over"`` (keyspace moved
        to survivors)."""
        health: dict[str, str] = {}
        for sid in self.shard_ids:
            if sid in self._failed_over:
                health[sid] = "failed-over"
            elif sid in self._degraded:
                health[sid] = "degraded-inline"
            elif self._shards[sid].alive:
                health[sid] = "ok"
            elif getattr(self._shards[sid], "backend", "") == "net":
                health[sid] = "unreachable"
            else:
                health[sid] = "dead"
        return health

    def ping(self) -> dict[str, str]:
        """Probe every replica (``ping_timeout`` budget each; a probe a
        hung child cannot answer kills it — see
        :meth:`ProcessShard.ping`).  Dead ones are respawned from
        their journals (degrading to inline past ``max_respawns``);
        unreachable net shards reconnect or fail over.  Returns shard
        id → ``"ok"`` / ``"respawned"`` / ``"failed-over"``."""
        health: dict[str, str] = {}
        for sid in self.shard_ids:
            if sid in self._failed_over:
                health[sid] = "failed-over"
                continue
            shard = self._shards[sid]
            if shard.alive:
                try:
                    shard.ping(timeout=self.ping_timeout)
                    health[sid] = "ok"
                    continue
                except ShardCrashedError:
                    pass
            health[sid] = (
                "respawned" if self._recover_shard(sid) is not None
                else "failed-over"
            )
        return health

    # -- observability -------------------------------------------------------

    def stats(self) -> ClusterStats:
        # Health first: the per-shard stats RPC below revives any dead
        # *local* replica as a side effect, and the snapshot should
        # report the state that *triggered* the revival, not hide it.
        health = self.shard_health()
        per_shard = {}
        for sid in self.active_shard_ids:
            shard = self._shards[sid]
            if getattr(shard, "backend", "") == "net":
                # A scrape stays passive across hosts: no reconnect
                # backoff, no failover.  A failed probe just drops the
                # connection, so the next poll reports "unreachable"
                # and healing stays with ping()/traffic/the
                # supervisor's failover-shard action.
                if not shard.alive:
                    continue
                try:
                    per_shard[sid] = shard.call("stats")
                except ShardCrashedError:
                    continue
                continue
            snapshot = self._call(sid, "stats")
            if snapshot is not None:  # shard failed over mid-scrape
                per_shard[sid] = snapshot
        aggregate = functools.reduce(
            ServiceStats.merge, per_shard.values(), ServiceStats()
        )
        net_shards = [
            shard for shard in self._shards.values()
            if getattr(shard, "backend", "") == "net"
        ]
        router = {
            "shards": len(self.shard_ids),
            "backend": self.shard_backend,
            "vnodes": self.ring.vnodes,
            "pending": len(self._pending),
            "pending_by_shard": {
                sid: self._pending_on(sid) for sid in self.shard_ids
            },
            "rejections": self.router_rejections,
            "sheds": self.router_sheds,
            "respawns": dict(self._respawns),
            "degraded": sorted(self._degraded),
            "health": health,
            "resubmitted_in_flight": self.router_resubmitted,
            "recovered_in_flight": self.router_recovered_in_flight,
            "failovers": self.router_failovers,
            "failed_over": sorted(self._failed_over),
            "failover_recovered": self.router_failover_recovered,
            "failover_resubmitted": self.router_failover_resubmitted,
            "failover_lost": self.router_failover_lost,
            "shipped_records": sum(s.shipped_records for s in net_shards),
            "reconnects": sum(s.reconnects for s in net_shards),
        }
        return ClusterStats(
            shards=per_shard, aggregate=aggregate, router=router
        )

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def recover(cls, journal_dir, shards: int = 4, **kwargs) -> "ClusterService":
        """Rebuild a cluster from its journal directory after a crash.

        Runs the :class:`~repro.cluster.recovery.RecoveryCoordinator`
        first: when the journals were written by a *different* shard
        count (or layout), every record is re-routed through the new
        hash ring and rewritten into per-shard journals — answered ids
        move as request+response pairs (a later crash still finds them
        answered), unanswered ones as requests in their original
        submission order.  Each shard then recovers its own journal
        exactly like a single service: re-solve the unanswered, return
        the answered verbatim via :attr:`recovered`, answer nothing
        twice.

        With ``shard_backend="net"`` the coordinator is skipped: the
        journals under ``journal_dir`` are *replicas* of remote WALs,
        and rewriting them would desynchronize the line-count cursors
        reconnect catch-up depends on.  A net cluster therefore
        recovers into the **same layout** it ran with (the remotes
        replay their own journals; the hellos rebuild the in-flight
        map) — changing the shard count of a net cluster is an offline
        remap of the remote journals, not a router-side restart.
        """
        if kwargs.get("shard_backend") == "net":
            return cls(
                shards=shards, journal_dir=journal_dir, recover=True,
                **kwargs,
            )
        from repro.cluster.recovery import RecoveryCoordinator

        shard_ids = [f"shard-{i}" for i in range(shards)]
        coordinator = RecoveryCoordinator(
            journal_dir, shard_ids, vnodes=kwargs.get("vnodes", 64)
        )
        summary = coordinator.apply()
        service = cls(
            shards=shards, journal_dir=journal_dir, recover=True, **kwargs
        )
        service.remap_summary = summary
        return service

    def shutdown(self, deadline_s: float | None = None) -> list[SolveResponse]:
        """Graceful cluster drain: admission stops, every shard answers
        queued work under the deadline, the rest stays journaled for
        the next :meth:`recover`.  Returns the merged answered
        responses in submission order."""
        self._accepting = False
        responses = self._broadcast("shutdown", deadline_s)
        responses += self._take_buffer()
        for resp in responses:
            self._pending.pop(resp.id, None)
        responses.sort(key=lambda r: r.submitted_at)
        for shard in self._shards.values():  # reap exited replicas
            try:
                shard.close()
            except ShardCrashedError:  # pragma: no cover — dying replica
                pass
        self._closed = True
        return responses

    def close(self) -> None:
        if self._closed:
            return
        for shard in self._shards.values():
            try:
                shard.close()
            except ShardCrashedError:  # pragma: no cover — dying replica
                pass
        self._closed = True

    def __enter__(self) -> "ClusterService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
