"""Seeded inputs of the three workloads.

Every input is a pure function of ``(seed, request index)``: a request
draws its perturbations from its own ``numpy`` stream keyed
``[seed, purpose, index]``, so inputs can be built lazily, one request
at a time, and the same seed always gives the same problems, request
lines and arrival schedule.

All problems come from the gravity-model migration family
(``repro.datasets.migration.base_migration_table``), the instance family
whose solves run tens to hundreds of sweeps under a tight delta-x stop.
"""

from __future__ import annotations

import json

import numpy as np

from repro.core.problems import ElasticProblem, FixedTotalsProblem, SAMProblem
from repro.datasets.migration import base_migration_table
from repro.io import problem_to_jsonable

#: Stopping rule of solo-cold and edge-net requests.
STOP = {"eps": 1e-4, "criterion": "delta-x", "max_iterations": 5000}
#: service-wal stops at a looser tolerance, so a warm solve costs less
#: than journaling the request and its answer.
SERVICE_STOP = {**STOP, "eps": 1e-3}

# Stream purposes: each kind of draw gets its own stream per index.
_SOLO, _FAMILY, _DRIFT, _SCHEDULE = 1, 2, 3, 4
# Seed of the family bases (see Families).
_BASES = 0

#: solo-cold rotates the three diagonal kinds at sizes of equal cost
#: (elastic iterates ~15x more sweeps than fixed/SAM at one size).
SOLO_KINDS = ("elastic", "fixed", "sam")
SOLO_SIZES = {"elastic": 120, "fixed": 400, "sam": 400}

SERVICE_FAMILIES = 8
SERVICE_N = 160

EDGE_FAMILIES = 16
#: Small problems: the serving path (codec, routing, transport, WALs)
#: costs more than the solve.  At n=24, with four times the codec work
#: per request, the latency median spread 19-25% (IQR/median) between
#: seeds; at n=12, 4% (ten-seed sets on one 2-vCPU host, measured at
#: different times).
EDGE_N = 12

_VINTAGE = 6570
_flows_cache: dict[int, np.ndarray] = {}


def _flows(n: int) -> np.ndarray:
    flows = _flows_cache.get(n)
    if flows is None:
        flows = base_migration_table(_VINTAGE, n=n)
        flows.setflags(write=False)
        _flows_cache[n] = flows
    return flows


def _rng(seed: int, purpose: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, purpose, index])


def _mask(n: int) -> np.ndarray:
    return ~np.eye(n, dtype=bool)


def _gamma(rng, n: int, decades: float) -> np.ndarray:
    return np.where(
        _mask(n), 10.0 ** rng.uniform(-decades / 2, decades / 2, (n, n)), 1.0
    )


def _grown(rng, totals: np.ndarray) -> np.ndarray:
    return totals * (1.0 + rng.uniform(0.0, 1.0, totals.shape[0]))


def solo_problem(seed: int, index: int):
    """The ``index``-th solo-cold problem: kinds rotate, every problem is
    distinct (own weights and growth-perturbed totals)."""
    kind = SOLO_KINDS[index % len(SOLO_KINDS)]
    n = SOLO_SIZES[kind]
    flows = _flows(n)
    rng = _rng(seed, _SOLO, index)
    if kind == "elastic":
        return ElasticProblem(
            x0=flows, gamma=np.ones((n, n)),
            s0=_grown(rng, flows.sum(1)), d0=_grown(rng, flows.sum(0)),
            alpha=np.ones(n), beta=np.ones(n), mask=_mask(n),
        )
    gamma = _gamma(rng, n, 3.0)
    s0 = _grown(rng, flows.sum(1))
    if kind == "fixed":
        d0 = _grown(rng, flows.sum(0))
        d0 *= s0.sum() / d0.sum()
        return FixedTotalsProblem(x0=flows, gamma=gamma, s0=s0, d0=d0,
                                  mask=_mask(n))
    return SAMProblem(x0=flows, gamma=gamma, s0=s0, alpha=np.ones(n),
                      mask=_mask(n))


class Families:
    """Revisited problem families: each family fixes its base totals and
    weights (spread over ``decades``; ``0`` gives unit weights), each
    visit drifts the family's totals by at most ``drift``, so warm starts
    find a close bucket-mate.

    The bases are the same for every seed, a fixed population of repeat
    clients; the seed draws each visit's drift.  Bases drawn from the
    seed made the mean warm solve of service-wal's eight families cost
    84-107 sweeps depending on the seed."""

    def __init__(self, seed: int, kind: str, count: int, n: int,
                 drift: float, decades: float) -> None:
        self.seed, self.kind, self.count, self.n = seed, kind, count, n
        self.drift = drift
        flows = _flows(n)
        self._base = []
        for f in range(count):
            rng = _rng(_BASES, _FAMILY, f)
            gamma = _gamma(rng, n, decades) if decades else np.ones((n, n))
            s0 = _grown(rng, flows.sum(1))
            d0 = _grown(rng, flows.sum(0))
            self._base.append((gamma, s0, d0))

    def problem(self, index: int):
        """The ``index``-th visit: family ``index % count``."""
        gamma, s0, d0 = self._base[index % self.count]
        rng = _rng(self.seed, _DRIFT, index)
        n = self.n
        s = s0 * (1.0 + rng.uniform(-self.drift, self.drift, n))
        d = d0 * (1.0 + rng.uniform(-self.drift, self.drift, n))
        flows = _flows(n)
        if self.kind == "elastic":
            return ElasticProblem(x0=flows, gamma=gamma, s0=s, d0=d,
                                  alpha=np.ones(n), beta=np.ones(n),
                                  mask=_mask(n))
        d *= s.sum() / d.sum()
        return FixedTotalsProblem(x0=flows, gamma=gamma, s0=s, d0=d,
                                  mask=_mask(n))


def service_families(seed: int) -> Families:
    return Families(seed, "elastic", SERVICE_FAMILIES, SERVICE_N,
                    drift=0.003, decades=0)


def edge_families(seed: int) -> Families:
    # One decade of weights: wider spreads make the solve cost depend on
    # the family draw (at n=24, 3 decades: 7-12 ms mean per draw; 1
    # decade: 4.0-4.3 ms).
    return Families(seed, "fixed", EDGE_FAMILIES, EDGE_N,
                    drift=0.01, decades=1.0)


def request_line(problem) -> bytes:
    """One edge request frame: no client id, so the router derives it."""
    obj = {"problem": problem_to_jsonable(problem), **STOP}
    return json.dumps(obj, separators=(",", ":")).encode() + b"\n"


def poisson_schedule(seed: int, phase: int, rate: float,
                     seconds: float) -> list[float]:
    """Send offsets of a Poisson process of ``rate`` over ``seconds``,
    with its count fixed at ``round(rate * seconds)`` and its gaps
    stratified: gap ``k`` of ``count`` is the exponential quantile of
    ``(k + u) / count`` (``u`` uniform), and the seed shuffles their
    order.  Every seed offers the same load and the same mix of short
    gaps (the bursts that queue requests and set the p90) in another
    order; with plain draws, the number of gaps shorter than a request's
    service time moved by about 10% from seed to seed.  The first send
    is at 0 and the window ends one gap after the last."""
    count = max(1, round(rate * seconds))
    rng = _rng(seed, _SCHEDULE, phase)
    gaps = -np.log1p(-(np.arange(count) + rng.uniform(0.0, 1.0, count))
                     / count) / rate
    rng.shuffle(gaps)
    offsets = np.concatenate(([0.0], np.cumsum(gaps[1:])))
    return [float(t) for t in offsets * (seconds / gaps.sum())]
