"""Single-entry solver dispatch and problem identity.

``solve(problem)`` routes any problem object in the library to its
solver — the four core classes plus the extension classes — so harness
code, the CLI and downstream users don't need to remember nine function
names.  Keyword arguments are forwarded to the underlying solver; in
particular ``mu0=`` warm-starts every core solver (the hook the solve
service builds on).

``fingerprint(problem)`` condenses a core problem into a
:class:`Fingerprint`: its kind, shape, a *structure* digest (mask +
weight scheme) and a *data* digest (base matrix + totals).  Problems
sharing a structure digest live in the same warm-start ``bucket`` —
their dual multipliers are interchangeable seeds — while the full
``key`` identifies a problem exactly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.core.problems import (
    ElasticProblem,
    FixedTotalsProblem,
    GeneralProblem,
    SAMProblem,
)
from repro.core.result import SolveResult
from repro.core.sea import solve_elastic, solve_fixed, solve_sam
from repro.core.sea_general import solve_general

__all__ = [
    "solve", "supports", "fingerprint", "Fingerprint", "problem_kind",
    "totals_vector",
]


def _digest(*parts) -> str:
    """SHA-1 over the raw bytes of a sequence of arrays (None is inert)."""
    h = hashlib.sha1()
    for part in parts:
        if part is None:
            h.update(b"\x00none")
            continue
        arr = np.ascontiguousarray(part)
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class Fingerprint:
    """Identity of a core constrained matrix problem.

    ``structure`` hashes what must match for dual multipliers to be
    transferable (sparsity mask and weight data); ``data`` hashes the
    base matrix and totals, so ``key`` only collides for problems that
    are byte-identical.
    """

    kind: str
    shape: tuple[int, int]
    structure: str
    data: str

    @property
    def bucket(self) -> tuple:
        """Warm-start compatibility class."""
        return (self.kind, self.shape, self.structure)

    @property
    def key(self) -> tuple:
        """Exact problem identity."""
        return (self.kind, self.shape, self.structure, self.data)


def problem_kind(problem) -> str:
    """Short kind tag for the four core classes (``general-<sub>`` for
    :class:`GeneralProblem`)."""
    if type(problem) is FixedTotalsProblem:
        return "fixed"
    if type(problem) is ElasticProblem:
        return "elastic"
    if type(problem) is SAMProblem:
        return "sam"
    if type(problem) is GeneralProblem:
        return f"general-{problem.kind}"
    raise TypeError(f"no kind tag for {type(problem).__name__}")


def totals_vector(problem) -> np.ndarray:
    """Concatenated totals — the coordinates used to find the *nearest*
    previously-solved problem inside a warm-start bucket."""
    kind = problem_kind(problem)
    if kind in ("sam", "general-sam"):
        return np.asarray(problem.s0, dtype=np.float64)
    return np.concatenate([problem.s0, problem.d0]).astype(np.float64)


def fingerprint(problem) -> Fingerprint:
    """Fingerprint any of the four core problem classes."""
    kind = problem_kind(problem)
    if type(problem) is GeneralProblem:
        structure = _digest(problem.mask, problem.G, problem.A, problem.B)
    elif type(problem) is FixedTotalsProblem:
        structure = _digest(problem.mask, problem.gamma)
    elif type(problem) is ElasticProblem:
        structure = _digest(problem.mask, problem.gamma, problem.alpha, problem.beta)
    else:  # SAMProblem
        structure = _digest(problem.mask, problem.gamma, problem.alpha)
    data = _digest(problem.x0, totals_vector(problem))
    return Fingerprint(
        kind=kind, shape=tuple(problem.shape), structure=structure, data=data
    )


def _solvers() -> dict:
    """Problem type -> solver for every type :func:`solve` accepts."""
    # Extension/substrate types are imported lazily to keep core import
    # costs down and avoid cycles.
    from repro.extensions.bounded import BoundedProblem, solve_bounded
    from repro.extensions.entropy import EntropyProblem, solve_entropy
    from repro.extensions.intervals import IntervalTotalsProblem, solve_intervals
    from repro.spe.model import SpatialPriceProblem, solve_spe

    return {
        FixedTotalsProblem: solve_fixed,
        ElasticProblem: solve_elastic,
        SAMProblem: solve_sam,
        GeneralProblem: solve_general,
        BoundedProblem: solve_bounded,
        IntervalTotalsProblem: solve_intervals,
        EntropyProblem: solve_entropy,
        SpatialPriceProblem: solve_spe,
    }


def supports(problem) -> bool:
    """Whether :func:`solve` has a solver for ``problem``'s type."""
    return type(problem) in _solvers()


def solve(problem, **kwargs) -> SolveResult:
    """Solve any constrained matrix problem with its SEA variant.

    Dispatch table:

    ==============================  =================================
    Problem type                    Solver
    ==============================  =================================
    FixedTotalsProblem              :func:`repro.core.sea.solve_fixed`
    ElasticProblem                  :func:`repro.core.sea.solve_elastic`
    SAMProblem                      :func:`repro.core.sea.solve_sam`
    GeneralProblem                  :func:`repro.core.sea_general.solve_general`
    BoundedProblem                  :func:`repro.extensions.bounded.solve_bounded`
    IntervalTotalsProblem           :func:`repro.extensions.intervals.solve_intervals`
    EntropyProblem                  :func:`repro.extensions.entropy.solve_entropy`
    SpatialPriceProblem             :func:`repro.spe.model.solve_spe`
    ==============================  =================================
    """
    solver = _solvers().get(type(problem))
    if solver is None:
        raise TypeError(
            f"no solver registered for {type(problem).__name__}; "
            "see repro.core.api.solve's docstring for supported types"
        )
    return solver(problem, **kwargs)
