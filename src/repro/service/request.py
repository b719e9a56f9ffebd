"""Service job objects: requests in, responses out.

A :class:`SolveRequest` wraps any problem object the library can solve
plus per-request solver options; a :class:`SolveResponse` pairs the
request id with the :class:`~repro.core.result.SolveResult` (or the
classified error that prevented one — ``error_kind`` carries the
machine-readable taxonomy tag of :mod:`repro.errors`) and records how
the service handled the job — warm-started, batched, retried, which
engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.api import supports
from repro.core.convergence import StoppingRule
from repro.core.problems import ElasticProblem, FixedTotalsProblem, SAMProblem
from repro.core.result import SolveResult
from repro.errors import InvalidProblemError

__all__ = ["SolveRequest", "SolveResponse", "check_solvable", "resolve_stop"]

# Problem types the sparse engine (repro.sparse.sea) solves.
_SPARSE_KINDS = (FixedTotalsProblem, ElasticProblem, SAMProblem)

# Paper-default tolerances per problem kind (Section 3 stopping rules).
_DEFAULT_STOPS: dict[str, tuple[float, str]] = {
    "fixed": (1e-2, "delta-x"),
    "elastic": (1e-2, "delta-x"),
    "sam": (1e-3, "imbalance"),
    "general-fixed": (1e-3, "delta-x"),
    "general-elastic": (1e-3, "delta-x"),
    "general-sam": (1e-3, "delta-x"),
}


@dataclass
class SolveRequest:
    """One unit of work for the solve service.

    Parameters
    ----------
    problem:
        Any problem object accepted by :func:`repro.core.api.solve`
        (fixed/elastic/SAM/general and the extension classes).
    id:
        Caller-chosen identifier echoed in the response; auto-assigned
        by the service when omitted.
    eps, max_iterations, criterion:
        Optional stopping-rule overrides.  Unset fields fall back to
        the paper defaults for the problem's kind; when all three are
        unset the solver's own default rule applies.
    warm_start:
        Allow seeding ``mu0`` from the warm-start cache.
    batchable:
        Allow fusing this request into a same-kind, same-shape batch
        (fixed, elastic and SAM problems on the dense engine).
    engine:
        ``'dense'`` (default) or ``'sparse'`` — the sparse engine routes
        masked diagonal problems through :mod:`repro.sparse.sea`.
    deadline_s:
        Wall-clock budget for this request (seconds); overruns answer
        with ``error_kind='deadline-exceeded'``.  ``None`` falls back to
        the service default.
    retries:
        Extra attempts after *transient* errors (worker crashes,
        unclassified internal faults); deterministic errors are never
        retried.  ``None`` falls back to the service default.
    strict:
        Treat a non-converged result as an error
        (``error_kind='non-convergence'``) instead of an ``ok``
        response with ``converged=False``.
    """

    problem: object
    id: str | None = None
    eps: float | None = None
    max_iterations: int | None = None
    criterion: str | None = None
    warm_start: bool = True
    batchable: bool = True
    engine: str = "dense"
    deadline_s: float | None = None
    retries: int | None = None
    strict: bool = False

    def __post_init__(self) -> None:
        if self.engine not in ("dense", "sparse"):
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise InvalidProblemError("deadline_s must be positive")
        if self.retries is not None and self.retries < 0:
            raise InvalidProblemError("retries must be >= 0")


def check_solvable(request: SolveRequest) -> None:
    """Refuse a request no solver of its engine takes.

    Raises :class:`~repro.errors.InvalidProblemError` — deterministic,
    so the service rejects it at submit, before journaling, instead of
    retrying a failure that would repeat on every attempt."""
    problem = request.problem
    if request.engine == "sparse":
        ok = type(problem) in _SPARSE_KINDS
    else:
        ok = supports(problem)
    if not ok:
        raise InvalidProblemError(
            f"the {request.engine} engine has no solver for "
            f"{type(problem).__name__}"
        )


def resolve_stop(request: SolveRequest, kind: str) -> StoppingRule | None:
    """Build the request's stopping rule, or ``None`` for solver defaults.

    Raises :class:`~repro.errors.InvalidProblemError` on out-of-domain
    overrides (``eps <= 0``, ``max_iterations < 1``) so a bad request
    dies with a classified error before it touches the worker pool.
    """
    if (
        request.eps is None
        and request.max_iterations is None
        and request.criterion is None
    ):
        return None
    if request.eps is not None and request.eps <= 0:
        raise InvalidProblemError(
            f"eps must be positive, got {request.eps!r}"
        )
    if request.max_iterations is not None and request.max_iterations < 1:
        raise InvalidProblemError(
            f"max_iterations must be >= 1, got {request.max_iterations!r}"
        )
    eps_default, criterion_default = _DEFAULT_STOPS.get(kind, (1e-2, "delta-x"))
    return StoppingRule(
        eps=request.eps if request.eps is not None else eps_default,
        criterion=request.criterion or criterion_default,
        max_iterations=request.max_iterations or 10_000,
    )


@dataclass
class SolveResponse:
    """Outcome of one service job."""

    id: str
    result: SolveResult | None = None
    error: str | None = None
    error_kind: str | None = None  # taxonomy tag of repro.errors
    kind: str = ""
    elapsed: float = 0.0  # service-side solve time (excludes queueing)
    warm_started: bool = False
    cache_exact: bool = False
    batched: bool = False
    retries: int = 0  # transient-error re-attempts this response cost
    submitted_at: int = field(default=0, repr=False)  # submission order

    @property
    def ok(self) -> bool:
        return self.error is None and self.result is not None

    @property
    def converged(self) -> bool:
        return self.ok and self.result.converged
