"""Adaptive 1-d quadrature for integrands with endpoint singularities, plus
extrapolation of eps -> 0 limits with convergence classification.

The base rule is 15-point Gauss-Legendre per panel.  Refinement bisects the
panel with the worst error estimate (whole-panel value vs. sum of halves).
When an endpoint is flagged singular, the initial panels are graded
geometrically toward it with ratio 1/2, which resolves integrands such as
1/r, log(1/r) and powers of log that concentrate over many decades.

Integrands are array functions: ``f`` maps a 1-d array of nodes to an array
of values of the same shape.  ``integrate`` calls it once on the 45 nodes
(the whole-panel rule and both halves) of every initial panel together, and
then once per split, on the 90 nodes of the two children.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "QuadConfig",
    "QuadResult",
    "LimitResult",
    "InsufficientSamplesError",
    "NonConvergenceError",
    "integrate",
    "integrate_to_limit",
    "DEFAULT_EPS_SEQUENCE",
    "DEEP_EPS_SEQUENCE",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)

#: eps sequence for limits of well-decomposed quantities (contraction is at
#: least geometric for every profile class used here)
DEFAULT_EPS_SEQUENCE = tuple(10.0**-j for j in range(1, 7))

#: doubly-geometric sequence for classification experiments; slow logarithmic
#: behavior only reveals growth or oscillation when log(1/eps) itself is
#: sampled geometrically, and double precision allows eps down to ~1e-300
DEEP_EPS_SEQUENCE = tuple(10.0**-g for g in (1, 2, 4, 8, 16, 32, 64, 128, 250))


class InsufficientSamplesError(RuntimeError):
    """Fewer than four usable evaluations in a limit computation."""


class NonConvergenceError(ArithmeticError):
    """An integral was asked for its value but carries converged=False."""


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances and subdivision limits for singular-endpoint quadrature."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_depth: int = 48
    endpoint_grading: int = 52

    def __post_init__(self) -> None:
        if not self.abs_tol > 0.0:
            raise ValueError("abs_tol must be positive")
        if not self.rel_tol > 0.0:
            raise ValueError("rel_tol must be positive")
        if self.max_depth < 10:
            raise ValueError("max_depth must be at least 10")
        if self.endpoint_grading < 1:
            raise ValueError("endpoint_grading must be at least 1")


@dataclass
class QuadResult:
    value: float
    err_est: float
    converged: bool = True

    def __iter__(self):
        yield self.value
        yield self.err_est

    def value_or_raise(self) -> float:
        """The value, or NonConvergenceError when it carries no verdict."""
        if not self.converged:
            raise NonConvergenceError(
                f"integral did not converge: value {self.value}, error {self.err_est}")
        return self.value


def _panels(f, lo: np.ndarray, hi: np.ndarray):
    """(refined values, error estimates) of the panels [lo, hi] from one call
    of f on the 45 nodes of each: the rule on the whole panel and both halves."""
    mid = 0.5 * (lo + hi)
    a = np.stack([lo, lo, mid], axis=-1)
    b = np.stack([hi, mid, hi], axis=-1)
    half = 0.5 * (b - a)
    x = (0.5 * (a + b))[..., None] + half[..., None] * _GL_NODES
    fx = np.broadcast_to(f(x.ravel()), x.size).reshape(x.shape)
    rules = half * (fx @ _GL_WEIGHTS)
    fine = rules[:, 1] + rules[:, 2]
    return fine, np.abs(fine - rules[:, 0])


def _initial_edges(a: float, b: float, singular_end: str, levels: int):
    if singular_end == "none":
        return [a, b]
    width = b - a
    # never grade below the float resolution at the singular endpoint, or the
    # quadrature nodes of the innermost panel would round onto it
    endpoint = a if singular_end == "left" else b
    ulp = max(abs(endpoint) * 2.3e-16, 5e-324)
    cap = int(math.log2(width) - math.log2(ulp)) - 8 if width > ulp else 1
    levels = min(levels, max(cap, 1))
    offsets = [width * 0.5**j for j in range(1, levels + 1)]
    if singular_end == "left":
        edges = [a] + [a + w for w in reversed(offsets)] + [b]
    elif singular_end == "right":
        edges = [a] + [b - w for w in offsets] + [b]
    else:
        raise ValueError(f"singular_end must be none/left/right, got {singular_end!r}")
    return edges


def integrate(f, a: float, b: float, cfg: QuadConfig | None = None,
              singular_end: str = "none") -> QuadResult:
    """Integrate the array function f over (a, b); f is never evaluated at
    the endpoints, and numpy floating-point warnings are silenced inside it.

    Returns a QuadResult; ``converged`` is False when max_depth was exhausted
    before the tolerance was met (the best value is still returned), when
    the value or its error estimate is not finite, and when f raised an
    ArithmeticError (value nan).  Any other exception from f propagates.
    """
    if cfg is None:
        cfg = QuadConfig()
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    try:
        with np.errstate(all="ignore"):
            total, err_total, exhausted = _refine(f, a, b, cfg, singular_end)
    except ArithmeticError:
        return QuadResult(math.nan, math.inf, converged=False)
    finite = math.isfinite(total) and math.isfinite(err_total)
    return QuadResult(total, err_total, converged=finite and not exhausted)


def _refine(f, a: float, b: float, cfg: QuadConfig, singular_end: str):
    """(value, error estimate, depth exhausted) of the adaptive bisection."""
    edges = _initial_edges(a, b, singular_end, cfg.endpoint_grading)
    vals, errs = _panels(f, np.array(edges[:-1]), np.array(edges[1:]))
    heap = [(-e, i, lo, hi, v, 0) for i, (e, lo, hi, v)
            in enumerate(zip(errs.tolist(), edges[:-1], edges[1:], vals.tolist()))]
    heapq.heapify(heap)
    counter = len(heap)
    total = float(np.sum(vals))

    exhausted = False
    max_panels = max(6_000, 4 * len(edges))
    err_total = sum(-item[0] for item in heap)
    splits = 0
    while heap:
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(total))
        # a nan or inf never refines away: the running total keeps it
        if err_total <= tol or not (math.isfinite(total) and math.isfinite(err_total)):
            break
        neg_err, _, lo, hi, val, depth = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        # a panel collapsed to machine width is as unrefinable as one at
        # max_depth; stopping there with significant error is the signature
        # of a non-integrable singularity
        if depth >= cfg.max_depth or counter >= max_panels or not lo < mid < hi:
            heapq.heappush(heap, (neg_err, counter, lo, hi, val, depth))
            exhausted = -neg_err > tol * 0.5
            break
        (v1, v2), (e1, e2) = (x.tolist() for x in _panels(
            f, np.array([lo, mid]), np.array([mid, hi])))
        total += v1 + v2 - val
        err_total += e1 + e2 + neg_err  # running sum; refreshed periodically
        heapq.heappush(heap, (-e1, counter, lo, mid, v1, depth + 1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, mid, hi, v2, depth + 1))
        counter += 1
        splits += 1
        if splits % 512 == 0:
            err_total = sum(-item[0] for item in heap)

    return total, sum(-item[0] for item in heap), exhausted


@dataclass
class LimitResult:
    limit: float
    classification: str  # converged | oscillating | diverging
    samples: list = field(default_factory=list)
    dropped: list = field(default_factory=list)  # (eps, reason) per unusable sample

    def __iter__(self):
        yield self.limit
        yield self.classification


def _aitken(values, stages: int = 2):
    seq = list(values)
    for _ in range(stages):
        if len(seq) < 3:
            break
        nxt = []
        for j in range(len(seq) - 2):
            d1 = seq[j + 1] - seq[j]
            d2 = seq[j + 2] - seq[j + 1]
            den = d2 - d1
            if den == 0.0:
                nxt.append(seq[j + 2])
            else:
                nxt.append(seq[j + 2] - d2 * d2 / den)
        seq = nxt
    return seq[-1]


def classify_sequence(values, abs_tol: float = 1e-10, rel_tol: float = 1e-9):
    """(classification, limit) for a sequence sampled along eps -> 0.

    converged:  tail differences vanish or contract; limit is the (iterated
                Aitken) extrapolation.
    diverging:  monotone with differences that refuse to contract.
    oscillating: sign-changing differences without contraction.
    """
    v = [float(x) for x in values]
    if len(v) < 4:
        raise InsufficientSamplesError(f"need >= 4 samples, got {len(v)}")
    scale = max(max(abs(x) for x in v), 1e-300)
    tol = max(abs_tol, rel_tol * scale)
    # a difference within tol is rounding noise: it has no sign, so it can
    # neither reverse a monotone run nor make a ratio of -1
    d = [x if abs(x) > tol else 0.0
         for x in (v[j + 1] - v[j] for j in range(len(v) - 1))]

    if all(abs(x) <= tol for x in d[-3:]):
        return "converged", v[-1]

    signed = [x for x in d if x != 0.0]
    monotone = all(x > 0 for x in signed) or all(x < 0 for x in signed)
    ratios = [d[j + 1] / d[j] for j in range(len(d) - 1) if d[j] != 0.0]
    tail_ratios = ratios[-3:] if len(ratios) >= 3 else ratios
    rho = float(np.median(tail_ratios)) if tail_ratios else 0.0
    peak = max(abs(x) for x in d)
    tail = 0.5 * (abs(d[-1]) + abs(d[-2]))
    decay = tail / max(peak, 1e-300)

    if monotone:
        # differences that refuse to decay relative to their peak mean growth
        # without end; the median ratio tolerates isolated modulation spikes,
        # and a ratio pinned near 1 counts only if the tail is still material
        if decay >= 0.5 or (rho >= 0.92 and decay >= 0.2):
            return "diverging", float("nan")
        return "converged", _aitken(v)
    # sign-changing differences: only a consistently contracting tail counts
    # as (damped, alternating) convergence
    if tail_ratios and all(abs(x) <= 0.9 for x in tail_ratios):
        return "converged", _aitken(v)
    return "oscillating", float("nan")


def integrate_to_limit(F, eps_sequence) -> LimitResult:
    """Evaluate F along a decreasing eps sequence and extrapolate the limit.

    Evaluations that raise ArithmeticError or ValueError or return non-finite
    values are dropped and recorded with their reason; at least four
    successes are required.
    """
    eps = list(eps_sequence)
    if len(eps) < 4 or any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])) or eps[-1] <= 0:
        raise ValueError("eps_sequence must be strictly decreasing, positive, length >= 4")
    samples, dropped = [], []
    for e in eps:
        try:
            val = float(F(e))
        except (ArithmeticError, ValueError) as exc:
            dropped.append((e, f"{type(exc).__name__}: {exc}"))
            continue
        if math.isfinite(val):
            samples.append(val)
        else:
            dropped.append((e, f"non-finite value {val}"))
    if len(samples) < 4:
        first = f"; first dropped at eps={dropped[0][0]:g}: {dropped[0][1]}" if dropped else ""
        raise InsufficientSamplesError(
            f"only {len(samples)} of {len(eps)} evaluations usable{first}")
    cls, limit = classify_sequence(samples)
    return LimitResult(limit, cls, samples, dropped)
