"""Adaptive 1-d quadrature for integrands with endpoint singularities, plus
extrapolation of eps -> 0 limits with convergence classification.

The base rule is the 21-point Gauss-Kronrod rule of QUADPACK's qk21
(Piessens et al. 1983) per panel: the value is the Kronrod sum K21 and the
error estimate is |K21 - G10|, where the 10-point Gauss rule reuses every
other node.  Refinement bisects the panel with the worst error estimate
until the summed estimates meet max(1e-10, 1e-10 * |value|).

When an endpoint e is flagged singular, the initial panels are graded
geometrically toward it with ratio 1/2, which resolves integrands such as
1/r, log(1/r) and powers of log that concentrate over many decades.  The
number of levels comes from the interval alone: log2(max(width/|e|, 4)) + 10
(one per octave between e and the far end, plus ten) when e is nonzero, 52
when e is exactly 0, and never so many that the innermost nodes would round
onto e.

Two rules stop the refinement short of the tolerance, and the result then
reports converged=False: a panel at most 2^8 float spacings of its larger
end wide is not split (the outer nodes of its children would round onto
their ends), and no more than 6,000 panels are made.  There is no depth
limit.

Integrands are array functions: ``f`` maps a 1-d array of nodes to an array
of values of the same shape.  ``integrate`` calls it on the 21 nodes of
consecutive batches of at most 128 initial panels (2,688 nodes a call), so
the size of a call does not grow with the grading depth, and then once per
split, on the 42 nodes of the two children.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "QuadResult",
    "LimitResult",
    "InsufficientSamplesError",
    "NonConvergenceError",
    "integrate",
    "integrate_to_limit",
    "DEFAULT_EPS_SEQUENCE",
    "DEEP_EPS_SEQUENCE",
]

#: QUADPACK qk21: the positive Kronrod abscissae (every other one, from
#: 0.9739..., is a Gauss node), their K21 weights, and the G10 weights
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077208745433924, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068)
_WGK_CENTER = 0.149445554002916905664936468389821
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)

#: the 21 nodes on [-1, 1] in increasing order, with the Kronrod weights and
#: the Gauss weights (zero at the Kronrod-only nodes) aligned to them
_GK_NODES = np.array([-x for x in _XGK] + [0.0] + list(reversed(_XGK)))
_GK_WEIGHTS = np.array(list(_WGK) + [_WGK_CENTER] + list(reversed(_WGK)))
_G_HALF = [0.0, _WG[0], 0.0, _WG[1], 0.0, _WG[2], 0.0, _WG[3], 0.0, _WG[4]]
_G_WEIGHTS = np.array(_G_HALF + [0.0] + list(reversed(_G_HALF)))

#: the integral is converged once the summed error estimates reach
#: max(_ABS_TOL, _REL_TOL * |value|)
_ABS_TOL = 1e-10
_REL_TOL = 1e-10

#: grading levels toward a singular endpoint at exactly 0
_ZERO_END_LEVELS = 52

#: the refinement makes at most this many panels
_MAX_PANELS = 6_000

#: the initial panels are evaluated at most this many to a call of f, which
#: bounds the temporary arrays of a deeply graded interval
_BATCH_PANELS = 128

#: a panel at most this many float spacings of its larger end wide is not
#: split: the outer Kronrod nodes of its children would round onto their ends
_SPLIT_SPACINGS = 2.0**8

#: eps sequence for limits of well-decomposed quantities (contraction is at
#: least geometric for every profile class used here)
DEFAULT_EPS_SEQUENCE = tuple(10.0**-j for j in range(1, 7))

#: doubly-geometric sequence for classification experiments; slow logarithmic
#: behavior only reveals growth or oscillation when log(1/eps) itself is
#: sampled geometrically, and double precision allows eps down to ~1e-300
DEEP_EPS_SEQUENCE = tuple(10.0**-g for g in (1, 2, 4, 8, 16, 32, 64, 128, 250))


class NonConvergenceError(ArithmeticError):
    """A number was asked for that could not be computed: an integral that
    carries converged=False or a limit that did not converge."""


class InsufficientSamplesError(NonConvergenceError):
    """Fewer than four usable evaluations in a limit computation."""


@dataclass
class QuadResult:
    value: float
    err_est: float
    converged: bool = True

    def value_or_raise(self) -> float:
        """The value, or NonConvergenceError when it carries no verdict."""
        if not self.converged:
            raise NonConvergenceError(
                f"integral did not converge: value {self.value}, error {self.err_est}")
        return self.value


def _panels(f, lo: np.ndarray, hi: np.ndarray):
    """(K21 values, |K21 - G10| error estimates) of the panels [lo, hi] from
    one call of f on the 21 Kronrod nodes of each."""
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + half[:, None] * _GK_NODES
    fx = np.broadcast_to(f(x.ravel()), x.size).reshape(x.shape)
    kronrod = half * (fx @ _GK_WEIGHTS)
    return kronrod, np.abs(kronrod - half * (fx @ _G_WEIGHTS))


def _grading_levels(width: float, endpoint: float) -> int:
    """Levels of halving toward a singular endpoint, from the interval alone."""
    # never grade below the float resolution at the endpoint, or the
    # quadrature nodes of the innermost panel would round onto it
    ulp = max(abs(endpoint) * 2.3e-16, 5e-324)
    cap = int(math.log2(width) - math.log2(ulp)) - 8 if width > ulp else 1
    if endpoint == 0.0:
        levels = _ZERO_END_LEVELS
    else:
        ratio = width / abs(endpoint)
        levels = int(math.log2(max(ratio, 4.0))) + 10 if ratio < math.inf else cap
    return max(min(levels, cap), 1)


def _initial_edges(a: float, b: float, singular_end: str):
    if singular_end == "none":
        return [a, b]
    if singular_end not in ("left", "right"):
        raise ValueError(f"singular_end must be none/left/right, got {singular_end!r}")
    width = b - a
    levels = _grading_levels(width, a if singular_end == "left" else b)
    offsets = [width * 0.5**j for j in range(1, levels + 1)]
    if singular_end == "left":
        return [a] + [a + w for w in reversed(offsets)] + [b]
    return [a] + [b - w for w in offsets] + [b]


def integrate(f, a: float, b: float, singular_end: str = "none") -> QuadResult:
    """Integrate the array function f over (a, b); f is never evaluated at
    the endpoints, and numpy floating-point warnings are silenced inside it.

    Each panel costs 21 evaluations of f (the qk21 Kronrod nodes), each
    split 42.  f is called on the initial panels (graded toward
    ``singular_end`` when it is "left" or "right") in batches of at most
    128; when their summed |K21 - G10| estimates already meet the tolerance
    the result is returned at once.  Otherwise the worst panel is bisected
    until they do.

    Returns a QuadResult; ``converged`` is False when the tolerance was not
    met before the panel budget or a panel too narrow to split (2^8 float
    spacings) stopped the refinement (the best value is still returned),
    when the value or its error estimate is not finite, and when f raised an
    ArithmeticError (value nan).  Any other exception from f propagates.
    """
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    try:
        with np.errstate(all="ignore"):
            total, err_total, short = _refine(f, a, b, singular_end)
    except ArithmeticError:
        return QuadResult(math.nan, math.inf, converged=False)
    finite = math.isfinite(total) and math.isfinite(err_total)
    return QuadResult(total, err_total, converged=finite and not short)


def _refine(f, a: float, b: float, singular_end: str):
    """(value, error estimate, stopped short of the tolerance) of the
    adaptive bisection."""
    edges = np.array(_initial_edges(a, b, singular_end))
    los, his = edges[:-1], edges[1:]
    batches = [_panels(f, los[i:i + _BATCH_PANELS], his[i:i + _BATCH_PANELS])
               for i in range(0, los.size, _BATCH_PANELS)]
    vals = np.concatenate([v for v, _ in batches])
    errs = np.concatenate([e for _, e in batches])
    total = float(np.sum(vals))
    err_total = float(np.sum(errs))
    if err_total <= max(_ABS_TOL, _REL_TOL * abs(total)):
        return total, err_total, False
    heap = [(-e, i, lo, hi, v) for i, (e, lo, hi, v)
            in enumerate(zip(errs.tolist(), los.tolist(), his.tolist(), vals.tolist()))]
    heapq.heapify(heap)
    counter = len(heap)

    stopped = False
    splits = 0
    while heap:
        tol = max(_ABS_TOL, _REL_TOL * abs(total))
        # a nan or inf never refines away: the running total keeps it
        if err_total <= tol or not (math.isfinite(total) and math.isfinite(err_total)):
            break
        neg_err, _, lo, hi, val = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        # stopping at a panel within 2^8 float spacings with significant
        # error is the signature of a non-integrable singularity
        narrow = hi - lo <= _SPLIT_SPACINGS * math.ulp(max(abs(lo), abs(hi)))
        if counter >= _MAX_PANELS or narrow:
            heapq.heappush(heap, (neg_err, counter, lo, hi, val))
            stopped = True
            break
        (v1, v2), (e1, e2) = (x.tolist() for x in _panels(
            f, np.array([lo, mid]), np.array([mid, hi])))
        total += v1 + v2 - val
        err_total += e1 + e2 + neg_err  # running sum; refreshed periodically
        heapq.heappush(heap, (-e1, counter, lo, mid, v1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, mid, hi, v2))
        counter += 1
        splits += 1
        if splits % 512 == 0:
            err_total = sum(-item[0] for item in heap)

    err_total = sum(-item[0] for item in heap)
    # a stop before the tolerance is short unless the summed estimate, not
    # just the worst panel's, meets it after all
    return total, err_total, stopped and err_total > max(_ABS_TOL, _REL_TOL * abs(total))


@dataclass
class LimitResult:
    limit: float
    classification: str  # converged | oscillating | diverging
    samples: list = field(default_factory=list)
    dropped: list = field(default_factory=list)  # (eps, reason) per unusable sample

    def limit_or_raise(self) -> float:
        """The limit, or NonConvergenceError naming the class when the
        samples did not converge."""
        if self.classification != "converged":
            raise NonConvergenceError(f"limit did not converge: {self.classification}")
        return self.limit


def _aitken(values):
    """Two stages of Aitken's delta-squared process; the last extrapolant."""
    seq = list(values)
    for _ in range(2):
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
