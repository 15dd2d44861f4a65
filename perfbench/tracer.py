"""Span and counter recording around hardylab's public functions.

The tracer wraps the functions listed in TIMED from outside the library: it
rebinds every module-level reference to each function (``hardy.integrate``,
``cli.make_e1``, ``hardylab.bessel_j``, ...) to a wrapper that records a span,
and restores the originals on ``uninstall``.  Spans (name, start, end,
parent) are kept in memory in flat arrays and written once, by ``save``.  A
layer's self time is its span's duration minus the durations of its direct
child spans.

Counts that need more than a span are recorded at the same boundaries:
integrand evaluations (the integrand passed to ``quadrature.integrate`` is
wrapped), non-converged integrals, ε samples kept by ``integrate_to_limit``,
``bessel_zero`` cache hits (from ``cache_info()``), FD steps and the bytes
of the stored FD states (computed from the array sizes), and v/dv calls of
profiles built by the public factories (a count only, no timer).
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

import hardylab
from hardylab import (approx, cli, evolution, hardy, kelvin, profiles, quadrature,
                      specfun, spectrum, wholespace)

MODULES = (hardylab, approx, cli, evolution, hardy, kelvin, profiles, quadrature,
           specfun, spectrum, wholespace)

TIMED = {
    specfun: ("bessel_j", "bessel_zero"),
    quadrature: ("integrate", "integrate_to_limit"),
    hardy: ("cutoff_norm", "principal_value", "annulus_functional", "weighted_dirichlet"),
    spectrum: ("eigenmode", "expand", "subcritical_limit"),
    evolution: ("energy_trace", "evolve_spectral"),
    kelvin: ("identity_check", "exterior_functional", "exterior_norm"),
    wholespace: ("j_functional", "infimum_sequence", "zero_singularity_energies"),
    approx: ("naive_cutoff_defect", "log_cutoff_defect", "dim_reduction", "e1_obstruction"),
    cli: tuple(f"suite_{s}" for s in ("spectrum", "energy", "evolve", "kelvin",
                                      "poincare", "density")),
}

FACTORIES = ("make_e1", "make_mode", "make_subcritical", "make_named", "named_profile")

#: per-layer metrics as (name, unit); spans give .calls and .self_s, counters the rest
LAYER_METRICS = (
    [("specfun.bessel_j.calls", "count"), ("specfun.bessel_j.self_s", "s"),
     ("specfun.bessel_zero.calls", "count"), ("specfun.bessel_zero.hit_ratio", "ratio"),
     ("quadrature.integrate.calls", "count"), ("quadrature.integrate.self_s", "s"),
     ("quadrature.integrate.evals", "count"), ("quadrature.integrate.nonconverged", "count"),
     ("quadrature.integrate_to_limit.calls", "count"),
     ("quadrature.integrate_to_limit.samples_used_ratio", "ratio"),
     ("profiles.eval.calls", "count")]
    + [(f"hardy.{f}.{k}", u) for f in TIMED[hardy]
       for k, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"spectrum.{f}.self_s", "s") for f in TIMED[spectrum]]
    + [("evolution.FDRun.self_s", "s"), ("evolution.FDRun.steps", "count"),
       ("evolution.FDRun.state_bytes", "bytes_computed")]
    + [(f"evolution.{f}.self_s", "s") for f in TIMED[evolution]]
    + [(f"{m.__name__.split('.')[-1]}.{f}.self_s", "s")
       for m in (kelvin, wholespace, approx, cli) for f in TIMED[m]]
)

#: counts that must repeat exactly for the same inputs
DETERMINISTIC = tuple(n for n, u in LAYER_METRICS if u in ("count", "bytes_computed"))


def layer_metrics(raw: Counter) -> dict[str, float]:
    """Every LAYER_METRICS value from raw totals; a ratio with no base is 0."""
    out = {name: float(raw[name]) if unit == "s" else raw[name]
           for name, unit in LAYER_METRICS}
    zero = raw["specfun.bessel_zero.hits"] + raw["specfun.bessel_zero.misses"]
    out["specfun.bessel_zero.hit_ratio"] = raw["specfun.bessel_zero.hits"] / zero if zero else 0.0
    eps = raw["quadrature.integrate_to_limit.eps_points"]
    out["quadrature.integrate_to_limit.samples_used_ratio"] = (
        raw["quadrature.integrate_to_limit.samples_kept"] / eps if eps else 0.0)
    return out


class Tracer:
    """In-memory span and counter store; at most one installed at a time."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        # per-evaluation counts, kept in one-element lists: cheaper than a Counter
        self._evals = [0]
        self._profile_evals = [0]
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------
    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _timed(self, name: str, fn):
        """``fn`` wrapped in a span; the hot path touches only local names."""
        nid = self._id(name)
        stack, clock = self._stack, time.perf_counter
        ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end

        def wrapper(*args, **kwargs):
            idx = len(starts)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def totals(self) -> Counter:
        """Every counter recorded so far."""
        out = Counter(self.counts)
        out["quadrature.integrate.evals"] += self._evals[0]
        out["profiles.eval.calls"] += self._profile_evals[0]
        return out

    def mark(self) -> tuple[int, Counter]:
        """Position to summarise from: span index and a copy of the counters."""
        return len(self.start), self.totals()

    def summary(self, since: tuple[int, Counter]) -> Counter:
        """Raw totals (calls, self time, counters) recorded after ``since``;
        totals of several processes add up, ``layer_metrics`` then forms ratios."""
        lo, counts0 = since
        out = self.totals() - counts0
        nid = np.frombuffer(self.name_id, dtype=np.int32)[lo:]
        par = np.frombuffer(self.parent, dtype=np.int32)[lo:] - lo
        dur = np.frombuffer(self.end)[lo:] - np.frombuffer(self.start)[lo:]
        inner = par >= 0
        child = np.bincount(par[inner], weights=dur[inner], minlength=len(dur))
        self_s = np.bincount(nid, weights=dur - child, minlength=len(self.names))
        calls = np.bincount(nid, minlength=len(self.names))
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] += int(calls[i])
            out[f"{name}.self_s"] += float(self_s[i])
        return out

    def save(self, path: Path) -> None:
        """Write every span recorded so far, once, as arrays plus a name table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names, dtype=str),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))
        path.with_suffix(".counts.json").write_text(
            json.dumps(dict(sorted(self.totals().items())), indent=1) + "\n")

    # -- instrumentation -------------------------------------------------
    def counted_profile(self, p):
        """Copy of ``p`` whose v and dv count into profiles.eval.calls."""
        n = self._profile_evals
        v, dv = p.v, p.dv

        def cv(r):
            n[0] += 1
            return v(r)

        def cdv(r):
            n[0] += 1
            return dv(r)

        cv.counted = cdv.counted = True
        return replace(p, v=cv, dv=cdv)

    def _integrate(self, fn):
        counts = self.counts
        timed = self._timed("quadrature.integrate", fn)
        n = self._evals

        def wrapper(f, *args, **kwargs):
            def counted(x):
                n[0] += 1
                return f(x)

            res = timed(counted, *args, **kwargs)
            if not res.converged:
                counts["quadrature.integrate.nonconverged"] += 1
            return res

        return wrapper

    def _integrate_to_limit(self, fn):
        counts = self.counts
        timed = self._timed("quadrature.integrate_to_limit", fn)

        def wrapper(F, eps_sequence):
            eps = list(eps_sequence)
            res = timed(F, eps)
            counts["quadrature.integrate_to_limit.eps_points"] += len(eps)
            counts["quadrature.integrate_to_limit.samples_kept"] += len(res.samples)
            return res

        return wrapper

    def _bessel_zero(self, fn):
        counts = self.counts
        timed = self._timed("specfun.bessel_zero", fn)

        def wrapper(*args, **kwargs):
            before = fn.cache_info()
            try:
                return timed(*args, **kwargs)
            finally:
                after = fn.cache_info()
                counts["specfun.bessel_zero.hits"] += after.hits - before.hits
                counts["specfun.bessel_zero.misses"] += after.misses - before.misses

        return wrapper

    def _factory(self, fn):
        def wrapper(*args, **kwargs):
            p = fn(*args, **kwargs)
            # make_e1 returns make_mode's profile, which is already counted
            return p if getattr(p.v, "counted", False) else self.counted_profile(p)

        return wrapper

    def _fdrun(self, cls):
        tracer = self
        init = self._timed("evolution.FDRun", cls.__init__)

        class TracedFDRun(cls):
            def __init__(self, *args, **kwargs):
                init(self, *args, **kwargs)
                tracer.counts["evolution.FDRun.steps"] += self.steps
                tracer.counts["evolution.FDRun.state_bytes"] += sum(
                    s.nbytes for s in self.states)

        return TracedFDRun

    def install(self) -> None:
        """Rebind every module-level reference to each traced function."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        special = {"integrate": self._integrate, "integrate_to_limit": self._integrate_to_limit,
                   "bessel_zero": self._bessel_zero}
        swaps = {}
        for mod, names in TIMED.items():
            short = mod.__name__.split(".")[-1]
            for name in names:
                orig = getattr(mod, name)
                make = special.get(name)
                swaps[id(orig)] = (orig, make(orig) if make else
                                   self._timed(f"{short}.{name}", orig))
        for name in FACTORIES:
            orig = getattr(profiles, name)
            swaps[id(orig)] = (orig, self._factory(orig))
        swaps[id(evolution.FDRun)] = (evolution.FDRun, self._fdrun(evolution.FDRun))
        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                hit = swaps.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()
