"""hardylab benchmark: two workloads, end-to-end metrics, a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload cli_all --seed 1 --seconds 45 --trace 0

Workloads (every pass runs in this process, one operation at a time, except
that a ``cli_all`` operation is one child process; each class states why it
was chosen in ``why``):

* ``cli_all``      one fresh ``hardylab all --dim N`` process per operation,
                   N = 3 then 4 in each pass; no seed-derived input.
* ``heat_flow``    one ``evolution.FDRun`` (theta = 1/2, t_final = 0.1) plus
                   ``evolution.energy_trace`` at 33 times per operation, on
                   seeded profiles, dimensions, grid sizes and time steps.

With ``--trace 0`` the run measures, over its untraced passes: the median
pass wall time ``wall_s``; the median pass CPU time ``cpu_s`` (user + system;
of the child processes for ``cli_all``); the operation latency ``op_p50_s``,
the median, over a pass's operations, of each operation's median across
passes (operations of one pass differ in size, and a median pooled over all
of them would fall in the gap between two sizes); the tail latency
``op_tail_s``, the highest order statistic with at least ten samples above
it, with its percentile and sample count, or "n/a" when a run has fewer than
the 21 operations a tail above the median needs, as a ``cli_all`` run does;
the peak resident memory ``peak_rss_mb`` of the process doing the work; and
the set-up time ``setup_s``, the median of seven set-ups, each in a fresh
process (imports, seeded inputs, warm-up).

On a shared host the speed of the processor drifts by up to a third within
seconds, and the times above drift with it: ten runs of the same code spread
by 0.10-0.27 of their median.  So every time is also reported calibrated
(``Calibration``): each pass's times are multiplied by CAL_REF_S over the
median time of a fixed reference kernel run between that pass's operations.
The calibrated times ``wall_cal_s``, ``cpu_cal_s`` and ``op_p50_cal_s`` are
result metrics, with ``peak_rss_mb`` and ``setup_s``; the raw times and the
tails are printed and written to the report.  BLAS and OpenMP run one thread
in every process, so that CPU time counts the program's work, not idle
worker threads spinning.  With ``--trace 1`` untraced and
traced passes alternate; the traced ones wrap the library's public functions
(``tracer.py``) and the run reports the per-layer metrics, plus the tracing
overhead (median traced minus median untraced pass wall time).  Layer counts
are those of one traced pass and must repeat exactly in every traced pass;
self times are medians over traced passes.

Every operation's output is checked outside the timed region.  An operation
fails when it raises, exits non-zero, or its output fails the workload's
check; ``failed`` counts those operations, and ``correct`` is false when any
operation failed or could not be checked, or the traced counts did not
repeat.  Details (inputs, machine, failures, latencies) go to one JSON line
before the last line and to ``.perfbench_out/<workload>/report.json``.
The last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
OP_TIMEOUT_S = 170.0
#: calibration kernel size, sampling interval, timed kernel runs per sample and
#: nominal kernel time (about its median time in benchmark runs on the 2-core
#: x86-64 host the bounds were set on)
CAL_PY_ITERS = 50_000
CAL_GRID = 2048
CAL_STEPS = 250
CAL_EVERY_S = 1.0
CAL_SAMPLES = 2
CAL_REF_S = 0.045

#: end-to-end metrics of the result; the raw times are reported beside them
UNITS = {"wall_cal_s": "s", "cpu_cal_s": "s", "op_p50_cal_s": "s", "peak_rss_mb": "MB",
         "setup_s": "s"}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: a tail needs ten samples above it and must lie above the median
TAIL_ABOVE = 10


def check_sources():
    if not (SRC / "hardylab" / "__init__.py").is_file():
        raise SystemExit(f"hardylab sources not found under {SRC}")


def import_library():
    """Import hardylab from this checkout's ``src``, never from elsewhere."""
    check_sources()
    sys.path.insert(0, str(SRC))
    import hardylab

    if Path(hardylab.__file__).resolve().parent != SRC / "hardylab":
        raise SystemExit(f"imported hardylab from {hardylab.__file__}, not {SRC}")
    return hardylab


def tail(samples):
    """(value, percentile) of the highest order statistic with at least
    TAIL_ABOVE samples above it, or (None, None) when that statistic would not
    lie above the median (fewer than 2 * TAIL_ABOVE + 1 samples)."""
    s = sorted(samples)
    if len(s) < 2 * TAIL_ABOVE + 1:
        return None, None
    k = len(s) - TAIL_ABOVE - 1
    return s[k], 100.0 * (k + 1) / len(s)


@dataclass
class Op:
    """One operation's outcome: wall time, CPU seconds, output and, for a
    child process, its peak memory."""

    label: object
    seconds: float
    cpu: float
    output: object = None
    error: str | None = None
    rss_kb: int | None = None


def timed_call(label, fn):
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        out, error = fn(), None
    except Exception as exc:  # an operation that raises is a failed operation
        out, error = None, f"{type(exc).__name__}: {exc}"
    return Op(label, time.perf_counter() - t0, time.process_time() - c0, out, error)


class Calibration:
    """Samples of a fixed reference kernel, taken between operations.

    The host's speed drifts by up to a third within seconds (other tenants).
    The drift moves a kernel made of the same kinds of work as the workloads
    and the workloads alike, so a pass's time times CAL_REF_S over the
    kernel's time during that pass is steadier than either: it reads as the
    pass's time on a host at the speed where the kernel takes CAL_REF_S.
    ``sample`` runs the kernel when CAL_EVERY_S have passed since the last
    sample.  The kernel is scalar Python float arithmetic (like specfun's
    series) followed by a theta-scheme time-stepping loop on a small grid
    that allocates and keeps every state (like the FD solver).  It never
    touches hardylab, so a change to the library leaves it alone."""

    def __init__(self):
        import numpy as np
        from scipy.linalg import solve_banded

        self.np, self.solve_banded = np, solve_banded
        m = CAL_GRID
        self.off = np.ones(m)
        self.diag = -2.0 * np.ones(m + 1)
        self.ab = np.zeros((3, m + 1))
        self.ab[0, 1:] = self.ab[2, :-1] = -0.5e-3
        self.ab[1, :] = 1.0 + 1e-3
        self.u0 = np.linspace(1.0, 0.0, m + 1)
        self.samples = []
        self._last = -math.inf
        self.sample(force=True)

    def scalar(self):
        s = 0.0
        for i in range(1, CAL_PY_ITERS):
            s += math.sqrt(i) * (i % 7) / (1.0 + i)
        return s

    def stepping(self):
        np, m, u, states = self.np, CAL_GRID, self.u0, []
        for _ in range(CAL_STEPS):
            av = self.diag * u
            av[:-1] += self.off * u[1:]
            av[1:] += self.off * u[:-1]
            u = self.solve_banded((1, 1), self.ab, u + 0.5e-3 * av)
            full = np.zeros(m + 2)
            full[: m + 1] = u
            states.append(full)
        return float(states[-1][0])

    def sample(self, force=False):
        """When due, one untimed run (the first run after an idle wait for a
        child process is slow) and CAL_SAMPLES timed ones."""
        if not force and time.perf_counter() - self._last < CAL_EVERY_S:
            return
        self.scalar()
        self.stepping()
        for _ in range(CAL_SAMPLES):
            t0 = time.perf_counter()
            self.scalar()
            t1 = time.perf_counter()
            self.stepping()
            self._last = time.perf_counter()
            self.samples.append((t1 - t0, self._last - t1))

    def scale(self, since):
        """CAL_REF_S over the median kernel time of the samples from index
        ``since`` on (the latest sample when there are none)."""
        samples = self.samples[since:] or self.samples[-1:]
        return CAL_REF_S / statistics.median(a + b for a, b in samples)


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

class HeatFlow:
    """Each operation is one FD run and its energy trace, in this process."""

    name = "heat_flow"
    why = ("Seeded FDRun plus energy_trace runs that store every state and read it back: "
           "memory moves, with no quadrature and almost no specfun work.")
    T_FINAL = 0.1
    # multiples of both time steps, so every trace time is a stored state
    TIMES = tuple(round(0.003 * j, 6) for j in range(1, 34))
    M_RANGE = (1024, 4096)
    LAW_TOL = 1e-3
    E1_TOL = 1e-4

    def __init__(self, seed):
        import numpy as np
        from scipy import special
        from hardylab import evolution, profiles

        self.np, self.evolution = np, evolution
        rng = random.Random(seed)
        names = ("bump", "annular_bump", "constant_plateau", "e1")
        lo, hi = self.M_RANGE
        self.inputs = []
        for dt in (1e-4, 5e-5):
            # stratified grid sizes: each time step gets one m near the middle of
            # each quarter of the range; an FD run costs in proportion to m, so the
            # narrow draw keeps every seed's total work nearly the same
            ms = [int(lo + (hi - lo) * (j + 0.45 + 0.1 * rng.random()) / 4) for j in range(4)]
            rng.shuffle(ms)
            for name, m in zip(names, ms):
                self.inputs.append({"profile": name, "N": rng.choice((3, 4, 5)),
                                    "m": m, "dt": dt})
        rng.shuffle(self.inputs)
        self.profiles = [profiles.named_profile(profiles.Dimension(x["N"]), x["profile"])
                         for x in self.inputs]
        # e1 reference e^{-mu_1 t} v0 on the grid, from scipy (an independent route)
        z1 = float(special.jn_zeros(0, 1)[0])
        self.refs = {}
        for i, x in enumerate(self.inputs):
            if x["profile"] == "e1":
                r = np.arange(x["m"] + 2) / (x["m"] + 1)
                ref = math.exp(-z1 * z1 * self.T_FINAL) * special.j0(z1 * r)
                ref[-1] = 0.0
                self.refs[i] = ref
        warm = evolution.FDRun(profiles.named_profile(profiles.Dimension(3), "bump"),
                               evolution.FDGrid(m=64, dt=1e-3), 0.01)
        evolution.energy_trace(warm, (0.005,))
        self._first = {}

    def ops(self, tracer):
        ps = [tracer.counted_profile(p) for p in self.profiles] if tracer else self.profiles
        return [(i, lambda i=i, p=p: self.step(p, self.inputs[i])) for i, p in enumerate(ps)]

    def run_pass(self, tracer, between):
        """(ops, raw layer totals or None) of one pass; ``between`` runs
        before each operation."""
        ops = self.ops(tracer)
        since = tracer.mark() if tracer else None
        if tracer:
            tracer.install()
        done = []
        try:
            for label, fn in ops:
                between()
                done.append(timed_call(label, fn))
        finally:
            if tracer:
                tracer.uninstall()
        return done, tracer.summary(since) if tracer else None

    def peak_rss_mb(self, ops):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def step(self, p, x):
        ev = self.evolution
        run = ev.FDRun(p, ev.FDGrid(m=x["m"], dt=x["dt"], theta=0.5), self.T_FINAL)
        return ev.energy_trace(run, self.TIMES), run.state(self.T_FINAL)

    def check(self, op):
        i = op.label
        x = self.inputs[i]
        rows, final = op.output
        key = tuple((r.energy, r.dEdt_est, r.minus_twice_dirichlet) for r in rows)
        if self._first.setdefault(i, key) != key:
            return f"{x}: energy trace differs from the first pass"
        law = max(abs(r.dEdt_est - r.minus_twice_dirichlet) / abs(r.minus_twice_dirichlet)
                  for r in rows)
        if not law <= self.LAW_TOL:
            return f"{x}: energy law defect {law:.3g} > {self.LAW_TOL}"
        if i in self.refs:
            np = self.np
            h = 1.0 / (x["m"] + 1)
            r = np.arange(x["m"] + 2) * h
            sf = self.profiles[i].dim.surface_factor
            dist = math.sqrt(sf * h * float(np.sum((final - self.refs[i]) ** 2 * r)))
            if not dist <= self.E1_TOL:
                return f"{x}: weighted L2 distance to exact e1 decay {dist:.3g} > {self.E1_TOL}"
        return None


class CliAll:
    """Each operation is one fresh ``hardylab all --dim N`` process."""

    name = "cli_all"
    why = ("What users run: fresh hardylab all processes for N=3 and N=4; pays imports and a"
           " cold bessel_zero cache, touches every module, specfun and quadrature dominate.")
    DIMS = (3, 4)

    def __init__(self, seed):
        import hardylab.cli  # noqa: F401  (compiles and caches the modules a child imports)

        self.inputs = [{"command": "hardylab all", "N": n} for n in self.DIMS]
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.work = OUT / self.name
        self.count = 0
        self._digests = {}

    def run_pass(self, tracer, between):
        ops, raw = [], Counter() if tracer else None
        for n in self.DIMS:
            between()
            self.count += 1
            out = self.work / f"op{self.count}"
            peak = self.work / "peak" / f"op{self.count}.json"
            spans = self.work / "trace" / f"op{self.count}.npz"
            for d in (peak.parent, spans.parent):
                d.mkdir(parents=True, exist_ok=True)
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(peak),
                   str(spans) if tracer else "-", "all", "--dim", str(n), "--out", str(out)]
            op = self.child(n, cmd, out)
            if peak.is_file():
                op.rss_kb = json.loads(peak.read_text())["peak_kb"]
            ops.append(op)
            if tracer and op.error is None:
                raw.update(json.loads(spans.with_suffix(".summary.json").read_text()))
        return ops, raw

    def child(self, n, cmd, out):
        out.mkdir(parents=True)
        with open(out / "console.log", "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, env=self.env, cwd=str(ROOT), stdout=log,
                                    stderr=subprocess.STDOUT)
            watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
                watchdog.join()
            seconds = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        error = None if proc.returncode == 0 else f"exit code {proc.returncode}"
        return Op(n, seconds, cpu, out, error=error)

    def peak_rss_mb(self, ops):
        """Largest peak of a child that reported one (a failed child may not)."""
        return max((op.rss_kb for op in ops if op.rss_kb), default=0) / 1024.0

    def check(self, op):
        out = op.output
        try:
            rows = [row for suite in json.loads((out / "all.json").read_text())
                    for row in suite["rows"]]
            failing = [row["name"] for row in rows if row["pass"] is not True]
            digest = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                      for f in sorted(out.iterdir())
                      if f.suffix in (".csv", ".json")}
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if failing or not rows:
            return f"N={op.label}: checks not passing: {failing or 'no rows'}"
        first = self._digests.setdefault(op.label, digest)
        if first != digest:
            changed = sorted(k for k in first.keys() | digest.keys()
                             if first.get(k) != digest.get(k))
            return f"N={op.label}: reports differ from the first run: {changed}"
        return None


WORKLOADS = {w.name: w for w in (CliAll, HeatFlow)}


# --------------------------------------------------------------------------
# harness
# --------------------------------------------------------------------------

def setup(workload, seed):
    """Import the library, build the seeded inputs and warm up; (object, s)."""
    t0 = time.perf_counter()
    import_library()
    obj = WORKLOADS[workload](seed)
    return obj, time.perf_counter() - t0


def setup_seconds(workload, seed):
    """Median set-up time of SETUP_REPEATS fresh processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            cwd=str(ROOT), capture_output=True, text=True, timeout=OP_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"set-up failed:\n{proc.stderr[-2000:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times), times


def machine():
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "platform": platform.platform(), "processor": platform.machine(),
            "threads_env": {v: os.environ.get(v) for v in THREAD_VARS}}


def timings(plain, calibrated):
    """Median pass wall and CPU time, operation latencies and tail of the
    untraced passes; with ``calibrated`` every time is first multiplied by
    its pass's calibration scale.

    ``op_p50`` is the median, over a pass's operations, of each operation's
    median across passes: operations of one pass differ in size, and a median
    pooled over all of them would fall in the gap between two sizes."""
    k = (lambda p: p["scale"]) if calibrated else (lambda p: 1.0)
    by_input = {}
    for p in plain:
        for op in p["ops"]:
            by_input.setdefault(str(op.label), []).append(op.seconds * k(p))
    value, pct = tail([t for ts in by_input.values() for t in ts])
    per_input = {label: statistics.median(ts) for label, ts in by_input.items()}
    return {"wall": statistics.median(p["wall"] * k(p) for p in plain),
            "cpu": statistics.median(p["cpu"] * k(p) for p in plain),
            "op_p50": statistics.median(per_input.values()), "op_p50_by_input": per_input,
            "op_tail": value, "tail_percentile": pct,
            "op_samples": sum(len(ts) for ts in by_input.values())}


def measure(work, seconds, trace):
    """Run passes for ``seconds``; traced and untraced passes alternate in
    trace mode, which always runs at least one of each."""
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    cal = Calibration()
    passes = []
    failures = []
    unchecked = 0
    t_end = time.perf_counter() + seconds
    while not passes or time.perf_counter() < t_end or (trace and len(passes) < 2):
        traced = trace and len(passes) % 2 == 1
        since = len(cal.samples)
        ops, raw = work.run_pass(tracer if traced else None, cal.sample)
        passes.append({"traced": traced, "wall": sum(op.seconds for op in ops),
                       "cpu": sum(op.cpu for op in ops), "scale": cal.scale(since),
                       "cal": cal.samples[since:], "ops": ops, "raw": raw,
                       "rss_mb": work.peak_rss_mb(ops)})
        for op in ops:  # outside the timed region
            reason = op.error
            if reason is None:
                try:
                    reason = work.check(op)
                except Exception as exc:
                    reason = f"check raised {type(exc).__name__}: {exc}"
                    unchecked += 1
            if reason is not None:
                failures.append(reason)
    return passes, failures, unchecked, tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up in this process and print it (used for setup_s)")
    args = ap.parse_args(argv)
    # before numpy loads; child processes inherit it
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

    if args.setup_only:
        _, s = setup(args.workload, args.seed)
        print(json.dumps({"setup_s": s}))
        return 0

    check_sources()
    out_dir = OUT / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    setup_s, setup_samples = (None, None) if args.trace else setup_seconds(args.workload,
                                                                           args.seed)
    work, _ = setup(args.workload, args.seed)
    passes, failures, unchecked, tracer = measure(work, args.seconds, bool(args.trace))

    attempted = sum(len(p["ops"]) for p in passes)
    plain = [p for p in passes if not p["traced"]]
    info = {"workload": args.workload, "why": work.why, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "inputs": work.inputs,
            "machine": machine(), "threads": threading.active_count(),
            "passes": len(passes), "pass_wall_s": [round(p["wall"], 4) for p in passes],
            "pass_cpu_s": [round(p["cpu"], 4) for p in passes],
            "pass_cal_s": [[[round(c, 5) for c in x] for x in p["cal"]] for p in passes],
            "attempted": attempted, "failed": len(failures),
            "fail_ratio": len(failures) / attempted, "failures": failures[:20]}
    correct = unchecked == 0 and not failures
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        from tracer import DETERMINISTIC, LAYER_METRICS, layer_metrics

        per_pass = [layer_metrics(p["raw"]) for p in traced]
        repeat = all(all(m[k] == per_pass[0][k] for k in DETERMINISTIC) for m in per_pass)
        correct = correct and repeat
        values = dict(per_pass[0])
        for name, unit in LAYER_METRICS:
            if unit == "s":
                values[name] = statistics.median(m[name] for m in per_pass)
        overhead = (statistics.median(p["wall"] for p in traced)
                    - statistics.median(p["wall"] for p in plain))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        info.update(counts_repeat=repeat, traced_passes=len(traced),
                    untraced_wall_s=statistics.median(p["wall"] for p in plain))
        if isinstance(work, HeatFlow):
            tracer.save(out_dir / "spans.npz")
    else:
        raw, cal = timings(plain, False), timings(plain, True)
        values = {"wall_cal_s": cal["wall"], "cpu_cal_s": cal["cpu"],
                  "op_p50_cal_s": cal["op_p50"],
                  "peak_rss_mb": max(p["rss_mb"] for p in plain), "setup_s": setup_s}
        metrics = {name: {"value": values[name], "unit": UNITS[name]} for name in UNITS}
        info.update(raw=raw, calibrated=cal, setup_samples=setup_samples)
    info["correct"] = correct
    (out_dir / "report.json").write_text(json.dumps(info, indent=1) + "\n")
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"{args.workload} wall_s = {raw['wall']:.6g} s, cpu_s = {raw['cpu']:.6g} s, "
              f"op_p50_s = {raw['op_p50']:.6g} s (as measured; not result metrics)")
        for name, t in (("op_tail_s", raw), ("op_tail_cal_s", cal)):
            print(f"{args.workload} {name} = " + (
                f"{t['op_tail']:.6g} s (p{t['tail_percentile']:.4g} of "
                f"{t['op_samples']} operations)" if t["op_tail"] is not None else
                f"n/a ({t['op_samples']} operations; a tail needs {2 * TAIL_ABOVE + 1})"))
    print(f"{args.workload} fail_ratio = {info['fail_ratio']:.6g} "
          f"({len(failures)} of {attempted} operations)")
    print(json.dumps(info))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
