"""Command-line entry point: named experiment suites with CSV/JSON reports.

Every suite writes <suite>.csv (raw numbers) and <suite>.json (assertions)
into the output directory.  Runs are deterministic: identical flags produce
byte-identical files.  Exit status 0 means every suite assertion passed,
1 means at least one failed or a number could not be computed, 2 means the
invocation itself was invalid.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import approx, evolution, hardy, kelvin, spectrum, wholespace
from .profiles import ORIGIN_CLASSES, Dimension, make_e1, make_mode, make_named, named_profile
from .specfun import bessel_zero

MU_1 = 5.783185962946785  # z_{0,1}^2, pinned against the bisection oracle in tests


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.15g}"
    return str(x)


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    path.write_text("\n".join(lines) + "\n")


def _check(name: str, value: float, expected: float, tolerance: float) -> dict:
    ok = math.isfinite(value) and bool(abs(value - expected) <= tolerance)
    return {"name": name, "value": value, "expected": expected,
            "tolerance": tolerance, "pass": ok}


def _check_true(name: str, flag: bool, value: float | None = None) -> dict:
    # predicate check: the pass flag carries the verdict, the value column is
    # informational (1/0 when no measurement accompanies the predicate; a
    # measurement that is not finite is kept, and written as null)
    shown = (1.0 if flag else 0.0) if value is None else float(value)
    return {"name": name, "value": shown, "expected": shown,
            "tolerance": 0.0, "pass": bool(flag)}


def energy_law_defect(rows) -> float:
    """Worst relative defect |dE/dt - (-2D)| / |-2D| of the energy law over
    trace rows.  A row where -2D is 0 reads inf: the law fails there if the
    rate is not 0, and it tests nothing if both sides are 0 (a state that
    decayed below the float range)."""
    worst = 0.0
    for row in rows:
        gap = abs(row.dEdt_est - row.minus_twice_dirichlet)
        if row.minus_twice_dirichlet != 0.0:
            worst = max(worst, gap / abs(row.minus_twice_dirichlet))
        else:
            worst = math.inf
    return worst


def suite_spectrum(dim: Dimension, modes: int):
    if modes < 1:
        raise ValueError(f"need at least one mode, got modes={modes}")
    rows = []
    table = [spectrum.eigenmode(dim, k) for k in range(1, modes + 1)]
    for m in table:
        rows.append((m.k, m.zero, m.eigenvalue, m.norm2))
    checks = [_check("mu_1", table[0].eigenvalue, MU_1, 1e-9)]
    checks.append(_check("mu_1_printed_2dp", round(table[0].zero, 2) ** 2, 5.76, 1e-12))
    # orthogonality of the first modes in the weighted pairing
    worst = 0.0
    kk = min(4, modes)
    for i in range(1, kk + 1):
        f = spectrum.expand(make_mode(dim, i), kk)
        for j0, c in enumerate(f.coeffs, start=1):
            want = 1.0 if j0 == i else 0.0
            worst = max(worst, abs(c - want))
    checks.append(_check("mode_orthonormality", worst, 0.0, 1e-8))
    checks.append(_check_true(
        "zero_interlacing",
        bessel_zero(0.0, 1) < bessel_zero(1.0, 1) < bessel_zero(0.0, 2)))
    # subcritical family: z_{m,1}^2 decreasing to mu_1
    cs = [dim.critical_coefficient * (1.0 - 10.0**-j) for j in range(1, 7)]
    cs.append(dim.critical_coefficient - 1e-8)
    sub = spectrum.subcritical_limit(dim, cs)
    vals = [v for _, v in sub]
    checks.append(_check_true("subcritical_monotone",
                              all(a > b for a, b in zip(vals, vals[1:])),
                              vals[-1]))
    checks.append(_check("subcritical_final_gap", vals[-1] - MU_1, 0.0, 1e-3))
    for c, v in sub:
        rows.append((0, math.sqrt(v), v, c))
    return ("k,zero,eigenvalue,norm2_or_c", rows, checks)


def suite_energy(dim: Dimension, profile_name: str, eps_min: float):
    p = named_profile(dim, profile_name)
    rows = []
    eps_list = [10.0**-j for j in range(1, 13) if 10.0**-j >= eps_min * (1 - 1e-12)]
    if not eps_list:
        raise ValueError(f"eps_min={eps_min} leaves no eps on the grid 1e-1, ..., 1e-12")
    worst = 0.0
    for eps in eps_list:
        b = hardy.breakdown(p, eps)
        rows.append((b.eps, b.annulus, b.singularity, b.dirichlet, b.residual))
        worst = max(worst, abs(b.residual) / (1.0 + abs(b.annulus)))
    checks = [_check("decomposition_residual", worst, 0.0, 1e-7)]

    if p.origin_class == "finite_limit":
        lim = hardy.singularity_energy(p, 0.0)
        # a profile flat below the grid's smallest eps (a deep log ramp) has
        # not reached its limit there; it holds v(0) from flat_below on
        eps_read = p.flat_below if 0.0 < p.flat_below < eps_list[-1] else eps_list[-1]
        got = hardy.singularity_energy(p, eps_read)
        checks.append(_check("singularity_energy_limit", got / lim, 1.0, 1e-5))
    pv = hardy.principal_value(p)
    expected = ORIGIN_CLASSES[p.origin_class]
    checks.append(_check_true(f"bare_functional_{expected}", pv.classification == expected))
    if p.member:
        cn = hardy.cutoff_norm(p)
        checks.append(_check_true("cutoff_norm_converged",
                                  cn.classification == "converged", cn.limit))
        if p.origin_class == "finite_limit":
            gap_lhs = pv.limit - cn.limit
            gap_rhs = hardy.singularity_energy(p, 0.0)
            checks.append(_check("norm_gap_vs_singularity_energy",
                                 gap_lhs / gap_rhs, 1.0, 1e-5))
        elif p.origin_class == "vanishing":
            # a profile that vanishes at the origin carries no surface energy
            checks.append(_check("norm_gap_vanishes", pv.limit - cn.limit, 0.0,
                                 1e-9 * (1.0 + abs(cn.limit))))
    return ("eps,annulus,singularity,dirichlet,residual", rows, checks)


def suite_evolve(dim: Dimension, profile_name: str, t_final: float, grid_m: int):
    grid = evolution.FDGrid(m=grid_m, dt=1e-4, theta=0.5)
    # the trace samples t_final j/8, so t_final must be a multiple of 8 dt
    # by the rule the run applies to it
    try:
        k = evolution.time_index(t_final, grid.dt)
    except ValueError:
        k = 0
    if k < 8 or k % 8:
        raise ValueError(f"--t-final {t_final} must be a positive multiple of "
                         f"8 dt = {8.0 * grid.dt:g}, since the evolve suite "
                         "reports the times t_final j/8")
    p = named_profile(dim, profile_name)
    modes = 3 if profile_name == "e1" else 40
    field0 = spectrum.expand(p, modes)
    frun = evolution.FDRun(p, grid, t_final)

    trace, rows = [], []
    for t in (t_final * j / 8.0 for j in range(1, 8)):
        row, = evolution.energy_trace(frun, [t])
        trace.append(row)
        # the trace's reads leave the step into t held for its exact law
        rows.append((t, row.energy, row.dEdt_est, row.minus_twice_dirichlet, frun.law_defect(t)))
    checks = [_check("energy_law", energy_law_defect(trace), 0.0, 1e-3),
              _check("discrete_energy_law", max(row[-1] for row in rows), 0.0, 1e-11)]

    # cross-solver agreement in the weighted L^2 metric at t_final
    v_sp = evolution.evolve_spectral(field0, t_final).profile().v(grid.nodes)
    dist = math.sqrt(frun.norm_sq(frun.state(t_final) - v_sp))
    checks.append(_check("fd_vs_spectral_L2", dist, 0.0, 1e-4))

    # exact semigroup property
    f_ab = evolution.evolve_spectral(evolution.evolve_spectral(field0, 0.03), 0.07)
    f_c = evolution.evolve_spectral(field0, 0.10)
    sg = float(np.max(np.abs(f_ab.coeffs - f_c.coeffs)))
    checks.append(_check("semigroup_exact", sg, 0.0, 1e-14))

    # long-time decay rate of log ||v||
    e_a = evolution.evolve_spectral(field0, 2.0).norm_sq()
    e_b = evolution.evolve_spectral(field0, 2.5).norm_sq()
    slope = (math.log(e_b) - math.log(e_a)) / 0.5 / 2.0
    checks.append(_check("long_time_log_slope", -slope, MU_1, 1e-3))
    return ("t,energy,dEdt_est,minus2dirichlet,law_defect", rows, checks)


def suite_kelvin(dim: Dimension):
    e1 = make_e1(dim)
    q = kelvin.kelvin_map(e1)
    rows = []
    checks = []
    worst_i, worst_l = 0.0, 0.0
    for eps in (1e-2, 1e-3):
        c = kelvin.identity_check(e1, eps)
        rows.append((c.eps, c.interior, c.exterior, c.interior_surface,
                     c.exterior_surface, c.defect))
        worst_i = max(worst_i, abs(c.defect))
        worst_l = max(worst_l, abs(c.surface_defect))
    checks.append(_check("inversion_identity_defect", worst_i, 0.0, 1e-7))
    checks.append(_check("surface_term_defect", worst_l, 0.0, 1e-10))

    nrm = kelvin.exterior_norm(q)
    interior = hardy.cutoff_norm(e1)
    checks.append(_check("unitary_equivalence", nrm.limit, interior.limit,
                         1e-7 * (1.0 + abs(interior.limit))))
    # additivity at infinity: exterior norm - truncated functional -> surface energy
    i_ext = kelvin.exterior_functional(q, 4.0e4)
    hs = hardy.singularity_energy(e1, 0.0)
    checks.append(_check("hidden_energy_additive", nrm.limit - i_ext, hs, 1e-5))
    checks.append(_check("exterior_functional_identity", i_ext,
                         interior.limit - hs, 1e-5))
    rows.append((0.0, interior.limit, i_ext, hs, nrm.limit - i_ext, i_ext - (interior.limit - hs)))

    # the hidden term can dominate and force the truncated functional negative:
    # for the ground-mode image this happens in dimension >= 4; in dimension 3
    # a slow logarithmic ramp does it
    if dim.n >= 4:
        checks.append(_check_true("exterior_functional_negative", i_ext < 0.0, i_ext))
    else:
        ramp = make_named(dim, "log_ramp", delta=1e-6)
        qr = kelvin.kelvin_map(ramp)
        i_neg = kelvin.exterior_functional(qr, 1e7)
        rows.append((1e-6, hardy.weighted_dirichlet(ramp, 0.0), i_neg,
                     dim.hs_constant, 0.0, 0.0))
        checks.append(_check_true("exterior_functional_negative", i_neg < 0.0, i_neg))
    return ("eps,I_interior,I_exterior,L_interior,L_exterior,defect", rows, checks)


def suite_poincare(dim: Dimension):
    rows, checks = [], []
    shapes = [(0.5, 3.0), (1.0, 5.0), (2.0, 9.0)]
    worst_defect = 0.0
    for lo, hi in shapes:
        # Bessel factor 1 on [0, lo], a smooth fall to 0 at hi
        p = wholespace.bessel_weighted(make_named(dim, "bump", fall=(lo, hi)))
        res = wholespace.hardy_poincare_check(p)
        rows.append((hi, res.i_value, res.energies.mass, res.margin, res.defect))
        worst_defect = max(worst_defect, res.defect)
        checks.append(_check_true(f"margin_positive_bump{hi:g}", res.margin > 0.0,
                                  res.margin))
    checks.append(_check("hardy_poincare_defect", worst_defect, 0.0, 1e-7))

    quots = {}
    for n in (8, 16, 32, 64):
        quots[n] = wholespace.infimum_sequence(n)
        rows.append((float(n), quots[n], 0.0, 0.0, 0.0))
    checks.append(_check_true("quotient_positive", all(v > 0 for v in quots.values())))
    checks.append(_check_true("quotient_decreasing",
                              quots[16] < quots[8] and quots[32] < quots[16]
                              and quots[64] < quots[32]))
    checks.append(_check_true("quotient_small_at_64", quots[64] < 0.05, quots[64]))

    # the last cap, (2, 9), spans two zeros of J_0; its energies are the check's
    wide, wide_energies = p, res.energies
    for m in (1, 2):
        lp, lm = wholespace.zero_singularity_energies(wide, m, 1e-3)
        rows.append((float(m), lp, lm, 0.0, 0.0))
        checks.append(_check_true(f"zero_energy_signs_m{m}", lp >= 0.0 and -lm >= 0.0))

    # whole-space norm = Hardy functional - origin surface energy + zero-circle pairs
    lhs, rhs, defect = wholespace.norm_decomposition(wide, wide_energies, 1e-4)
    rows.append((1e-4, lhs, rhs, defect, 0.0))
    checks.append(_check("norm_decomposition_defect", defect, 0.0, 1e-7))
    return ("key,value1,value2,value3,value4", rows, checks)


def suite_density(dim: Dimension):
    rows, checks = [], []
    bump = make_named(dim, "bump")
    e1 = make_e1(dim)

    lim = approx.naive_cutoff_limit(bump)
    got = approx.naive_cutoff_defect(bump, 1e-4)
    rows.append((1e-4, got, lim, 0.0))
    checks.append(_check("naive_cutoff_limit_match", got / lim, 1.0, 1e-2))
    got_e1 = approx.naive_cutoff_defect(e1, 1e-4)
    lim_e1 = approx.naive_cutoff_limit(e1)
    rows.append((1e-4, got_e1, lim_e1, 0.0))
    checks.append(_check("naive_cutoff_limit_match_e1", got_e1 / lim_e1, 1.0, 1e-2))

    fitted = []
    for eps in (1e-2, 1e-3, 1e-4):
        d = approx.log_cutoff_defect(bump, eps)
        c_fit = d * math.log(1.0 / eps)
        fitted.append(c_fit)
        rows.append((eps, d, c_fit, 0.0))
    spread = (max(fitted) - min(fitted)) / min(fitted)
    checks.append(_check("log_cutoff_constant_stable", spread, 0.0, 0.2))
    # the naive/log defect ratio grows like log(1/eps); the factor-100 gap
    # opens once the log ramp is pushed to eps ~ 1e-25
    ratio = got / approx.log_cutoff_defect(bump, 1e-25)
    checks.append(_check_true("naive_dominates_log", ratio >= 100.0, ratio))

    for n in (3, 4, 5):
        dn = Dimension(n)
        for radius in (1.0, 7.0):
            pb = make_named(dn, "bump", fall=(0.4 * radius, 0.8 * radius))
            ratio = approx.dim_reduction(pb, radius)
            rows.append((float(n), radius, ratio, 1.0 / (n - 2)))
            checks.append(_check(f"dim_reduction_N{n}_R{radius:g}", ratio,
                                 1.0 / (n - 2), 1e-7))

    bound = dim.hs_constant
    val0 = approx.e1_obstruction(make_named(dim, "annular_bump"))
    rows.append((0.0, val0, bound, 0.0))
    checks.append(_check_true("obstruction_above_bound", val0 >= bound * (1.0 - 1e-9), val0))
    return ("eps_or_N,value,reference,extra", rows, checks)


#: suite name -> its run on the dimension and the parsed flags, in the order of
#: ``all``; an entry looks its suite_* function up when called, so it runs a rebound one
SUITES = {
    "spectrum": lambda dim, args: suite_spectrum(dim, args.modes),
    "energy": lambda dim, args: suite_energy(dim, args.profile, args.eps_min),
    "evolve": lambda dim, args: suite_evolve(dim, args.profile, args.t_final, args.grid),
    "kelvin": lambda dim, args: suite_kelvin(dim),
    "poincare": lambda dim, args: suite_poincare(dim),
    "density": lambda dim, args: suite_density(dim),
}

COMMANDS = (*SUITES, "all")


def run(args: argparse.Namespace) -> int:
    dim = Dimension(args.dim)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    names = list(SUITES) if args.command == "all" else [args.command]

    all_ok = True
    combined = []
    for name in names:
        header, rows, checks = SUITES[name](dim, args)
        _write_csv(out / f"{name}.csv", header.split(","), rows)
        ok = all(c["pass"] for c in checks)
        all_ok = all_ok and ok
        for c in checks:
            status = "pass" if c["pass"] else "FAIL"
            print(f"[{name}] {c['name']}: {status} (value={_fmt(c['value'])})")
            for key in ("value", "expected", "tolerance"):  # strict JSON: no NaN/inf
                if not math.isfinite(c[key]):
                    c[key] = None
        report = {"suite": name, "dimension": dim.n, "rows": checks}
        (out / f"{name}.json").write_text(
            json.dumps(report, indent=2, allow_nan=False) + "\n")
        combined.append(report)
    if args.command == "all":
        (out / "all.json").write_text(json.dumps(combined, indent=2) + "\n")
    return 0 if all_ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hardylab",
        description="Run verification suites for the critical Hardy operator laboratory.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--dim", type=int, default=3, help="ambient dimension N >= 3")
    parser.add_argument("--profile", default="e1",
                        help="profile name, e.g. e1, bump, log_power(0.3)")
    parser.add_argument("--eps-min", type=float, default=1e-6)
    parser.add_argument("--modes", type=int, default=6)
    parser.add_argument("--t-final", type=float, default=0.1)
    parser.add_argument("--grid", type=int, default=512)
    parser.add_argument("--out", default="hardylab_out")
    args = parser.parse_args(argv)
    try:
        code = run(args)
    except ArithmeticError as exc:  # NonConvergenceError among them
        print(f"numerical failure: {exc}", file=sys.stderr)
        code = 1
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        code = 2
    # The reports are written, and the process that called main (the hardylab
    # script, python -m hardylab.cli) ends next.  Its finalization runs full
    # cyclic-GC passes over the ~42,000 objects that numpy, scipy and
    # hardylab leave tracked, about 25 ms; frozen objects sit in the
    # permanent generation, which no pass visits.
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(main())
