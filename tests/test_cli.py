import gc
import json
import math
import tracemalloc

import numpy as np
import pytest

from hardylab import approx, evolution, hardy, spectrum, wholespace
from hardylab.cli import energy_law_defect, main, suite_density, suite_evolve
from hardylab.evolution import EnergySample
from hardylab.profiles import Dimension

#: integrand points of one ``hardylab all`` run at the CLI defaults; a change
#: may lower these bounds, never raise them
ALL_POINT_BOUNDS = {3: 16_989, 4: 15_687}

#: points of the largest single integrand call of that run: the children
#: of 7 panels split in one round
ALL_LARGEST_CALL = 294

#: the report ledger: |value - expected| of each tolerance-bearing check of
#: ``hardylab all`` at the CLI defaults, as measured when the ledger landed
#: (rounded up to two digits; subcritical_final_gap reads 7.4e-4 against
#: 1e-3 by construction and is left out).  A check may drift to 100 times
#: its entry, floored at 1e-15 max(1, |expected|); the entries may only fall
REPORT_LEDGER = {
    3: {"spectrum.mu_1": 0.0, "spectrum.mu_1_printed_2dp": 0.0,
        "spectrum.mode_orthonormality": 7e-14,
        "energy.decomposition_residual": 3.2e-16, "energy.singularity_energy_limit": 2.9e-12,
        "energy.norm_gap_vs_singularity_energy": 0.0,
        "evolve.energy_law": 2.6e-07, "evolve.discrete_energy_law": 2.9e-13,
        "evolve.fd_vs_spectral_L2": 9e-07,
        "evolve.semigroup_exact": 2e-31, "evolve.long_time_log_slope": 0.0,
        "kelvin.inversion_identity_defect": 3.6e-15, "kelvin.surface_term_defect": 8.9e-16,
        "kelvin.unitary_equivalence": 3.6e-15, "kelvin.hidden_energy_additive": 1.2e-08,
        "kelvin.exterior_functional_identity": 1.2e-08,
        "poincare.hardy_poincare_defect": 4.7e-14, "poincare.norm_decomposition_defect": 9.1e-12,
        "density.naive_cutoff_limit_match": 1.2e-16, "density.naive_cutoff_limit_match_e1": 3.8e-08,
        "density.log_cutoff_constant_stable": 1.5e-16,
        "density.dim_reduction_N3_R1": 4.5e-16, "density.dim_reduction_N3_R7": 4.5e-16,
        "density.dim_reduction_N4_R1": 2.8e-16, "density.dim_reduction_N4_R7": 1.7e-16,
        "density.dim_reduction_N5_R1": 2.8e-16, "density.dim_reduction_N5_R7": 1.2e-16},
    4: {"spectrum.mu_1": 0.0, "spectrum.mu_1_printed_2dp": 0.0,
        "spectrum.mode_orthonormality": 7e-14,
        "energy.decomposition_residual": 6e-16, "energy.singularity_energy_limit": 2.9e-12,
        "energy.norm_gap_vs_singularity_energy": 0.0,
        "evolve.energy_law": 2.6e-07, "evolve.discrete_energy_law": 4.4e-13,
        "evolve.fd_vs_spectral_L2": 1.2e-06,
        "evolve.semigroup_exact": 2e-31, "evolve.long_time_log_slope": 0.0,
        "kelvin.inversion_identity_defect": 2.2e-14, "kelvin.surface_term_defect": 0.0,
        "kelvin.unitary_equivalence": 1.8e-15, "kelvin.hidden_energy_additive": 3.6e-08,
        "kelvin.exterior_functional_identity": 3.6e-08,
        "poincare.hardy_poincare_defect": 7.9e-14, "poincare.norm_decomposition_defect": 1.8e-11,
        "density.naive_cutoff_limit_match": 0.0, "density.naive_cutoff_limit_match_e1": 3.8e-08,
        "density.log_cutoff_constant_stable": 1.8e-16,
        "density.dim_reduction_N3_R1": 4.5e-16, "density.dim_reduction_N3_R7": 4.5e-16,
        "density.dim_reduction_N4_R1": 2.8e-16, "density.dim_reduction_N4_R7": 1.7e-16,
        "density.dim_reduction_N5_R1": 2.8e-16, "density.dim_reduction_N5_R7": 1.2e-16},
}

#: traced heap peak (tracemalloc, bytes) of that run after a warm-up run;
#: a change may lower these bounds, never raise them
ALL_PEAK_BYTES = {3: 160 * 1024, 4: 160 * 1024}


def test_spectrum_suite(tmp_path):
    out = tmp_path / "out"
    assert main(["spectrum", "--out", str(out)]) == 0
    csv = (out / "spectrum.csv").read_text().splitlines()
    assert csv[0] == "k,zero,eigenvalue,norm2_or_c"
    first = csv[1].split(",")
    assert first[0] == "1"
    assert abs(float(first[2]) - 5.783185962946785) < 1e-9
    report = json.loads((out / "spectrum.json").read_text())
    assert report["suite"] == "spectrum"
    assert report["dimension"] == 3
    for row in report["rows"]:
        assert set(row) == {"name", "value", "expected", "tolerance", "pass"}
        assert row["pass"] is True


def test_spectrum_suite_subcritical_zero_of_a_large_order(tmp_path):
    # N = 250 gives the order m = sqrt(c* - c) = 39.21 for the first c; the
    # first zero of J_m squared is 2099.53785188 by mpmath, where a bracket
    # around McMahon's estimate catches a later zero (2617.459)
    out = tmp_path / "out"
    assert main(["spectrum", "--dim", "250", "--out", str(out)]) == 0
    rows = [row.split(",") for row in (out / "spectrum.csv").read_text().splitlines()[1:]]
    first = next(row for row in rows if row[0] == "0")
    assert f"{float(first[2]):.8f}" == "2099.53785188"


def test_energy_suite_profile_flag(tmp_path):
    out = tmp_path / "out"
    assert main(["energy", "--profile", "bump", "--out", str(out)]) == 0
    rows = (out / "energy.csv").read_text().splitlines()
    assert rows[0] == "eps,annulus,singularity,dirichlet,residual"
    assert len(rows) >= 6


def test_evolve_suite(tmp_path):
    out = tmp_path / "out"
    assert main(["evolve", "--grid", "256", "--out", str(out)]) == 0
    rows = (out / "evolve.csv").read_text().splitlines()
    assert rows[0] == "t,energy,dEdt_est,minus2dirichlet,law_defect"


def _sample(dEdt, minus2d):
    return EnergySample(t=1.0, energy=1.0, dEdt_est=dEdt, minus_twice_dirichlet=minus2d)


def test_energy_law_defect_on_synthetic_rows():
    rows = [_sample(-1.001, -1.0), _sample(-2.0, -2.0)]
    assert energy_law_defect(rows) == abs(-1.001 - -1.0) / 1.0
    assert energy_law_defect([]) == 0.0
    # a state that decayed below the float range: both sides are 0, and the
    # row tests nothing, so the check cannot pass on it
    assert energy_law_defect(rows + [_sample(0.0, 0.0)]) == math.inf
    # -2D is 0 but the rate is not: the law cannot hold, the check fails
    assert energy_law_defect([_sample(1e-300, 0.0)] + rows) == math.inf


def test_discrete_energy_law_sees_a_perturbed_axis_flux(monkeypatch):
    # the factored matrix with its axis off-diagonal scaled by 1 + 1e-9: the
    # states keep a neighbouring scheme's law, 1e-9 off the one the check
    # writes, while every comparison with the continuous flow still passes
    dpttrf = evolution.lapack.dpttrf

    def perturbed(d, e):
        e = e.copy()
        e[0] *= 1.0 + 1e-9
        return dpttrf(d, e)

    monkeypatch.setattr(evolution.lapack, "dpttrf", perturbed)
    _, _, checks = suite_evolve(Dimension(3), "e1", 0.1, 512)
    law = next(c for c in checks if c["name"] == "discrete_energy_law")
    assert not law["pass"] and law["value"] > 1e-10
    assert all(c["pass"] for c in checks if c is not law)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("delta", ["1e-12", "1e-20"])
def test_energy_suite_deep_log_ramp(tmp_path, n, delta):
    # the ramp is flat below delta, under the grid's smallest eps = 1e-6
    argv = ["energy", "--dim", str(n), "--profile", f"log_ramp({delta})"]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0


def _energy_rows(tmp_path, n, profile):
    """(exit code, {name: row}) of the energy suite on one profile."""
    out = tmp_path / "out"
    code = main(["energy", "--dim", str(n), "--profile", profile, "--out", str(out)])
    return code, {r["name"]: r for r in json.loads((out / "energy.json").read_text())["rows"]}


@pytest.mark.parametrize("n, profile", [(3, "annular_bump"), (3, "subcritical(0.2)"),
                                        (4, "subcritical(0.5)"), (5, "annular_bump")])
def test_energy_suite_vanishing_profile_carries_no_norm_gap(tmp_path, n, profile):
    code, rows = _energy_rows(tmp_path, n, profile)
    assert code == 0
    assert rows["norm_gap_vanishes"]["pass"] is True
    assert "norm_gap_vs_singularity_energy" not in rows


def test_energy_suite_norm_gap_without_limits_fails_in_strict_json(tmp_path):
    # m = sqrt(c* - c) = 0.01: neither limit converges, so the gap and its
    # tolerance are nan; the row fails and the report holds no NaN token
    code, rows = _energy_rows(tmp_path, 3, "subcritical(0.2499)")
    assert code == 1
    assert rows["norm_gap_vanishes"] == {"name": "norm_gap_vanishes", "value": None,
                                         "expected": 0.0, "tolerance": None, "pass": False}


def test_failed_limit_predicate_keeps_its_missing_measurement(tmp_path, capsys):
    # the cutoff limit of oscillating(0.3) is not converged on the deep grid
    # (ROADMAP item 18): the predicate fails with the limit's nan, written as
    # null, not as a clean value 0 = 0
    code, rows = _energy_rows(tmp_path, 3, "oscillating(0.3)")
    assert code == 1
    assert rows["cutoff_norm_converged"] == {"name": "cutoff_norm_converged", "value": None,
                                             "expected": None, "tolerance": 0.0,
                                             "pass": False}
    assert "cutoff_norm_converged: FAIL (value=nan)" in capsys.readouterr().out


def test_member_next_to_the_critical_exponent_converges(tmp_path):
    # the differences of log_power(0.45) contract by 2^(2a-1) = 0.933 per
    # deep-grid step; the limit is the law's bridge plus closed tail
    code, rows = _energy_rows(tmp_path, 3, "log_power(0.45)")
    assert code == 0
    assert rows["cutoff_norm_converged"]["pass"] is True
    assert abs(rows["cutoff_norm_converged"]["value"] - 39.5218590882) <= 1e-9


def test_predicate_without_measurement_writes_one(tmp_path):
    out = tmp_path / "out"
    assert main(["spectrum", "--out", str(out)]) == 0
    rows = {r["name"]: r for r in json.loads((out / "spectrum.json").read_text())["rows"]}
    assert rows["zero_interlacing"] == {"name": "zero_interlacing", "value": 1.0,
                                        "expected": 1.0, "tolerance": 0.0, "pass": True}


def test_kelvin_suite(tmp_path):
    out = tmp_path / "out"
    assert main(["kelvin", "--out", str(out)]) == 0
    report = json.loads((out / "kelvin.json").read_text())
    names = [row["name"] for row in report["rows"]]
    assert "inversion_identity_defect" in names
    assert "exterior_functional_negative" in names


def test_all_command_writes_combined_report(tmp_path):
    out = tmp_path / "out"
    assert main(["all", "--grid", "128", "--out", str(out)]) == 0
    combined = json.loads((out / "all.json").read_text())
    assert [r["suite"] for r in combined] == [
        "spectrum", "energy", "evolve", "kelvin", "poincare", "density"]
    for suite in combined:
        for row in suite["rows"]:
            assert row["pass"] is True


def test_all_command_dimension_four(tmp_path):
    out = tmp_path / "out"
    assert main(["all", "--dim", "4", "--out", str(out)]) == 0
    combined = json.loads((out / "all.json").read_text())
    assert all(suite["dimension"] == 4 for suite in combined)
    for suite in combined:
        for row in suite["rows"]:
            assert row["pass"] is True, (suite["suite"], row["name"])


def test_byte_identical_reruns(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["density", "--out", str(out1)]) == 0
    assert main(["density", "--out", str(out2)]) == 0
    assert (out1 / "density.csv").read_bytes() == (out2 / "density.csv").read_bytes()
    assert (out1 / "density.json").read_bytes() == (out2 / "density.json").read_bytes()


def test_bad_dimension_exits_2(tmp_path):
    assert main(["spectrum", "--dim", "2", "--out", str(tmp_path / "x")]) == 2


def test_dimension_beyond_the_float_range_exits_2(tmp_path):
    # the ball volume of N = 400 overflows a float
    assert main(["spectrum", "--dim", "400", "--out", str(tmp_path / "x")]) == 2


# the estimate of the 1e300-th zero of J_0 that mode(1e300) needs overflows
@pytest.mark.parametrize("profile", ["e1(7)", "log_ramp(1e-300)", "mode(1e300)"])
def test_bad_profile_name_exits_2(tmp_path, profile):
    assert main(["energy", "--profile", profile, "--out", str(tmp_path / "x")]) == 2


def test_number_that_cannot_be_computed_exits_1(tmp_path, capsys):
    # the spectral expansion of oscillating(50) does not converge: the CLI
    # says so on stderr, without a traceback, and exits 1
    argv = ["evolve", "--profile", "oscillating(50)", "--grid", "64"]
    assert main(argv + ["--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and "Traceback" not in err


@pytest.mark.parametrize("n", [103, 120, 154, 341])
def test_all_passes_in_high_dimensions(tmp_path, capsys, n):
    # every energy is computed from the regular part v: no r^(N-2)/2 and no
    # S^(N-2) is formed, so nothing overflows up to the largest dimension
    assert main(["all", "--dim", str(n), "--out", str(tmp_path / "x")]) == 0
    assert capsys.readouterr().err == ""


def test_bad_profile_exits_2(tmp_path):
    assert main(["energy", "--profile", "wat", "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("profile", [
    "mode(2.5)",          # was truncated to mode 2
    "log_power(-0.2)",    # v = s^a -> 0 at the origin, but tagged log_divergent
    "log_power(0)",       # v = 1 near the origin, tagged log_divergent
    "oscillating(-0.2)",  # sin(s^a) -> 0, tagged oscillating
    "log_power(1e400)",   # a = inf, whose integrals are nan
    "oscillating(1e400)",
])
def test_profile_outside_its_family_exits_2(tmp_path, profile):
    assert main(["energy", "--profile", profile, "--out", str(tmp_path / "x")]) == 2


def test_whole_mode_index_written_as_float(tmp_path):
    out = tmp_path / "out"
    assert main(["energy", "--profile", "mode(2.0)", "--out", str(out)]) == 0
    assert main(["energy", "--profile", "mode(2)", "--out", str(tmp_path / "ref")]) == 0
    assert (out / "energy.csv").read_text() == (tmp_path / "ref" / "energy.csv").read_text()


def test_off_grid_evolve_time_exits_2(tmp_path):
    # t_final = 0.1001 is 1001 steps of 1e-4, but its trace time
    # t_final / 8 = 0.0125125 is not on the time grid
    argv = ["evolve", "--t-final", "0.1001", "--grid", "64", "--out", str(tmp_path / "x")]
    assert main(argv) == 2


def test_trace_time_error_names_the_flag(tmp_path, capsys):
    # t_final = 0.001 is 10 steps of 1e-4, but the trace time t_final / 8 =
    # 0.000125 is not: the error names the flag the user typed and the rule
    argv = ["evolve", "--t-final", "0.001", "--grid", "64", "--out", str(tmp_path / "x")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "--t-final 0.001" in err and "8 dt = 0.0008" in err
    assert "0.000125" not in err
    # t_final/8 lies 9e-10 off the grid, within the 1e-9 rule, but t_final
    # lies 7.2e-9 off it, which the run itself refuses
    argv[2] = "0.0008000072"
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "--t-final 0.0008000072" in err and "8 dt = 0.0008" in err


@pytest.mark.parametrize("argv", [
    ["energy", "--eps-min", "0.5"],   # no eps of the grid 1e-1, ..., 1e-12 is left
    ["energy", "--eps-min", "nan"],
    ["spectrum", "--modes", "0"],
    ["spectrum", "--modes", "-3"],
], ids=lambda a: " ".join(a))
def test_empty_eps_list_or_mode_table_exits_2(tmp_path, argv):
    assert main(argv + ["--out", str(tmp_path / "x")]) == 2


def test_nonfinite_evolve_time_exits_2(tmp_path):
    argv = ["evolve", "--t-final", "inf", "--grid", "64", "--out", str(tmp_path / "x")]
    assert main(argv) == 2


def test_unknown_command_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, code", [(["spectrum"], 0), (["spectrum", "--modes", "0"], 2)],
                         ids=["exit 0", "exit 2"])
def test_main_freezes_the_heap_before_it_returns(tmp_path, argv, code):
    gc.unfreeze()
    try:
        assert main(argv + ["--out", str(tmp_path / "out")]) == code
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()


def test_obstruction_check_scales_with_the_bound(tmp_path, monkeypatch):
    # at N = 60 the bound hs is 5.4e-15, so an absolute slack of 1e-9 would
    # pass an obstruction of half the bound; the slack is relative to it
    hs = Dimension(60).hs_constant
    monkeypatch.setattr(approx, "e1_obstruction", lambda p: 0.5 * hs)
    _, _, checks = suite_density(Dimension(60))
    row, = [c for c in checks if c["name"] == "obstruction_above_bound"]
    assert row["pass"] is False


def test_dimension_four(tmp_path):
    out = tmp_path / "out"
    assert main(["kelvin", "--dim", "4", "--out", str(out)]) == 0
    report = json.loads((out / "kelvin.json").read_text())
    neg = [r for r in report["rows"] if r["name"] == "exterior_functional_negative"]
    assert neg and neg[0]["pass"] is True
    assert neg[0]["value"] < 0.0


@pytest.mark.parametrize("n", sorted(ALL_POINT_BOUNDS))
def test_all_command_point_budget(tmp_path, monkeypatch, n):
    # np.size of every integrand argument, over every module that integrates
    # (kelvin integrates through hardy)
    sizes = []

    def counting(plain):
        def integrate(f, *args, **kwargs):
            def counted(r):
                sizes.append(np.size(r))
                return f(r)

            return plain(counted, *args, **kwargs)

        return integrate

    for module in (approx, hardy, spectrum, wholespace):
        monkeypatch.setattr(module, "integrate", counting(module.integrate))
    assert main(["all", "--dim", str(n), "--out", str(tmp_path / "out")]) == 0
    assert sum(sizes) <= ALL_POINT_BOUNDS[n]
    assert max(sizes) <= ALL_LARGEST_CALL


@pytest.mark.parametrize("n", sorted(ALL_PEAK_BYTES))
def test_all_command_heap_peak(tmp_path, n):
    # the warm-up run fills the caches (Bessel zeros, lazy imports), so the
    # traced run sees only what one run allocates and frees again
    argv = ["all", "--dim", str(n), "--out"]
    assert main(argv + [str(tmp_path / "warm")]) == 0
    tracemalloc.start()
    try:
        assert main(argv + [str(tmp_path / "out")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= ALL_PEAK_BYTES[n]


@pytest.mark.parametrize("n", sorted(REPORT_LEDGER))
def test_report_ledger(tmp_path, n):
    # every tolerance-bearing check stays within 100 times its error at the
    # ledger's landing, so a change that is not byte-identical must stay
    # close to the numbers, not merely within the check's tolerance
    out = tmp_path / "out"
    assert main(["all", "--dim", str(n), "--out", str(out)]) == 0
    seen = {}
    for suite in json.loads((out / "all.json").read_text()):
        for row in suite["rows"]:
            if row["tolerance"] > 0.0 and row["name"] != "subcritical_final_gap":
                seen[f"{suite['suite']}.{row['name']}"] = row
    assert set(seen) == set(REPORT_LEDGER[n])
    for key, row in seen.items():
        bound = max(100.0 * REPORT_LEDGER[n][key], 1e-15 * max(1.0, abs(row["expected"])))
        assert abs(row["value"] - row["expected"]) <= bound, (key, row["value"], bound)
