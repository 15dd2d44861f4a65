import gc
import json
import math
import tracemalloc

import numpy as np
import pytest

from hardylab import approx, hardy, spectrum, wholespace
from hardylab.cli import energy_law_defect, main
from hardylab.evolution import EnergySample

#: integrand points of one ``hardylab all`` run at the CLI defaults; a change
#: may lower these bounds, never raise them
ALL_POINT_BOUNDS = {3: 113_715, 4: 111_321}

#: points of the largest single integrand call of that run: 128 initial
#: panels of 21 nodes
ALL_LARGEST_CALL = 2_688

#: traced heap peak (tracemalloc, bytes) of that run after a warm-up run;
#: a change may lower these bounds, never raise them
ALL_PEAK_BYTES = {3: 400 * 1024, 4: 400 * 1024}


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
    assert rows[0] == "t,energy,dEdt_est,minus2dirichlet,flux_diag"


def _sample(dEdt, minus2d):
    return EnergySample(t=1.0, energy=1.0, dEdt_est=dEdt,
                        minus_twice_dirichlet=minus2d, flux_diag=0.0)


def test_energy_law_defect_on_synthetic_rows():
    rows = [_sample(-1.001, -1.0), _sample(-2.0, -2.0)]
    assert energy_law_defect(rows) == abs(-1.001 - -1.0) / 1.0
    assert energy_law_defect([]) == 0.0
    # a state that decayed below the float range: both sides are 0, and the
    # row tests nothing, so the check cannot pass on it
    assert energy_law_defect(rows + [_sample(0.0, 0.0)]) == math.inf
    # -2D is 0 but the rate is not: the law cannot hold, the check fails
    assert energy_law_defect([_sample(1e-300, 0.0)] + rows) == math.inf


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("delta", ["1e-12", "1e-20"])
def test_energy_suite_deep_log_ramp(tmp_path, n, delta):
    # the ramp is flat below delta, under the grid's smallest eps = 1e-6
    argv = ["energy", "--dim", str(n), "--profile", f"log_ramp({delta})"]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0


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


@pytest.mark.parametrize("profile", ["e1(7)", "log_ramp(1e-300)"])
def test_bad_profile_name_exits_2(tmp_path, profile):
    assert main(["energy", "--profile", profile, "--out", str(tmp_path / "x")]) == 2


def test_number_that_cannot_be_computed_exits_1(tmp_path, capsys):
    # the spectral expansion of oscillating(50) does not converge: the CLI
    # says so on stderr, without a traceback, and exits 1
    argv = ["evolve", "--profile", "oscillating(50)", "--grid", "64"]
    assert main(argv + ["--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and "Traceback" not in err


def test_bad_profile_exits_2(tmp_path):
    assert main(["energy", "--profile", "wat", "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("profile", [
    "mode(2.5)",          # was truncated to mode 2
    "log_power(-0.2)",    # v = s^a -> 0 at the origin, but tagged log_divergent
    "log_power(0)",       # v = 1 near the origin, tagged log_divergent
    "oscillating(-0.2)",  # sin(s^a) -> 0, tagged oscillating
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
