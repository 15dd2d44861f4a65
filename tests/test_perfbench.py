import importlib.util
from pathlib import Path

from hardylab import evolution, profiles

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_traced_names_resolve():
    # the tracer looks each name up on its module when it installs: a public
    # function renamed or deleted here breaks every traced benchmark run
    tracer = load_tracer()
    missing = [f"{mod.__name__}.{name}" for mod, names in tracer.TIMED.items()
               for name in names if not callable(getattr(mod, name, None))]
    missing += [f"profiles.{name}" for name in tracer.FACTORIES
                if not callable(getattr(profiles, name, None))]
    assert missing == []


def test_traced_fdrun_reads_its_attributes(dim3):
    # the tracer's FDRun subclass reads ``steps`` and ``states`` after
    # ``__init__``: renaming either breaks every traced heat_flow run
    t = load_tracer().Tracer()
    traced = t._fdrun(evolution.FDRun)
    grid = evolution.FDGrid(m=64, dt=1e-3)
    run = traced(profiles.named_profile(dim3, "bump"), grid, 0.01)
    assert t.counts["evolution.FDRun.steps"] == run.steps == 10
    assert t.counts["evolution.FDRun.state_bytes"] > 0
    assert evolution.energy_trace(run, (0.005,))[0].energy > 0.0


def test_traced_all_records_every_suite(tmp_path):
    # the tracer rebinds cli.suite_* to time them, and the suite table must
    # look them up when it runs: one span per suite, and integrals beneath
    tracer = load_tracer()
    t = tracer.Tracer()
    since = t.mark()
    t.install()
    try:
        assert tracer.cli.main(["all", "--dim", "3", "--out", str(tmp_path / "out")]) == 0
    finally:
        t.uninstall()
    spans = t.summary(since)
    assert {name: spans[f"cli.{name}.calls"] for name in tracer.TIMED[tracer.cli]} == {
        name: 1 for name in tracer.TIMED[tracer.cli]}
    assert spans["quadrature.integrate.calls"] > 0
