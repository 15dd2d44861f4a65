import importlib.util
from pathlib import Path

from hardylab import profiles

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_traced_names_resolve():
    # the tracer looks each name up on its module when it installs: a public
    # function renamed or deleted here breaks every traced benchmark run
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{mod.__name__}.{name}" for mod, names in tracer.TIMED.items()
               for name in names if not callable(getattr(mod, name, None))]
    missing += [f"profiles.{name}" for name in tracer.FACTORIES
                if not callable(getattr(profiles, name, None))]
    assert missing == []
