import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_chancap_tracer_target_resolves():
    """Each chancap name the benchmark tracer patches exists, so renaming or
    removing one fails here and not only in the benchmark's own tests."""
    spec = importlib.util.spec_from_file_location("chancap_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [(home, path) for home, path, *_ in tracer.TARGETS if home.startswith("chancap")]
    assert targets
    for home, path in targets:
        owner = importlib.import_module(home)
        for part in path.split("."):
            assert part in vars(owner), f"{home}.{path}"
            owner = vars(owner)[part]
