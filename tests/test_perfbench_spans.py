"""The benchmark's tracer wraps ftdesigns functions by name; a name that
no longer resolves would break only its traced runs, so check them here."""
import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_spanned_name_is_a_callable_of_its_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    names = [(mod, f) for mod, funcs in spans.SPANNED.items() for f in funcs]
    names.append(("perm", "compose"))    # counted, not spanned
    for mod, f in names:
        module = importlib.import_module(f"ftdesigns.{mod}")
        assert callable(getattr(module, f, None)), f"ftdesigns.{mod}.{f}"
