"""The traced benchmark wraps pwrecon names listed in ``pwbench/spans.py``;
each must still exist, or a traced run crashes instead of a test failing."""

import functools
import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "pwbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("pwbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    targets = _load_spans().TARGETS
    assert targets
    missing = []
    for _span, module, attr in targets:
        try:
            functools.reduce(getattr, attr.split("."), importlib.import_module(module))
        except (ImportError, AttributeError):
            missing.append("%s.%s" % (module, attr))
    assert missing == []
