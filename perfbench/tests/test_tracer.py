"""Span arithmetic, import attribution and the metric list."""

import json
import os
import types

import run
import tracer


def test_self_time_subtracts_children():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
    totals = tracer.span_totals(spans)
    assert totals["a"] == {"count": 1, "incl": 10.0, "self": 6.0}
    assert totals["b"] == {"count": 2, "incl": 4.0, "self": 3.0}


def test_wrappers_record_parents_and_generator_resumptions():
    def items():
        yield from range(3)

    module = types.SimpleNamespace(items=items)
    module.outer = lambda: sum(module.items())
    t = tracer.Tracer()
    module.outer = t.wrap_call(module.outer, "outer")
    module.items = t.wrap_generator(module.items, "items")
    assert module.outer() == 3
    assert [s[0] for s in t.spans] == ["outer", "items", "items", "items"]
    assert [s[3] for s in t.spans] == [-1, 0, 0, 0]


def test_import_times_charge_each_module_to_its_package():
    lines = [
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:        50 |        150 |   numpy",
        "import time:        30 |         30 |     json",
        "import time:        20 |         50 |   scipy",
        "import time:        10 |        210 | sampspectra.cli",
        "import time:         5 |          5 | re",
        "marker",
        "import time:       999 |        999 | scipy.late",
    ]
    got = tracer.import_times("\n".join(lines), "marker")
    assert got == {"import.numpy_s": 150e-6, "import.scipy_s": 50e-6,
                   "import.sampspectra_s": 10e-6}


def test_metric_names_match_the_benchmark_definition():
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "..", "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    assert declared == run.PER_LAYER_UNITS
    derived = set(tracer.layer_metrics([], {}, 0)) | set(tracer.import_times("", "-"))
    assert derived | {"trace.overhead_s"} == set(declared)
