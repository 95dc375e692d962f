"""The benchmark's tracer still finds every function it wraps.

``perfbench/spans.py`` wraps ``fatpoints`` functions by module and name, so
renaming one of them would break ``perfbench/run.py --trace 1``.  The
tracer is loaded from its file as it is; nothing in it is changed.
"""

import importlib
import importlib.util
from pathlib import Path

import fatpoints
import fatpoints.cli  # noqa: F401  (the tracer wraps ``cli.main`` too)
from corpus import config_1345
from fatpoints import hilbert
from fatpoints.kconfig import fatten
from fatpoints.verify import verify_main

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
_spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


def _layer_functions():
    return {
        (mod, name): getattr(importlib.import_module(f"fatpoints.{mod}"), name, None)
        for _, mod, name in spans.LAYERS
    }


def test_every_traced_layer_resolves():
    for (mod, name), func in _layer_functions().items():
        assert callable(func), f"fatpoints.{mod}.{name} is gone"


def test_tracer_records_and_restores():
    originals = _layer_functions()
    tracer = spans.Tracer()
    tracer.install(fatpoints)
    try:
        z = fatten(config_1345(), 2)
        assert hilbert.regularity_index(z) == 9
        # f_v(6) = 27 < F_v(6) = 28: the one value here that ranks a matrix
        assert hilbert.hilbert_value(z, 6) == 28
    finally:
        tracer.uninstall()
    assert _layer_functions() == originals
    names = [s["name"] for s in tracer.spans]
    assert names[0] == "hilbert.regularity_index"
    assert "hilbert.conditions_matrix" in names
    assert "linalg.rank" in names
    metrics = spans.layer_metrics(tracer.spans, set())
    assert metrics["hilbert.regularity_index.calls"][0] == 1
    assert metrics["linalg.rank.calls"][0] == 1


def test_tracer_annotates_a_verify_pass():
    # The rank and conditions_matrix notes read the matrix as a sequence of
    # integer rows; a traced verify pass, and a value the bounds leave
    # open, must get through them.
    tracer = spans.Tracer()
    tracer.install(fatpoints)
    try:
        rep = verify_main(config_1345(), 2)
        # the verify pass is settled by f_v = F_v; this value ranks a matrix
        assert hilbert.hilbert_value(fatten(config_1345(), 2), 6) == 28
    finally:
        tracer.uninstall()
    assert rep.ri == 9
    mats = [s for s in tracer.spans if s["name"] == "hilbert.conditions_matrix"]
    ranks = [s for s in tracer.spans if s["name"] == "linalg.rank"]
    assert mats and ranks
    assert all(s["cells"] > 0 and s["max_bits"] > 0 for s in mats)
    assert all(s["rows"] * s["cols"] > 0 and s["result"] > 0 for s in ranks)
    metrics = spans.layer_metrics(tracer.spans, set())
    assert metrics["hilbert.conditions_matrix.cells"][0] == sum(s["cells"] for s in mats)
