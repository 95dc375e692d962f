"""The benchmark's tracer still finds every function it wraps.

``perfbench/spans.py`` wraps ``fatpoints`` functions by module and name, so
renaming one of them would break ``perfbench/run.py --trace 1``.  The
tracer is loaded from its file as it is; nothing in it is changed.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import fatpoints
import fatpoints.cli  # noqa: F401  (the tracer wraps ``cli.main`` too)
from corpus import config_1345
from fatpoints import hilbert
from fatpoints.kconfig import fatten
from fatpoints.verify import verify_main

_ROOT = Path(__file__).resolve().parents[1]
_SPANS = _ROOT / "perfbench" / "spans.py"
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


def test_package_import_loads_every_traced_module():
    # perfbench/run.py imports fatpoints and fatpoints.cli, and the tracer
    # then reads every traced module from sys.modules.  This suite imports
    # them all itself, so only a fresh interpreter shows a module that the
    # package no longer imports (a lazy import would crash --trace 1).
    modules = sorted({mod for _, mod, _ in spans.LAYERS})
    code = (
        "import sys, fatpoints, fatpoints.cli\n"
        "print(*(m for m in sys.argv[1:] if 'fatpoints.' + m not in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(_ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    run = subprocess.run(
        [sys.executable, "-c", code, *modules],
        env=env, capture_output=True, text=True, check=True,
    )
    assert run.stdout.split() == []


def test_package_root_exports_nothing_and_loads_no_module():
    # Each name has one import path, fatpoints.<module>.<name>: the package
    # root re-exports nothing, so importing it, or one module, loads no
    # other module of the package, and the root's one public attribute is
    # the submodule that was imported.
    code = (
        "import importlib, sys\n"
        "importlib.import_module(sys.argv[1])\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'fatpoints'))\n"
        "print(*sorted(a for a in vars(sys.modules['fatpoints']) if a[0] != '_'))"
    )
    env = {**os.environ, "PYTHONPATH": str(_ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    for module, loaded, public in (("fatpoints", "fatpoints", ""),
                                   ("fatpoints.geom", "fatpoints fatpoints.geom", "geom")):
        run = subprocess.run(
            [sys.executable, "-c", code, module],
            env=env, capture_output=True, text=True, check=True,
        )
        assert run.stdout.split("\n") == [loaded, public, ""]


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
        rep = verify_main(config_1345(), [2])[0]
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
