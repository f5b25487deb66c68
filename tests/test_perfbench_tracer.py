"""perfbench/tracer.py still reads the package: a traced experiment gives every layer metric."""
import importlib.util
import math
from pathlib import Path

import lslimaging
from lslimaging import preset_config, run_experiment

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_experiment_gives_every_layer_metric(tmp_path):
    tracer_module = _tracer_module()
    tracer = tracer_module.Tracer()
    tracer.request = 0
    tracer.install(lslimaging)
    try:
        run_experiment(preset_config("gaussian", n=51, N=2, f=2, outdir=tmp_path))
    finally:
        tracer.uninstall()
    # finish() reads resolvent_apply's operator and lambda by position
    tracer.finish()
    metrics = tracer_module.layer_metrics(tracer.spans, [0], 0.0)
    assert len(metrics) == 24
    assert all(math.isfinite(value) for value in metrics.values()), metrics
    # cold (conftest): four sample points for each medium, then the true and background fields at internal_lambda
    assert metrics["forward.solves"] == 10
