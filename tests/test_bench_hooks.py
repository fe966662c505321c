"""Smoke test for the names the benchmark's trace mode hooks into.

``bench/workloads.install_wrappers`` replaces gradpath module and class
attributes with timed wrappers (``harness.gd_run``,
``harness.path_length_discrete``, ``harness.effective_pkl_mu``,
``constructions.build_quad_lower``, ``constructions.build_pkl_gd_instance``
and ``ObjectiveSpec.gradient_at``).  Renaming or deleting one of them
breaks ``bench/run.py --trace 1`` and nothing else, so one small traced
experiment runs here.  It runs in a subprocess because the wrappers
patch module globals for the rest of the process.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"

SCRIPT = """
import json, sys
sys.path.insert(0, {bench!r})
import workloads
from spans import Tracer

gp = workloads.import_gradpath()
from gradpath import harness

tracer = Tracer()
workloads.install_wrappers(gp, tracer)
cfg = harness.ExperimentConfig("quad-lower-gd", dims=(3,), omegas=(2.0,))
rows = tracer.call("harness.run_experiment", harness.run_experiment, cfg)
names = ("optimizers.gd_run", "objectives.gradient_at", "analysis.path_length_discrete",
         "constructions.build")
print(json.dumps({{
    "rows": len(rows),
    "steps": rows[0].steps,
    "spans": {{name: tracer.count(name) for name in names}},
    "metrics": workloads.layer_metrics(tracer, {{}}),
    "metric_names": sorted(workloads.LAYER_METRICS),
}}))
"""


def test_trace_wrappers_record_a_quad_lower_gd_run():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(bench=str(BENCH))],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["rows"] == 1
    spans = out["spans"]
    assert spans["optimizers.gd_run"] == 1
    assert spans["analysis.path_length_discrete"] == 1
    assert spans["constructions.build"] == 1
    # one gradient call per step plus the one at the stopping point
    assert spans["objectives.gradient_at"] >= out["steps"] > 0
    metrics = out["metrics"]
    assert sorted(metrics) == out["metric_names"]
    assert metrics["optimizers.steps"] == out["steps"]
    assert metrics["objectives.grad_calls"] == spans["objectives.gradient_at"]
