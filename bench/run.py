"""gradpath benchmark: three oracle-checked workloads, one command.

    python3 bench/run.py --workload {flow-dp5,gd-geom,gd-pkl} --seed N --seconds S --trace {0,1}

Run from the root of a gradpath checkout; the package is imported from
``src/``.  Load comes from this one process, single-threaded and closed
loop: each workload run starts in a fresh child process
(``workloads.py``) after the previous one has ended, so that the
child's peak RSS belongs to that run alone.  Runs repeat while the
next one, at the median duration so far, still ends within
``--seconds`` (at least ``MIN_RUNS`` runs, or ``MIN_TRACED_PAIRS``
traced pairs), and the medians are reported.

``--trace 0`` reports the end-to-end metrics ``wall_s``, ``setup_s`` and
``peak_rss_mb``; ``setup_s`` also takes ``SETUP_PROBES`` extra children
that stop before the first solve call.  ``wall_s`` is the median wall
time of the runs, scaled to the reference host speed: the speed of a
shared host can drift by tens of percent over minutes, so every child also
times the benchmark's own calibration loop before and after its timed
work (``workloads.calibrate``), and the median time is multiplied by
``REFERENCE_CALIBRATION_S`` over the mean of those readings.  The mean,
not the median: a wall time averages the host's speed over its whole
interval, and so does the mean of readings spread over the run.

``--trace 1`` alternates untraced and traced runs and reports the
per-layer metrics of the traced ones, plus the tracing overhead
``trace.overhead_s`` (median traced minus median untraced wall time,
unscaled: the two kinds of run alternate, so they see the same host).

Every run's outputs are checked against independent references
(``checks.py``).  A wrong or missing output is a failed operation: the
failing checks are named on stderr and the command exits with code 1.
The last stdout line is the result as JSON; the machine description,
every sample and the spans go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import mean, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("flow-dp5", "gd-geom", "gd-pkl")
MIN_RUNS = 3
MIN_TRACED_PAIRS = 2
SETUP_PROBES = 12
#: Outputs checked per workload run: one per quadratic, grid point or row.
OPS_PER_RUN = {"flow-dp5": 6, "gd-geom": 2, "gd-pkl": 1}
CHILD_TIMEOUT_S = 150
#: Mean reading of ``workloads.calibrate`` on the reference host (2 vCPUs
#: of an Intel Xeon under KVM, Python 3.11.7, numpy 2.4.6).
REFERENCE_CALIBRATION_S = 0.0198

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def machine() -> dict:
    """Cores, versions, cache sizes and memory of the machine the numbers come from."""
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": platform.processor() or platform.machine(),
    }
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(caches.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            info[f"L{level}"] = size
    try:
        with open("/proc/meminfo") as fh:
            info["MemTotal"] = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("MemTotal"))
    except (OSError, StopIteration):
        pass
    return info


def spawn(workload: str, seed: int, mode: str) -> dict:
    """One workload run in a fresh child; its JSON result, or an ``error``."""
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, str(HERE / "workloads.py"), workload, str(seed), repr(spawned_at), mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} run timed out after {CHILD_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"{mode} run exited with code {proc.returncode}"}
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gradpath" / "__init__.py").is_file():
        print(f"error: {ROOT} is not a gradpath checkout (no src/gradpath)", file=sys.stderr)
        return 2

    start = time.monotonic()
    runs: list[dict] = []
    probes: list[float] = []
    failures: list[str] = []

    def record(result: dict):
        if "error" in result:
            failures.append(result["error"])
            result.update(ops=OPS_PER_RUN[args.workload], failed_ops=OPS_PER_RUN[args.workload])
        else:
            failures.extend(result["failures"])
        runs.append(result)

    durations: list[float] = []

    def another(minimum: int) -> bool:
        """Whether one more run (or traced pair) fits in --seconds."""
        if len(durations) < minimum:
            return True
        return time.monotonic() - start + median(durations) <= args.seconds

    def timed(*modes):
        began = time.monotonic()
        for mode in modes:
            record(spawn(args.workload, args.seed, mode))
        durations.append(time.monotonic() - began)

    if args.trace:
        while another(MIN_TRACED_PAIRS):
            timed("run", "trace")
    else:
        for _ in range(SETUP_PROBES):
            probe = spawn(args.workload, args.seed, "setup")
            if "error" in probe:
                failures.append(probe["error"])
            else:
                probes.append(probe["setup_s"])
        while another(MIN_RUNS):
            timed("run")

    good = [r for r in runs if "error" not in r]
    untraced = [r for r in good if "layers" not in r]
    traced = [r for r in good if "layers" in r]
    attempted = sum(r["ops"] for r in runs)
    failed = sum(r["failed_ops"] for r in runs)

    metrics: dict[str, dict] = {}
    speed = None
    if args.trace and traced and untraced:
        for name, unit in traced[0]["layer_units"].items():
            metrics[name] = {"value": median([r["layers"][name] for r in traced]), "unit": unit}
        overhead = median([r["wall_s"] for r in traced]) - median([r["wall_s"] for r in untraced])
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    elif not args.trace and untraced:
        readings = [c for r in untraced for c in r["calibration_s"]]
        speed = REFERENCE_CALIBRATION_S / mean(readings)
        samples = {
            "wall_s": [r["wall_s"] * speed for r in untraced],
            "setup_s": probes + [r["setup_s"] for r in untraced],
            "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
        }
        metrics = {name: {"value": median(samples[name]), "unit": unit} for name, unit in END_TO_END.items()}
    if not metrics:
        failures.append("no run completed")

    host = machine()
    host["numpy"] = good[0]["numpy"] if good else None
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": host, "metrics": metrics, "host_speed": speed, "failures": failures,
        "setup_probes": probes, "runs": runs,
    }
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(detail, indent=1) + "\n")

    for failure in dict.fromkeys(failures):
        print(f"FAILED {failure}", file=sys.stderr)
    print("machine: " + json.dumps(host))
    n_runs = len(traced) if args.trace else len(untraced)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}  (median of {n_runs} runs)")
    if speed is not None:
        raw = median([r["wall_s"] for r in untraced])
        print(f"unscaled wall time = {raw:.6g} s; host speed = {speed:.4g} x the reference"
              f" (mean of {len(readings)} calibration readings)")
    print(f"details: {out_file.relative_to(ROOT)}")
    correct = not failures and failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
