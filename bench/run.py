"""binauralkit benchmark: three seeded closed-loop workloads.

    python3 bench/run.py --workload dense_plan --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Inputs are generated from the seed under ``.bench_work/`` and
removed afterwards. Each run starts fresh worker processes (worker.py):
with ``--trace 0`` it measures set-up several times and then the timed
loop, and prints every end-to-end metric of BENCHMARK.json, its times
rescaled to reference seconds by the host-speed kernel (hostspeed.py); with
``--trace 1`` it runs a fixed amount of traced work and prints every
per-layer metric, including ``trace.overhead_frac``. A summary with the
machine facts, input sizes, sample counts and output fingerprints goes to
``.bench_out/``. The last stdout line is the JSON result; the exit code is
nonzero when an output check failed.

predictions.json defines every metric and says which layer should move it
on which workload. The benchmark's own tests:
``python3 -m unittest discover -s bench/tests -t .``
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("dataset_grid", "dense_plan", "surround_render")
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def machine() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def spawn(args, role: str, work: Path, deadline: float) -> dict:
    """Run one worker; its setup_s comes back in reference seconds, rescaled
    by the host-speed kernel run here just before the spawn and in the
    worker just after its set-up."""
    from bench import hostspeed

    before = hostspeed.sample()
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--work", str(work), "--role", role]
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{role} worker exited with {proc.returncode}")
    res = json.loads(lines[-1])
    res["setup_wall_s"] = res["setup_s"]
    res["setup_s"] = float(hostspeed.rescale([res["setup_s"]], [before, res["kernel_s"]])[0])
    return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + WORKER_TIMEOUT_S

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "binauralkit" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} is not a binauralkit checkout (no src/binauralkit or "
              "BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from bench import inputs

    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        work.mkdir(parents=True)
        sizes = inputs.WRITERS[args.workload](inputs.Paths(work), args.seed)
        if args.trace:
            res = spawn(args, "trace", work, deadline)
            metrics = res["metrics"]
        else:
            setups = [spawn(args, "setup", work, deadline) for _ in range(SETUP_SAMPLES - 1)]
            res = spawn(args, "measure", work, deadline)
            setups.append(res)
            metrics = dict(res["metrics"],
                           setup_s=statistics.median(r["setup_s"] for r in setups),
                           ok_frac=1.0 - res["failed"] / res["attempted"])
            res["meta"]["setup_samples"] = [r["setup_s"] for r in setups]
            res["meta"]["setup_wall_samples"] = [r["setup_wall_s"] for r in setups]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            work.parent.rmdir()

    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"error: no value for metrics {missing}", file=sys.stderr)
        return 1
    correct = not res["errors"]
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(), "inputs": sizes,
        "attempted": res["attempted"], "failed": res["failed"], "errors": res["errors"],
        "meta": res["meta"], "sketch": res["sketch"],
        "metrics": {k: metrics[k] for k in units},
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(summary, indent=1))
    if args.trace:
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(res["spans"]))

    for err in res["errors"]:
        print(f"CHECK FAILED: {err}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(f"meta: {json.dumps({k: summary[k] for k in ('machine', 'inputs', 'meta')})}")
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
