"""One fresh benchmark process: set-up only (--role setup), set-up and the
timed loop (measure), or set-up and the traced run (trace). Prints one JSON
line on stdout.

Started by run.py; not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--role", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() in the parent just before the spawn")
    args = ap.parse_args()
    warnings.simplefilter("ignore")

    from bench import hostspeed, inputs, workloads
    from bench.tracer import Tracer

    w = workloads.WORKLOADS[args.workload](inputs.Paths(Path(args.work)), args.seed)
    tracer = Tracer()
    if args.role == "trace":
        tracer.request = "setup"
        tracer.install()
    try:
        w.setup()
    finally:
        tracer.uninstall()
    out = {"setup_s": time.monotonic() - args.spawned_at, "kernel_s": hostspeed.sample()}
    if args.role != "setup":
        o = workloads.Outcome()
        if args.role == "measure":
            out["metrics"] = w.measure(args.seconds, o)
            out["metrics"]["peak_rss_mb"] = o.meta.pop("peak_rss_mb")
        else:
            extra = w.trace(tracer, o)
            out["metrics"] = {**tracer.metrics(), "dataset.scaling_eff": 0.0, **extra}
            out["spans"] = tracer.dump()
        out.update(attempted=o.attempted, failed=o.failed, errors=o.errors, meta=o.meta,
                   sketch=getattr(w, "sketch", None))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
