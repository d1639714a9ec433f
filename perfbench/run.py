"""orbiconv benchmark: one workload, one run.

    python3 perfbench/run.py --workload search_planted --seed 0 --seconds 30 --trace 0

Runs the workload in a child process (worker.py) pinned to one CPU, under an
address-space limit and with a one-thread BLAS pool. Checks its outputs
against reference.json, then prints a table of metrics and, as the last
line, one JSON object: end-to-end metrics with --trace 0, per-layer metrics
with --trace 1.
The metrics are defined in perfbench/README.md. Full records, including the
environment block and the spans of traced runs, go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
CHILD_TIMEOUT_S = 170
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the worker runs on a single CPU, so its BLAS pool has one thread
BLAS_THREADS = 1

END_TO_END_UNITS = {"images_per_s": "1/s", "step_ms_p50": "ms",
                    "step_ms_p90": "ms", "setup_s": "s", "peak_rss_mb": "MB",
                    "pass_rate": "share"}
PER_LAYER_UNITS = {
    "layers.col2im_s": "s", "layers.col2im_calls": "count",
    "layers.col2im_mb": "MB", "layers.im2col_s": "s",
    "layers.im2col_calls": "count", "layers.im2col_mb": "MB",
    "layers.conv_dw_fwd_s": "s", "layers.conv_dw_bwd_s": "s",
    "layers.conv_dense_fwd_s": "s", "layers.conv_dense_bwd_s": "s",
    "layers.conv_gmac": "GMAC", "layers.pool_fwd_s": "s",
    "layers.pool_bwd_s": "s", "layers.head_s": "s",
    "layers.f64_share": "share", "transform.reparam_s": "s",
    "transform.reparam_calls": "count", "transform.pushforward_s": "s",
    "transform.build_s": "s", "data.gen_s": "s",
    "autodiff.backward_self_s": "s", "autodiff.accumulate_s": "s",
    "autodiff.accumulate_calls": "count", "autodiff.zero_fill_calls": "count",
    "autodiff.mix_s": "s", "autodiff.elementwise_s": "s",
    "autodiff.tape_nodes": "count", "autodiff.tape_mb_max": "MB",
    "train.sgd_s": "s", "nas.adam_s": "s", "nas.supernet_build_s": "s",
    "train.evaluate_s": "s", "train.evaluate_incl_s": "s",
    "integrated.draw_s": "s", "integrated.circular_share": "share",
    "rng.stream_s": "s", "rng.stream_calls": "count",
    "experiments.warp_s": "s", "experiments.warp_images": "count",
    "trace.walk_s": "s", "trace.unattributed_s": "s", "trace.timed_s": "s",
    "trace.overhead_share": "share",
}


def end_to_end(raw: dict, peak_rss_mb: float) -> tuple[dict, dict]:
    """End-to-end metrics and the sample count behind each."""
    done = [ep for ep in raw["episodes"] if not ep["error"]]
    steps = [ms for ep in done for ms in ep["steps_ms"]]
    values = {
        "images_per_s": sum(ep["images"] for ep in done)
                        / sum(ep["seconds"] for ep in done),
        "step_ms_p50": statistics.median(steps),
        # Python's default (exclusive) quantile, capped at the slowest step
        # so that a short run does not extrapolate past its data
        "step_ms_p90": min(max(steps), statistics.quantiles(steps, n=10)[8]),
        "setup_s": raw["import_s"] + statistics.median(raw["setup_s"]),
        "peak_rss_mb": peak_rss_mb,
        "pass_rate": sum(ep["ok"] for ep in raw["episodes"])
                     / len(raw["episodes"]),
    }
    counts = {"images_per_s": f"{len(done)} episodes",
              "step_ms_p50": f"{len(steps)} steps",
              "step_ms_p90": f"{len(steps)} steps",
              "setup_s": f"{len(raw['setup_s'])} set-ups",
              "peak_rss_mb": "1 process",
              "pass_rate": f"{len(raw['episodes'])} episodes"}
    return values, counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 1 <= args.seconds <= 120:
        ap.error("--seconds must be within 1..120")

    if not (ROOT / "src" / "orbiconv" / "__init__.py").is_file():
        print(f"perfbench: no orbiconv sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    env = dict(os.environ, **{k: str(BLAS_THREADS) for k in BLAS_ENV})
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} ran past {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: worker exited with {proc.returncode}",
              file=sys.stderr)
        return 1
    raw = json.loads(lines[-1])
    episodes = raw["episodes"]
    failed = sum(not ep["ok"] for ep in episodes)

    if args.trace:
        if "per_layer" not in raw:
            print("perfbench: traced run failed its output check",
                  file=sys.stderr)
            return 1
        values = {k: raw["per_layer"][k] for k in PER_LAYER_UNITS}
        units = PER_LAYER_UNITS
        counts = {k: "per traced episode" for k in values}
    else:
        if all(ep["error"] for ep in episodes):
            print("perfbench: no episode completed", file=sys.stderr)
            return 1
        values, counts = end_to_end(raw, peak_rss_mb)
        units = END_TO_END_UNITS

    print(f"orbiconv benchmark: {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    print("environment: " + json.dumps(raw["env"]))
    for name, value in values.items():
        print(f"  {name:28s} {value:14.6g} {units[name]:6s} ({counts[name]})")
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "env": raw["env"], "peak_rss_mb": peak_rss_mb,
              "vm_peak_mb": raw["vm_peak_mb"],
              "import_s": raw["import_s"], "setup_s": raw.get("setup_s"),
              "episodes": episodes, "metrics": values, "samples": counts}
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(episodes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
