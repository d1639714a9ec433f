"""One benchmark run of one workload, in its own process.

Started by run.py, which reads the JSON line this prints. The address-space
limit is set before numpy is imported, so a memory blow-up in the workload
raises MemoryError here (and is counted as a failed episode) instead of
getting the whole benchmark killed. numpy, and instrument.py which imports
it, are imported only after the limit and the CPU pin are in place.

The process pins itself to the highest-numbered CPU it may use, so that the
scheduler cannot move it between CPUs that run at different speeds. On the
shared 2-vCPU host this benchmark was defined on, the same episode ran up to
a third faster or slower depending on the CPU and the moment.
"""

from __future__ import annotations

import argparse
import gzip
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

AS_LIMIT_MB = 3072      # address space of the workload process
SETUP_REPEATS = 3       # set-ups per run; setup_s reports their median
LOSS_RTOL = 1e-4        # relative tolerance on every loss in the outputs
EXACT_KEYS = ("genotype", "val_err", "test_err", "err", "setup_test_err")
LOSS_KEYS = ("train_loss", "val_loss", "setup_train_loss")
MODULES = ("layers", "transform", "autodiff", "nas", "train", "integrated",
           "experiments", "data", "rng")


def environment(seed: int, case: int) -> dict:
    import numpy as np
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "pinned_cpu": max(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "as_limit_mb": AS_LIMIT_MB,
        "seed": seed,
        "case": case,
    }


def vm_peak_mb() -> float | None:
    """Peak address-space size of this process, to compare with AS_LIMIT_MB."""
    try:
        with open("/proc/self/status", encoding="utf-8") as f:
            for line in f:
                if line.startswith("VmPeak:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None


def mismatches(out: dict, ref: dict) -> list[str]:
    """Differences between an episode's outputs and the stored reference."""
    out = json.loads(json.dumps(out))
    bad = []
    if sorted(out) != sorted(ref):
        return [f"output keys {sorted(out)} != reference {sorted(ref)}"]
    for key in out:
        got, want = out[key], ref[key]
        if key in LOSS_KEYS:
            if len(got) != len(want) or any(
                    abs(g - w) > LOSS_RTOL * abs(w) for g, w in zip(got, want)):
                bad.append(f"{key}: {got} vs reference {want} (rtol {LOSS_RTOL})")
        elif key in EXACT_KEYS:
            if got != want:
                bad.append(f"{key}: {got} vs reference {want}")
        else:
            bad.append(f"{key}: no comparison rule")
    return bad


def run_episodes(pkg, workload, state, reference, budget_s,
                 tracer=None) -> list[dict]:
    """Repeat episodes while the next one is expected to end within budget_s
    (at least one). Each is timed step by step and checked."""
    import instrument
    marks, extends = workload.step_hooks(pkg)
    step_clock = instrument.StepClock(marks, extends)
    step_clock.install()
    images = workload.images(state)
    episodes: list[dict] = []
    begin = instrument.clock()
    try:
        while True:
            start = step_clock.start()
            root = None if tracer is None else tracer.open(instrument.EPISODE)
            error, out = None, None
            try:
                out = workload.episode(pkg, state)
            except Exception:  # counted as a failed episode, then stop
                error = traceback.format_exc()
            finally:
                if tracer is not None:
                    tracer.close(root)
            end = instrument.clock()
            bad = [error] if error else mismatches(out, reference)
            for line in bad:
                print(f"perfbench: episode {len(episodes)} failed: {line}",
                      file=sys.stderr)
            episodes.append({"seconds": end - start, "images": images,
                             "steps_ms": step_clock.steps_ms(start),
                             "ok": not bad, "error": bool(error),
                             "span": root})
            if error:
                break
            typical = statistics.median(e["seconds"] for e in episodes)
            if end - begin + typical > budget_s:
                break
    finally:
        step_clock.uninstall()
    return episodes


def per_layer(tracer, setup_root, traced, untraced) -> dict:
    """Per-layer metrics: self seconds and counts per traced episode."""
    import instrument
    n = len(traced)
    values = {b: 0.0 for b in set(instrument.BUCKETS.values())}
    unattributed = 0.0
    for ep in traced:
        for name, t in tracer.self_times(ep["span"]).items():
            if name in instrument.BUCKETS:
                values[instrument.BUCKETS[name]] += t / n
            else:
                unattributed += t / n
    # data generation and transform builds happen in set-up
    setup = tracer.self_times(setup_root)
    for metric in ("data.gen_s", "transform.build_s"):
        values[metric] = sum(t for name, t in setup.items()
                             if instrument.BUCKETS.get(name) == metric)
    counts = tracer.counts
    for key, scale in instrument.COUNTERS.items():
        values[key] = counts[key] / n * scale
    values["layers.f64_share"] = (counts["conv.f64_calls"] / counts["conv.calls"]
                                  if counts["conv.calls"] else 0.0)
    values["integrated.circular_share"] = (
        counts["draw.circular"] / counts["draw.calls"]
        if counts["draw.calls"] else 0.0)
    values["autodiff.tape_nodes"] = tracer.tape_nodes
    values["autodiff.tape_mb_max"] = tracer.tape_bytes / 1e6
    evaluate_s = 0.0
    for ep in traced:
        for idx in tracer.subtree(ep["span"]):
            name, start, end, _ = tracer.spans[idx]
            if name == "train.evaluate":
                evaluate_s += end - start
    values["train.evaluate_incl_s"] = evaluate_s / n
    values["trace.unattributed_s"] = unattributed
    values["trace.timed_s"] = sum(
        tracer.spans[ep["span"]][2] - tracer.spans[ep["span"]][1]
        for ep in traced) / n
    values["trace.overhead_share"] = (
        statistics.median(ep["seconds"] for ep in traced)
        / statistics.median(ep["seconds"] for ep in untraced) - 1.0)
    return values


def write_spans(tracer, path: Path) -> None:
    names: dict[str, int] = {}
    rows = []
    for name, start, end, parent in tracer.spans:
        rows.append([names.setdefault(name, len(names)), start, end, parent])
    OUT_DIR.mkdir(exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as f:
        json.dump({"names": list(names), "spans": rows}, f)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    limit = AS_LIMIT_MB * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    pkg = {m: importlib.import_module(f"orbiconv.{m}") for m in MODULES}
    import_s = time.perf_counter() - t0

    import instrument
    from workloads import CASES, WORKLOADS
    workload = WORKLOADS[args.workload]
    case = args.seed % CASES
    with open(HERE / "reference.json", encoding="utf-8") as f:
        reference = json.load(f)["workloads"][workload.name][str(case)]

    result = {"env": environment(args.seed, case), "import_s": import_s}
    if not args.trace:
        setup_s = []
        for _ in range(SETUP_REPEATS):
            t = instrument.clock()
            state = workload.setup(pkg, case)
            setup_s.append(instrument.clock() - t)
        episodes = run_episodes(pkg, workload, state, reference, args.seconds)
        result["setup_s"] = setup_s
    else:
        tracer = instrument.Tracer()
        tracer.install(pkg)
        setup_root = tracer.open("setup")
        state = workload.setup(pkg, case)
        tracer.close(setup_root)
        tracer.uninstall()
        tracer.counts.clear()
        tracer.tape_nodes = tracer.tape_bytes = 0
        untraced = run_episodes(pkg, workload, state, reference,
                                args.seconds / 2)
        tracer.install(pkg)
        try:
            traced = run_episodes(pkg, workload, state, reference,
                                  args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        episodes = untraced + traced
        if all(ep["ok"] for ep in episodes):
            result["per_layer"] = per_layer(tracer, setup_root, traced,
                                            untraced)
        write_spans(tracer, OUT_DIR / f"spans-{workload.name}-seed{args.seed}.json.gz")
    for ep in episodes:
        ep.pop("span")
    result["episodes"] = episodes
    result["vm_peak_mb"] = vm_peak_mb()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
