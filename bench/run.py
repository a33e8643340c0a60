"""Benchmark entry point: one workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload metric-grid|wall-approach|certify \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in its own
single-threaded process (``workloads.py``) on this checkout's ``src``.
With ``--trace 0`` the workload is also set up in two further processes
and ``setup_s`` is the median of the three set-up times; the last line is
a JSON object with every end-to-end metric.  With ``--trace 1`` one traced
process reports the per-layer metrics instead.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("metric-grid", "wall-approach", "certify")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0

END_TO_END = (("items_per_s", "1/s"), ("item_s_p50", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"), ("accuracy_digits", "digits"))
PER_LAYER_UNITS = {"calls": "count", "sweeps": "count", "s": "s"}


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def run_child(args: list[str], timeout: float) -> tuple[dict, list[str]]:
    """Run one workload process to its end; return its JSON and text lines."""
    cmd = [sys.executable, os.path.join(HERE, "workloads.py")] + args
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"workload process timed out: {' '.join(args)}")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"workload process failed ({proc.returncode}): "
                         f"{' '.join(args)}")
    return json.loads(lines[-1]), lines[:-1]


def per_layer_unit(name: str) -> str:
    return PER_LAYER_UNITS[name.rsplit(".", 1)[-1]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hkforge",
                                       "__init__.py")):
        print(f"error: no hkforge sources under {ROOT}/src", file=sys.stderr)
        return 2

    started = time.perf_counter()
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            res, lines = run_child(common + ["--setup-only"], 60.0)
            setups.append(res)
            for line in lines:
                print(line)
    remaining = DEADLINE_S - (time.perf_counter() - started)
    main_res, lines = run_child(common + ["--trace", str(args.trace)],
                                remaining)
    setups.append(main_res)
    for line in lines:
        print(line)

    correct = all(s["correct"] for s in setups)
    cal, raw = main_res["item_cal_s"], main_res["item_raw_s"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{main_res['items']} items in {main_res['rounds']} rounds, "
          f"timed phase {main_res['wall_s']:.2f} s wall")
    for kind, (att, fail) in sorted(main_res["ops"].items()):
        print(f"ops {kind}: attempted {att} failed {fail}")
    if args.trace:
        metrics = {k: {"value": v, "unit": per_layer_unit(k)}
                   for k, v in main_res["per_layer"].items()}
        kernels = main_res["kernels"]
        share = main_res["near_pairs"] / kernels if kernels else 0.0
        print(f"near-ray kernels: {main_res['near_pairs']} of {kernels} "
              f"({share:.1%})")
        if main_res["absent"]:
            print("absent entry points: " + ", ".join(main_res["absent"]))
    else:
        values = {
            "items_per_s": len(cal) / sum(cal),
            "item_s_p50": statistics.median(cal),
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "peak_rss_mb": main_res["peak_rss_mb"],
            "accuracy_digits": main_res["accuracy_digits"],
        }
        raw_values = {
            "items_per_s": len(raw) / sum(raw),
            "item_s_p50": statistics.median(raw),
            "setup_s": statistics.median(s["setup_raw_s"] for s in setups),
        }
        metrics = {}
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
            extra = f" (raw {raw_values[name]:.6g})" \
                if name in raw_values else ""
            print(f"{name} {values[name]:.6g} {unit}{extra}")

    os.makedirs(OUT_DIR, exist_ok=True)
    record = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"main": main_res, "setups": setups[:-1],
                   "metrics": metrics}, fh, indent=1)
        fh.write("\n")
    print(json.dumps({"correct": correct,
                      "attempted": main_res["attempted"],
                      "failed": main_res["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
