"""Summarise benchmark run records for the README.

    python3 bench/report.py SEEDS [SEEDS ...]

SEEDS is a comma-separated list or a range like 1-10; each argument is
one set of runs.  Reads the records ``run.py`` leaves in ``.bench_out/``
and prints, per workload and set, the median and quartiles of every
end-to-end metric (calibrated, and raw where a time has a raw value), the
quartile spread as a share of the median, and the failed share.  For
traced records of the first seed of the first set it prints each layer's
share of the traced item time.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(os.path.dirname(HERE), ".bench_out")
WORKLOADS = ("metric-grid", "wall-approach", "certify")
LAYER_SELF = ("models.periods.s", "models.oracle.s", "solver.grids.s",
              "solver.prepare.s", "solver.iterate.s", "solver.eval.s",
              "geometry.varpi.s", "geometry.fit.s", "ks.s", "trees.enum.s",
              "trees.series.s", "uncovered.s")


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def load(workload: str, seed: int, trace: int) -> dict | None:
    path = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{trace}.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def raw_values(rec: dict) -> dict[str, float]:
    main = rec["main"]
    raw = main["item_raw_s"]
    setups = [s["setup_raw_s"] for s in rec["setups"]] + [main["setup_raw_s"]]
    return {"items_per_s": len(raw) / sum(raw),
            "item_s_p50": statistics.median(raw),
            "setup_s": statistics.median(setups)}


def summary(values: list[float]) -> str:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}] spread {(q3 - q1) / med:.1%}"


def main(argv: list[str]) -> int:
    sets = [parse_seeds(a) for a in argv[1:]]
    if not sets:
        print(__doc__)
        return 2
    for wl in WORKLOADS:
        for n, seeds in enumerate(sets, 1):
            recs = [r for r in (load(wl, s, 0) for s in seeds) if r]
            if len(recs) < 2:
                continue
            print(f"## {wl}, set {n}: {len(recs)} runs, seeds "
                  f"{seeds[0]}..{seeds[-1]}")
            for name in recs[0]["metrics"]:
                vals = [r["metrics"][name]["value"] for r in recs]
                line = f"  {name:16s} {summary(vals)}"
                if name in ("items_per_s", "item_s_p50", "setup_s"):
                    raws = [raw_values(r)[name] for r in recs]
                    line += f" | raw {summary(raws)}"
                print(line)
            shares = {r["main"]["failed"] / r["main"]["attempted"]
                      for r in recs}
            items = [r["main"]["items"] for r in recs]
            slices = [statistics.fmean(r["main"]["slice_s"]) for r in recs]
            print(f"  failed share {sorted(shares)}; items per run "
                  f"{min(items)}..{max(items)}; mean slice per run "
                  f"{min(slices):.4f}..{max(slices):.4f} s")
        traced = load(wl, sets[0][0], 1)
        if traced:
            layer = dict(traced["main"]["per_layer"])
            layer["solver.iterate.s"] = layer["solver.sweep.s"] \
                * layer["solver.sweeps"]
            item = layer["traced.item.s"]
            shares = ", ".join(f"{k[:-2]} {layer[k] / item:.1%}"
                               for k in LAYER_SELF if layer.get(k))
            print(f"## {wl}, traced seed {sets[0][0]}: item {item:.4g} s; "
                  f"{shares}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
