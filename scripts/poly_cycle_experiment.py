#!/usr/bin/env python3
"""Reproduce the 5-agent cycle polynomial experiment.

Runs the baseline and both randomized-state-sharing algorithms for two noise
bounds with paired seeds, writes a consolidated suboptimality CSV, and prints
the values at a few probe rounds. Plotting is left to external tools; the CSV
columns (k, suboptimality) match the usual iterations-vs-gap axes.
"""

import argparse
import os
import sys

import privopt as po

OBJECTIVES = [
    [0, 0, 1],
    [0, 0, 0, 0, 1],
    [0, 0, 1, 0, 1],
    [0, 0, 1, 0, 0.5],
    [0, 0, 0.5, 0, 1],
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results/poly_cycle")
    parser.add_argument("--max-iter", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=101)
    args = parser.parse_args(argv)

    base = {"topology": {"family": "cycle", "n": 5},
            "objectives": [{"kind": "polynomial", "coeffs": c} for c in OBJECTIVES],
            "feasible": {"lower": [-30.0], "upper": [30.0]}, "schedule": {"kind": "inv_sqrt"},
            "max_iter": args.max_iter, "init": [[-1.0], [-0.5], [0.0], [0.5], [1.0]]}
    runs = [("dgd", {"algorithm": "dgd"})]
    runs += [(f"{algorithm} d={d:g}", {"algorithm": algorithm, "delta": d, "seed": args.seed})
             for algorithm in ("rss_nb", "rss_lb") for d in (1.0, 15.0)]
    x_star, f_star = po.solve_centralized(po.RunConfig.from_dict({**base, **runs[0][1]})
                                          .build_problem())
    print(f"centralized oracle: x* = {x_star[0]:.2e}, f* = {f_star:.2e}")

    os.makedirs(args.out_dir, exist_ok=True)
    probes = list(dict.fromkeys([100, 1000, args.max_iter]))  # in order, each once
    rows = ["label,k,suboptimality,max_disagreement"]
    for label, keys in runs:
        trace = po.execute(po.RunConfig.from_dict({**base, **keys}))
        metrics = po.compute_metrics(trace, x_star, f_star)
        columns = (metrics.round_index.tolist(), metrics.suboptimality.tolist(),
                   metrics.max_disagreement.tolist())
        rows.extend(f"{label},{k},{sub!r},{dis!r}" for k, sub, dis in zip(*columns))
        picked = {k: sub for k, sub, _ in zip(*columns) if k in probes}
        summary = "  ".join(f"k={k}: {picked[k]:.3e}" for k in probes if k in picked)
        print(f"{label:14s} {summary}")

    out = os.path.join(args.out_dir, "suboptimality.csv")
    with open(out, "w") as fh:
        fh.write("\n".join(rows) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
