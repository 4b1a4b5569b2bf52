#!/usr/bin/env python3
"""Leading-order decoder gate count versus problem size.

The leading term is the sum of all pairwise graph distances (the number of
path-controlled error CNOTs).  Prints the fitted log-log slope.
"""
import argparse
import csv
import json
from math import log

import numpy as np

from dqi_bench import build_graph, build_path_list, encode_icc, gate_cost, generate_instance, reduce_instance
from dqi_bench.bench import derive_seed, instance_digest


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-list", default="10,20,40,80")
    ap.add_argument("--instances", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("-o", "--output", default="gate_count_scaling.csv")
    args = ap.parse_args()

    points = []
    with open(args.output, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n_cars", "digest", "n_vars", "m", "paths", "leading_order", "ccx", "cx"])
        for n_cars in (int(tok) for tok in args.n_list.split(",")):
            for i in range(args.instances):
                inst = generate_instance(n_cars, derive_seed(args.seed, n_cars, i))
                x, _ = reduce_instance(encode_icc(inst), inst)
                paths = build_path_list(build_graph(x))
                cost = gate_cost(paths)
                writer.writerow([
                    n_cars, instance_digest(inst), x.n_vars, x.m,
                    len(paths.u), cost.leading_order, cost.ccx, cost.cx,
                ])
                points.append((log(x.n_vars), log(cost.leading_order)))
    slope = float(np.polyfit([p[0] for p in points], [p[1] for p in points], 1)[0])
    print(json.dumps({"log_log_slope": round(slope, 4), "output": args.output}))


if __name__ == "__main__":
    main()
