#!/usr/bin/env python3
"""Greedy vs minimum-length decoder: failure rates and total cost.

Both decoders see identical sampled error sets per instance.  The greedy
rows carry the circuit's leading-order gate count as the per-run cost, the
minimum-length rows the hypothetical n^4.

The exact matching behind the minimum-length decoder is exponential in the
syndrome size (capacity-capped at 22 odd vertices), so keep car counts
desk-scale; the optimum search additionally caps the elimination width of
the constraint graph at 22 (reached at about 90 cars).
"""
import argparse
import json

from dqi_bench import compare_decoders, generate_instance
from dqi_bench.bench import (
    aggregate_rows,
    derive_seed,
    write_aggregate_csv,
    write_report_csv,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-list", default="10,14,18,22")
    ap.add_argument("--instances", type=int, default=10)
    ap.add_argument("--samples", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("-o", "--output", default="decoder_comparison.csv")
    ap.add_argument("--aggregate-out", default="decoder_comparison_agg.csv")
    args = ap.parse_args()

    rows = []
    for n_cars in (int(tok) for tok in args.n_list.split(",")):
        for i in range(args.instances):
            inst_seed = derive_seed(args.seed, n_cars, i)
            inst = generate_instance(n_cars, inst_seed)
            rows.extend(compare_decoders(inst, samples=args.samples, seed=inst_seed))
    write_report_csv(rows, args.output)
    write_aggregate_csv(aggregate_rows(rows), args.aggregate_out)
    summary = {}
    for row in rows:
        key = (row["n_cars"], row["decoder"])
        summary.setdefault(key, []).append(row["c_total"])
    print(json.dumps({
        "mean_c_total": {
            f"N={n} {dec}": sum(v) / len(v) for (n, dec), v in sorted(summary.items())
        },
        "output": args.output,
    }))


if __name__ == "__main__":
    main()
