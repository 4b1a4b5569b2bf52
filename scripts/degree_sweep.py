#!/usr/bin/env python3
"""Optimal polynomial degree per instance, for both decoders.

Sweeps every degree 1..min(n, m), reusing one failure profile per
(instance, decoder), and records the argmax.  Sweeping runs the
minimum-length decoder on high-weight shells, whose exact matching is
exponential in the syndrome size, so keep car counts desk-scale.
"""
import argparse
import csv
import json

import numpy as np

from dqi_bench import encode_icc, generate_instance, reduce_instance
from dqi_bench.bench import DECODER_NAMES, _sweeps, derive_seed, instance_digest


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-list", default="6,9,12,15")
    ap.add_argument("--instances", type=int, default=10)
    ap.add_argument("--samples", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("-o", "--output", default="degree_sweep.csv")
    args = ap.parse_args()

    l_stars = {}
    with open(args.output, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n_cars", "digest", "n_vars", "decoder", "l", "p_opt_tilde", "l_star"])
        for n_cars in (int(tok) for tok in args.n_list.split(",")):
            for i in range(args.instances):
                inst_seed = derive_seed(args.seed, n_cars, i)
                inst = generate_instance(n_cars, inst_seed)
                x, _ = reduce_instance(encode_icc(inst), inst)
                sweeps = _sweeps(inst, DECODER_NAMES, "mc", None, args.samples, inst_seed)
                for decoder, (l_star, series) in zip(DECODER_NAMES, sweeps):
                    l_stars.setdefault((n_cars, decoder), []).append(l_star)
                    for degree, p_tilde in series:
                        writer.writerow([
                            n_cars, instance_digest(inst), x.n_vars,
                            decoder, degree, p_tilde, l_star,
                        ])
    print(json.dumps({
        "mean_l_star": {
            f"N={n} {dec}": float(np.mean(v)) for (n, dec), v in sorted(l_stars.items())
        },
        "output": args.output,
    }))


if __name__ == "__main__":
    main()
