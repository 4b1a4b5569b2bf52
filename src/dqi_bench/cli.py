"""Command-line front end: seeded, reproducible runs with JSON summaries.

Every subcommand writes its artifacts to files and prints a single JSON
line to stdout.  Exit codes: 0 success, 2 validation error, 3 capacity
error, 64 usage error.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import bench
from .decoder import (
    build_graph,
    build_path_list,
    code_distance,
    emit_circuit,
    gate_cost,
    write_circuit,
)
from .dqi import (
    DEFAULT_SAMPLES,
    default_degree,
    failure_profile_exact,
    failure_profile_mc,
)
from .encoding import read_xorsat, write_xorsat
from .errors import CapacityError, ValidationError
from .instances import generate_instance, read_instance, write_instance

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CAPACITY = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _load_instance(args):
    """Instance from -i, or generated from --n-cars and --seed (exactly one source)."""
    has_file = getattr(args, "input", None) is not None
    has_gen = getattr(args, "n_cars", None) is not None
    if has_file == has_gen:
        raise ValidationError("provide exactly one of -i/--input or --n-cars")
    if has_file:
        return read_instance(args.input)
    return generate_instance(args.n_cars, args.seed)


def _cmd_gen(args):
    inst = generate_instance(args.n_cars, args.seed)
    write_instance(inst, args.output)
    return {
        "command": "gen",
        "n_cars": inst.n_cars,
        "seed": args.seed,
        "digest": bench.instance_digest(inst),
        "output": args.output,
    }


def _cmd_encode(args):
    inst = read_instance(args.input)
    x, record = bench._encode(inst, args.encoding, args.reduce)
    write_xorsat(x, args.output)
    summary = {
        "command": "encode",
        "encoding": args.encoding,
        "reduced": args.reduce,
        "n_vars": x.n_vars,
        "m": x.m,
        "output": args.output,
    }
    if record is not None:
        summary["removed_constraints"] = sorted(record.removed_constraints)
        summary["removed_variables"] = sorted(record.removed_variables)
        summary["forced_swaps"] = record.forced_swaps
    return summary


def _cmd_distance(args):
    x = read_xorsat(args.input)
    dist = code_distance(x, cap=args.cap)
    return {
        "command": "distance",
        "n_vars": x.n_vars,
        "m": x.m,
        "cap": args.cap,
        "code_distance": dist,
        "exceeds_cap": dist is None,
    }


def _cmd_decode_stats(args):
    x = read_xorsat(args.input)
    degree = args.l if args.l is not None else default_degree(x.n_vars, x.m)
    if args.mode == "exact":
        profile = failure_profile_exact(args.decoder, x, degree)
    else:
        profile = failure_profile_mc(
            args.decoder, x, degree, samples=args.samples, seed=args.seed
        )
    payload = {
        "command": "decode-stats",
        "decoder": args.decoder,
        "mode": args.mode,
        "l": degree,
        "eps": list(profile.eps),
        "shell_sizes": list(profile.shell_sizes),
        "samples_per_shell": profile.samples_per_shell,
        "seed": args.seed,
    }
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump({k: v for k, v in payload.items() if k != "command"}, fh)
            fh.write("\n")
        payload["output"] = args.output
    return payload


def _cmd_circuit(args):
    x = read_xorsat(args.input)
    graph = build_graph(x)
    paths = build_path_list(graph)
    gates = emit_circuit(paths, graph)
    write_circuit(gates, args.output)
    cost = gate_cost(paths)
    return {
        "command": "circuit",
        "paths": len(paths.u),
        "ccx": cost.ccx,
        "cx": cost.cx,
        "leading_order": cost.leading_order,
        "output": args.output,
    }


def _cmd_bench(args):
    inst = _load_instance(args)
    kwargs = dict(l=args.l, seed=args.seed, encoding=args.encoding, reduce=args.reduce)
    if args.decoder == "both":
        samples = args.samples if args.mode == "approx" else None
        rows = bench.compare_decoders(inst, samples=samples, **kwargs)
    else:
        rows = [
            bench.run_pipeline(
                inst, decoder=args.decoder, mode=args.mode, samples=args.samples, **kwargs
            )
        ]
    bench.write_report_csv(rows, args.output)
    return {
        "command": "bench",
        "digest": rows[0]["digest"],
        "rows": len(rows),
        "p_opt": [row["p_opt"] for row in rows],
        "c_total": [row["c_total"] for row in rows],
        "output": args.output,
    }


def _cmd_sweep(args):
    inst = _load_instance(args)
    decoders = bench.DECODER_NAMES if args.decoder == "both" else [args.decoder]
    l_range = None
    if args.l_min is not None or args.l_max is not None:
        lo = args.l_min if args.l_min is not None else 1
        hi = args.l_max
        if hi is None:
            raise ValidationError("--l-min requires --l-max")
        l_range = range(lo, hi + 1)
    lines = [["n_cars", "decoder", "l", "p_opt_tilde"]]
    l_stars = {}
    sweeps = bench._sweeps(inst, decoders, args.profile, l_range, args.samples, args.seed)
    for dec, (l_star, series) in zip(decoders, sweeps):
        l_stars[dec] = l_star
        for degree, p_tilde in series:
            lines.append([inst.n_cars, dec, degree, p_tilde])
    with open(args.output, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(",".join(str(v) for v in line) + "\n")
    return {
        "command": "sweep",
        "digest": bench.instance_digest(inst),
        "l_star": l_stars,
        "output": args.output,
    }


def _cmd_validate_approx(args):
    try:
        n_list = [int(tok) for tok in args.n_list.split(",") if tok.strip()]
    except ValueError:
        raise ValidationError(f"--n-list must be comma-separated integers, got {args.n_list!r}")
    if not n_list:
        raise ValidationError("--n-list must name at least one car count")
    rows, aggregates, flagged = bench.validate_approximation(
        n_list,
        instances_per_n=args.instances,
        seed=args.seed,
        samples=args.samples,
    )
    bench.write_report_csv(rows, args.output)
    if args.aggregate_out:
        bench.write_aggregate_csv(aggregates, args.aggregate_out)
    return {
        "command": "validate-approx",
        "rows": len(rows),
        "flagged": flagged,
        "geomean_ratios": {
            str(a["n_cars"]): a["mean"]
            for a in aggregates
            if a["metric"] == "geomean_p_ratio"
        },
        "output": args.output,
    }


def _cmd_export_lp(args):
    x = read_xorsat(args.input)
    bench.export_lp(x, args.output)
    return {
        "command": "export-lp",
        "n_vars": x.n_vars,
        "m": x.m,
        "lp_variables": x.n_vars + x.m,
        "output": args.output,
    }


def build_parser() -> _Parser:
    parser = _Parser(prog="dqi-bench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random instance file")
    p.add_argument("--n-cars", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("encode", help="encode an instance as a parity system")
    p.add_argument("--encoding", choices=["icc", "non-icc"], default="icc")
    p.add_argument("--reduce", action="store_true")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("distance", help="code distance of an encoded system")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--cap", type=int, default=12)
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("decode-stats", help="decoder failure rates per error weight")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--decoder", choices=bench.DECODER_NAMES, default="greedy")
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--mode", choices=["exact", "approx"], default="exact")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_decode_stats)

    p = sub.add_parser("circuit", help="emit the reversible decoding circuit")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_circuit)

    p = sub.add_parser("bench", help="single-instance benchmark report")
    p.add_argument("-i", "--input", default=None)
    p.add_argument("--n-cars", type=int, default=None)
    p.add_argument("--encoding", choices=["icc", "non-icc"], default="icc")
    p.add_argument("--no-reduce", dest="reduce", action="store_false")
    p.add_argument("--decoder", choices=[*bench.DECODER_NAMES, "both"], default="greedy")
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--mode", choices=["exact", "approx"], default="exact")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", dest="output", required=True)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("sweep", help="optimum probability across polynomial degrees")
    p.add_argument("-i", "--input", default=None)
    p.add_argument("--n-cars", type=int, default=None)
    p.add_argument("--decoder", choices=[*bench.DECODER_NAMES, "both"], default="greedy")
    p.add_argument("--profile", choices=["exact", "mc"], default="mc")
    p.add_argument("--l-min", type=int, default=None)
    p.add_argument("--l-max", type=int, default=None)
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("validate-approx", help="exact vs approximate pipelines on random instances")
    p.add_argument("--n-list", default="5,7,9")
    p.add_argument("--instances", type=int, default=10)
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--aggregate-out", default=None)
    p.set_defaults(func=_cmd_validate_approx)

    p = sub.add_parser("export-lp", help="write the system as a 0/1 LP file")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_export_lp)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        if getattr(args, "seed", 0) < 0:
            raise ValidationError(f"seed must be >= 0, got {args.seed}")
        summary = args.func(args)
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except CapacityError as exc:
        sys.stderr.write(f"capacity error: {exc}\n")
        return EXIT_CAPACITY
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return EXIT_VALIDATION
    print(json.dumps(summary))
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
