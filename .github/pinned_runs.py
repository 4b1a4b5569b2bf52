"""Run one pinned CLI benchmark and check its numbers and its peak RSS.

    python .github/pinned_runs.py NAME OUT_DIR

NAME is a key of ``RUNS``.  The run writes its report to OUT_DIR/NAME.csv
with the installed ``dqi-bench`` command and exits non-zero when the command
fails, its peak RSS exceeds the limit, or a row's eps_json differs from the
pinned text or its p_opt is not within a relative 1e-9 of the pinned value.
"""
import csv
import math
import resource
import subprocess
import sys
import time
from pathlib import Path

# name -> (label, bench arguments, peak RSS limit in MB, decoder -> (eps_json, p_opt))
RUNS = {
    "exact-22": (
        "exact 22 cars",
        ["--n-cars", "22", "--seed", "0", "--mode", "exact", "--decoder", "both"],
        # 175 MB peak on a 2-core Xeon once the batch was built in the pairing table's order
        # (207 MB there before); the limit is about 1.7x the 191 MB measured before that
        320,
        # made before the decoders took and returned packed words, with the syndrome budget
        # lifted to 2^21 in-process
        {
            "greedy": (
                "[0.0, 0.0, 0.09041835357624832, 0.28482328482328484, 0.5362852731273784, "
                "0.7596954965376018, 0.9020328122495305, 0.9686339005224455, 0.9919959200144959]",
                0.028241656451879725,
            ),
            "min-length": (
                "[0.0, 0.0, 0.04183535762483131, 0.15723820986978881, 0.36558826032510244, "
                "0.6254079411974148, 0.8416721760375011, 0.9557719402920641, 0.9924585706319452]",
                0.04286259431458701,
            ),
        },
    ),
    "exact-two": (
        "exact two components",
        ["--n-cars", "12", "--seed", "9", "--encoding", "non-icc", "--mode", "exact", "--decoder", "both",
         "--l", "5"],
        # about 1.7x the 107 MB this run peaked at on a 2-core Xeon once each component was
        # decoded apart (157 MB there while the batch was the product of the components)
        180,
        # made before the exact batch was built in table order
        {
            "greedy": (
                "[0.0, 0.0, 0.002849002849002849, 0.026324786324786326, 0.08757834757834758, "
                "0.19612287873157438]",
                0.00957882417245906,
            ),
            "min-length": (
                "[0.0, 0.0, 0.0, 0.006837606837606838, 0.03333333333333333, 0.096308683265205]",
                0.010381040851507792,
            ),
        },
    ),
    "approx-80": (
        "approx 80 cars",
        ["--n-cars", "80", "--seed", "0", "--mode", "approx", "--decoder", "greedy"],
        245,  # about 1.7x the 144 MB this run peaked at on a 2-core Xeon
        # made before the sampler drew shells in one pass with a bitset
        {
            "greedy": (
                "[0.0, 0.0, 0.009, 0.031, 0.0765, 0.1295, 0.2005, 0.311, 0.4245, 0.5645, 0.6535, "
                "0.74, 0.827, 0.892, 0.9235, 0.9645, 0.9765, 0.9905, 0.9955, 0.997, 0.9995, 0.9995, "
                "1.0, 0.9995, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]",
                1.610488142173259e-07,
            ),
        },
    ),
    "approx-24": (
        "approx 24 cars",
        ["--n-cars", "24", "--seed", "0", "--mode", "approx", "--decoder", "both"],
        130,  # about 1.7x the 77 MB this run peaked at on a 2-core Xeon
        # made before Monte Carlo shells were kept as packed words
        {
            "greedy": (
                "[0.0, 0.024390243902439025, 0.11829268292682926, 0.2965, 0.4745, 0.7005, "
                "0.8595, 0.939, 0.9775, 0.995]",
                0.012171787282474696,
            ),
            "min-length": (
                "[0.0, 0.024390243902439025, 0.09390243902439024, 0.216, 0.3555, 0.5675, "
                "0.767, 0.91, 0.973, 0.995]",
                0.01879153734376898,
            ),
        },
    ),
}


def main(name: str, out_dir: str) -> None:
    label, args, limit_mb, want = RUNS[name]
    out = Path(out_dir) / f"{name}.csv"
    start = time.perf_counter()
    code = subprocess.run(["dqi-bench", "bench", *args, "-o", str(out)]).returncode
    wall = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KiB on Linux
    print(f"{label}: exit {code}, {wall:.1f} s, peak RSS {peak:.0f} MB (limit {limit_mb} MB)")
    if code:
        sys.exit(code)
    if peak > limit_mb:
        sys.exit(f"peak RSS {peak:.0f} MB exceeds {limit_mb} MB")
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    got = [row["decoder"] for row in rows]
    if got != list(want):
        sys.exit(f"rows for decoders {got}, want {list(want)}")
    for row in rows:
        decoder, got_p = row["decoder"], float(row["p_opt"])
        eps, p_opt = want[decoder]
        if row["eps_json"] != eps:
            sys.exit(f"{decoder} eps_json {row['eps_json']} != {eps}")
        if not math.isclose(got_p, p_opt, rel_tol=1e-9, abs_tol=0.0):
            sys.exit(f"{decoder} p_opt {got_p!r} is not within 1e-9 of {p_opt!r}")


if __name__ == "__main__":
    main(*sys.argv[1:])
