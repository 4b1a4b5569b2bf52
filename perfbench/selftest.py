"""Shows that the output checks reject wrong values.

    python3 perfbench/selftest.py

Runs the program on small seeded instances, confirms that every check
passes on the true outputs, then feeds each check one perturbed value and
confirms that it is rejected.  Exits 0 only if all of that holds.
"""
from __future__ import annotations

import copy
import sys

import checks
import workloads
from run import OUT, load_program

SEED = 0


def main() -> int:
    dq = load_program()
    inp = workloads.draw_inputs(dq, "selftest", 10, 17, 1, SEED)[0]
    case = inp.case
    exact = dq.run_pipeline(inp.inst, decoder="min-length", mode="exact")
    approx = dq.run_pipeline(inp.inst, decoder="greedy", mode="approx")

    circuit = workloads.WORKLOADS["circuit-n160"]
    circ = workloads.draw_inputs(dq, "selftest-circuit", 30, 57, 1, SEED)
    circuit.prepare(circ, SEED)
    OUT.mkdir(exist_ok=True)
    circuit_file = OUT / "selftest-circuit.txt"
    summary = circuit.capture(circuit.op(dq, circ[0], circuit_file))
    circuit_file.unlink()

    def row_check(row, mode):
        decoder = "min-length" if mode == "exact" else "greedy"
        return lambda: checks.check_row(row, case, decoder, mode)

    p2 = approx["p_opt"] * (1 + 1e-6)  # cost chain kept consistent: only the closed form can tell
    bad_p = dict(approx, p_opt=p2, c_opt=1.0 / p2, c_total=approx["c_dqi"] / p2)
    bad_eps = list(approx["eps"])
    bad_eps[1] += 1.0 / case.m
    flipped = copy.deepcopy(summary)
    restored, error_reg, decoded = flipped["runs"][0]
    error_reg = list(error_reg)
    error_reg[0] ^= 1
    flipped["runs"][0] = (restored, tuple(error_reg), decoded)
    bad_lines = dict(summary, file_lines=summary["file_lines"] - 1)

    truths = {
        "exact row": row_check(exact, "exact"),
        "approx row": row_check(approx, "approx"),
        "circuit": lambda: checks.check_circuit(summary, circ[0].batch, circ[0].case),
    }
    perturbed = {
        "approx p_opt x (1 + 1e-6)": row_check(bad_p, "approx"),
        "approx eps_1 + 1/m": row_check(dict(approx, eps=bad_eps), "approx"),
        "exact s_opt + 1": row_check(dict(exact, s_opt=exact["s_opt"] + 1), "exact"),
        "exact n_opt + 1": row_check(dict(exact, n_opt=exact["n_opt"] + 1), "exact"),
        "exact c_total x 2": row_check(dict(exact, c_total=exact["c_total"] * 2), "exact"),
        "circuit error-register bit flipped": lambda: checks.check_circuit(flipped, circ[0].batch, circ[0].case),
        "circuit file one line short": lambda: checks.check_circuit(bad_lines, circ[0].batch, circ[0].case),
    }
    ok = True
    for name, run in truths.items():
        problems = run()
        ok &= not problems
        print(f"{'pass' if not problems else 'FAIL'}: true {name} {problems or ''}")
    for name, run in perturbed.items():
        problems = run()
        ok &= bool(problems)
        print(f"{'rejected' if problems else 'NOT REJECTED'}: {name}: {problems[:1]}")
    print("self-test", "ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
