import csv
import json

import pytest

from dqi_bench import (
    bench,
    dqi,
    encode_icc,
    instances,
    generate_instance,
    read_instance,
    read_xorsat,
    reduce_instance,
    write_instance,
    write_xorsat,
)
from dqi_bench.cli import main
from oracles import failure_profile_exact_loop


@pytest.fixture()
def ex1_file(tmp_path, ex1):
    path = tmp_path / "ex1.json"
    write_instance(ex1, path)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    summary = json.loads(out.splitlines()[-1]) if code == 0 and out else None
    return code, summary


def test_gen(tmp_path, capsys):
    out = tmp_path / "inst.json"
    code, summary = run_cli(capsys, "gen", "--n-cars", "5", "--seed", "7", "-o", str(out))
    assert code == 0
    inst = read_instance(out)
    assert inst.n_cars == 5
    assert summary["digest"]


def test_gen_idempotent(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gen", "--n-cars", "6", "--seed", "3", "-o", str(a)]) == 0
    assert main(["gen", "--n-cars", "6", "--seed", "3", "-o", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_encode_reduced_worked_example(tmp_path, capsys, ex1_file, ex1_reduced):
    out = tmp_path / "xs.json"
    code, summary = run_cli(
        capsys, "encode", "--encoding", "icc", "--reduce", "-i", ex1_file, "-o", str(out)
    )
    assert code == 0
    assert summary["n_vars"] == 4 and summary["m"] == 5
    assert summary["removed_constraints"] == [1, 2, 6, 7]
    assert summary["forced_swaps"] == 2
    assert read_xorsat(out) == ex1_reduced[0]


def test_distance(tmp_path, capsys, ex1_file):
    xs = tmp_path / "xs.json"
    main(["encode", "--encoding", "icc", "--reduce", "-i", ex1_file, "-o", str(xs)])
    capsys.readouterr()
    code, summary = run_cli(capsys, "distance", "-i", str(xs))
    assert code == 0
    assert summary["code_distance"] == 2 and not summary["exceeds_cap"]


def test_decode_stats(tmp_path, capsys, ex1_file):
    xs = tmp_path / "xs.json"
    prof = tmp_path / "prof.json"
    main(["encode", "--encoding", "icc", "--reduce", "-i", ex1_file, "-o", str(xs)])
    capsys.readouterr()
    code, summary = run_cli(
        capsys, "decode-stats", "-i", str(xs), "--decoder", "greedy",
        "--l", "1", "--mode", "exact", "-o", str(prof),
    )
    assert code == 0
    assert summary["eps"] == [0.0, 0.2]
    assert json.loads(prof.read_text())["eps"] == [0.0, 0.2]


def test_circuit(tmp_path, capsys, ex1_file):
    xs = tmp_path / "xs.json"
    circ = tmp_path / "circuit.txt"
    main(["encode", "--encoding", "icc", "--reduce", "-i", ex1_file, "-o", str(xs)])
    capsys.readouterr()
    code, summary = run_cli(capsys, "circuit", "-i", str(xs), "-o", str(circ))
    assert code == 0
    lines = circ.read_text().splitlines()
    assert lines[0] == "REGISTERS syndrome=4 path=6 error=5"
    assert lines[1] == "CCX v:1 v:2 p:1"
    assert summary["ccx"] == 6 and summary["cx"] == 32 and summary["leading_order"] == 8


def test_bench_exact_worked_example(tmp_path, capsys, ex1_file):
    report = tmp_path / "report.csv"
    code, summary = run_cli(
        capsys, "bench", "--mode", "exact", "--decoder", "greedy",
        "--l", "1", "-i", ex1_file, "-o", str(report),
    )
    assert code == 0
    assert summary["p_opt"][0] == pytest.approx(7 / 24, abs=1e-12)
    with open(report) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert float(rows[0]["p_opt"]) == pytest.approx(7 / 24, abs=1e-12)
    assert rows[0]["code_distance"] == "2"
    assert json.loads(rows[0]["eps_json"]) == [0.0, 0.2]


def test_bench_both_decoders_idempotent(tmp_path, capsys, ex1_file):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["bench", "--mode", "approx", "--samples", "40", "--seed", "9",
            "--decoder", "both", "-i", ex1_file]
    assert main(argv + ["-o", str(a)]) == 0
    assert main(argv + ["-o", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    with open(a) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["decoder"] for r in rows] == ["greedy", "min-length"]


@pytest.mark.parametrize(
    "args",
    [["--mode", "exact"], ["--mode", "approx", "--samples", "60", "--encoding", "non-icc"]],
)
def test_bench_both_matches_single_decoder_runs(tmp_path, capsys, ex1_file, args):
    def report(decoder):
        path = tmp_path / f"{decoder}.csv"
        assert main(["bench", "--decoder", decoder, "-i", ex1_file, *args, "-o", str(path)]) == 0
        return path.read_text().splitlines()

    both, greedy, minlen = report("both"), report("greedy"), report("min-length")
    capsys.readouterr()
    assert both == greedy + minlen[1:]


def test_bench_generates_when_asked(tmp_path, capsys):
    report = tmp_path / "r.csv"
    code, summary = run_cli(
        capsys, "bench", "--n-cars", "4", "--seed", "2", "--mode", "approx",
        "--samples", "30", "-o", str(report),
    )
    assert code == 0 and report.exists()
    assert summary["rows"] == 1


def test_sweep(tmp_path, capsys, ex1_file):
    out = tmp_path / "sweep.csv"
    code, summary = run_cli(
        capsys, "sweep", "-i", ex1_file, "--profile", "exact", "-o", str(out),
    )
    assert code == 0
    assert "greedy" in summary["l_star"]
    lines = out.read_text().splitlines()
    assert lines[0] == "n_cars,decoder,l,p_opt_tilde"
    assert len(lines) == 1 + 4  # degrees 1..min(n, m) = 4


def test_sweep_both_shares_one_stage(monkeypatch, tmp_path, capsys, ex1_file):
    def sweep(decoder):
        path = tmp_path / f"{decoder}.csv"
        argv = ["sweep", "--decoder", decoder, "--samples", "40", "--seed", "3", "-i", ex1_file]
        assert main([*argv, "-o", str(path)]) == 0
        return path.read_text().splitlines()

    greedy, minlen = sweep("greedy"), sweep("min-length")
    calls = []
    for name in ("build_path_list", "enumerate_optima"):
        def counting(*args, _fn=getattr(bench, name), _name=name):
            calls.append(_name)
            return _fn(*args)

        monkeypatch.setattr(bench, name, counting)
    both = sweep("both")
    capsys.readouterr()
    assert both == greedy + minlen[1:]
    assert sorted(calls) == ["build_path_list", "enumerate_optima"]


def test_sweep_both_exact_builds_one_syndrome_batch(syndrome_batches, tmp_path, capsys, ex1_file):
    out = tmp_path / "sweep.csv"
    code, summary = run_cli(
        capsys, "sweep", "-i", ex1_file, "--decoder", "both", "--profile", "exact", "-o", str(out),
    )
    assert code == 0 and sorted(summary["l_star"]) == ["greedy", "min-length"]
    assert syndrome_batches == [2 * 4]  # one batch, at the largest degree min(n, m) = 4


@pytest.mark.parametrize("argv", [
    ["bench", "--mode", "exact", "--decoder", "both"],
    ["sweep", "--profile", "exact", "--decoder", "both"],
])
def test_exact_runs_never_derive_positions(no_positions, tmp_path, capsys, ex1_file, argv):
    assert main([*argv, "-i", ex1_file, "-o", str(tmp_path / "out.csv")]) == 0


def test_sweep_both_mc_makes_one_shell_syndrome_pass(shell_syndrome_passes, tmp_path, capsys, ex1_file):
    argv = ["sweep", "-i", ex1_file, "--decoder", "both", "--profile", "mc", "--samples", "3"]
    assert main([*argv, "-o", str(tmp_path / "sweep.csv")]) == 0
    # the rows of shells 0..4 of the largest degree, min(n, m) = 4: one enumerated, four of 3 draws
    assert shell_syndrome_passes == [1 + 4 * 3]


def test_validate_approx(tmp_path, capsys):
    out = tmp_path / "va.csv"
    agg = tmp_path / "agg.csv"
    code, summary = run_cli(
        capsys, "validate-approx", "--n-list", "2,3", "--instances", "1",
        "--samples", "25", "--seed", "8", "-o", str(out), "--aggregate-out", str(agg),
    )
    assert code == 0
    assert summary["rows"] == 4
    assert set(summary["geomean_ratios"]) == {"2", "3"}
    assert agg.exists()


def test_export_lp(tmp_path, capsys, ex1_file):
    xs = tmp_path / "xs.json"
    lp = tmp_path / "out.lp"
    main(["encode", "--encoding", "icc", "--reduce", "-i", ex1_file, "-o", str(xs)])
    capsys.readouterr()
    code, summary = run_cli(capsys, "export-lp", "-i", str(xs), "-o", str(lp))
    assert code == 0
    assert summary["lp_variables"] == 9
    assert lp.read_text().startswith("Maximize")


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    for sub in ("gen", "encode", "distance", "decode-stats", "circuit",
                "bench", "sweep", "validate-approx", "export-lp"):
        assert main([sub, "--help"]) == 0
        help_text = capsys.readouterr().out
        assert sub in help_text or "usage" in help_text


def test_unknown_flag_exits_64(capsys):
    assert main(["gen", "--does-not-exist", "-o", "x"]) == 64
    assert main(["frobnicate"]) == 64


def test_bench_takes_no_aggregate_out(tmp_path, capsys):
    # one bench instance has one car count: its aggregate would average the decoders
    report, agg = tmp_path / "r.csv", tmp_path / "a.csv"
    argv = ["bench", "--n-cars", "6", "--seed", "1", "-o", str(report), "--aggregate-out", str(agg)]
    assert main(argv) == 64
    assert not report.exists() and not agg.exists()


def test_validation_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n_cars": 2, "sequence": [1, 1, 1, 2]}))
    report = tmp_path / "r.csv"
    assert main(["bench", "-i", str(bad), "-o", str(report)]) == 2
    assert main(["bench", "-o", str(report)]) == 2  # neither -i nor --n-cars
    assert main(["validate-approx", "--n-list", "a", "-o", str(report)]) == 2


@pytest.mark.parametrize("mode", ["exact", "approx"])
def test_negative_seed_exits_2_in_every_mode(tmp_path, capsys, ex1_file, mode):
    system, report = tmp_path / "xs.json", tmp_path / "r.csv"
    assert main(["encode", "--reduce", "-i", str(ex1_file), "-o", str(system)]) == 0
    capsys.readouterr()
    for argv in (
        ["decode-stats", "-i", str(system), "--mode", mode, "--seed", "-1"],
        ["bench", "-i", str(ex1_file), "--mode", mode, "--seed", "-1", "-o", str(report)],
    ):
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == "" and "seed must be >= 0, got -1" in out.err
    assert not report.exists()


def test_gen_refuses_past_the_car_cap_before_any_draw(monkeypatch, tmp_path, capsys):
    def refuse(seed):
        raise AssertionError("a generator was made")

    monkeypatch.setattr(instances.np.random, "default_rng", refuse)
    out = tmp_path / "inst.json"
    for n_cars in (instances.MAX_CARS + 1, 100_000_000):
        assert main(["gen", "--n-cars", str(n_cars), "--seed", "0", "-o", str(out)]) == 3
        assert f"{n_cars} cars exceed the generation cap of {instances.MAX_CARS}" in capsys.readouterr().err
    assert not out.exists()
    monkeypatch.undo()
    monkeypatch.setattr(instances, "MAX_CARS", 5)
    assert main(["gen", "--n-cars", "5", "--seed", "0", "-o", str(out)]) == 0
    assert main(["gen", "--n-cars", "6", "--seed", "0", "-o", str(out)]) == 3


def test_capacity_error_exits_3(tmp_path, capsys):
    report = tmp_path / "r.csv"
    code = main(["bench", "--n-cars", "40", "--seed", "1", "--mode", "exact", "-o", str(report)])
    assert code == 3
    assert main(["bench", "--n-cars", "40", "--mode", "exact", "-o", str(report)]) == 3


def test_matching_capacity_exits_3_before_any_decode(decode_calls, tmp_path, capsys):
    argv = ["bench", "--n-cars", "80", "--seed", "0", "--mode", "approx", "--decoder", "both"]
    assert main([*argv, "-o", str(tmp_path / "r.csv")]) == 3
    assert "syndrome support 52 exceeds matching capacity 22" in capsys.readouterr().err
    assert decode_calls == []
    assert not (tmp_path / "r.csv").exists()


def test_decode_stats_exact_over_budget_exits_3(tmp_path, capsys):
    inst = generate_instance(40, 0)
    system = tmp_path / "xs.json"
    write_xorsat(reduce_instance(encode_icc(inst), inst)[0], system)
    assert main(["decode-stats", "-i", str(system), "--mode", "exact"]) == 3
    assert f"syndromes (> budget {dqi.ENUMERATION_BUDGET})" in capsys.readouterr().err
    code, summary = run_cli(capsys, "decode-stats", "-i", str(system), "--mode", "exact", "--l", "2")
    assert code == 0 and len(summary["eps"]) == 3


def test_bench_exact_reaches_20_cars(tmp_path, capsys):
    report = tmp_path / "r.csv"
    code, _ = run_cli(
        capsys, "bench", "--n-cars", "20", "--seed", "3", "--mode", "exact", "-o", str(report)
    )
    assert code == 0
    with open(report, newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert (row["n"], row["m"], row["l"]) == ("20", "36", "8")
    inst = generate_instance(20, 3)
    x = reduce_instance(encode_icc(inst), inst)[0]
    want = failure_profile_exact_loop("greedy", x, 3)  # all C(36, 3) = 7140 weight-3 errors
    assert json.loads(row["eps_json"])[:4] == list(want.eps)


def test_over_width_exits_3_and_past_old_cap_runs(tmp_path, capsys):
    report = tmp_path / "r.csv"
    assert main(["bench", "--n-cars", "100", "--mode", "approx", "-o", str(report)]) == 3
    assert "elimination width" in capsys.readouterr().err
    code, summary = run_cli(
        capsys, "bench", "--n-cars", "40", "--mode", "approx", "--samples", "100", "-o", str(report)
    )
    assert code == 0 and summary["rows"] == 1


def test_unconverged_dicke_weights_exit_3(monkeypatch, tmp_path, capsys, ex1_file):
    monkeypatch.setattr(dqi, "POWER_ITERATION_CAP", 1)
    report = tmp_path / "r.csv"
    assert main(["bench", "-i", ex1_file, "--l", "2", "-o", str(report)]) == 3
    assert "power iteration" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["encode", "-i", str(tmp_path / "nope.json"), "-o", "x"]) == 2


@pytest.mark.parametrize(
    "text",
    [
        "5",
        '{"n_vars": 2, "rows": [[1, 2]], "targets": [0], "labels": []}',
        '{"n_vars": 2, "rows": [[1, 2]], "targets": [0], "labels": {"vars": [1, 2]}}',
    ],
    ids=["top-level-number", "labels-not-object", "labels-vars-not-object"],
)
def test_malformed_system_exits_2(tmp_path, capsys, text):
    bad = tmp_path / "f.json"
    bad.write_text(text)
    assert main(["distance", "-i", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# one malformed input file, readable as neither an instance nor a parity system
BAD_FILES = {
    "not-utf8": b"\xff\xfe{}",
    "not-json": b"{",
    "top-level-list": b"[1, 2]",
    "missing-fields": b"{}",
    "infinite-sizes": b'{"n_cars": 1e999, "sequence": [], "n_vars": 1e999, '
                      b'"rows": [], "targets": [], "labels": {}}',
    # JSON values that a cast would turn into integers
    "row-as-string": b'{"n_vars": 2, "rows": ["12"], "targets": [0], "labels": {}}',
    "fractional-n-vars": b'{"n_vars": 2.9, "rows": [[1, 2]], "targets": [0], "labels": {}}',
    "fractional-row": b'{"n_vars": 2, "rows": [[1.7, 2.2]], "targets": [0], "labels": {}}',
    "boolean-target": b'{"n_vars": 2, "rows": [[1, 2]], "targets": [true], "labels": {}}',
    "boolean-label": b'{"n_vars": 2, "rows": [[1, 2]], "targets": [0], "labels": {"vars": {"1": true}}}',
    "boolean-n-cars": b'{"n_cars": true, "sequence": [1, 1]}',
    "boolean-car": b'{"n_cars": 1, "sequence": [1, true]}',
    "no-such-file": None,
}
FILE_COMMANDS = [
    ["encode", "-o", "{out}"], ["distance"], ["decode-stats"], ["decode-stats", "--mode", "approx"],
    ["circuit", "-o", "{out}"], ["bench", "-o", "{out}"], ["sweep", "-o", "{out}"],
    ["export-lp", "-o", "{out}"],
]
# small inputs only: an oversized --n-cars is slow to refuse, not malformed
BAD_ARGS = [
    ["gen", "--n-cars", "0", "-o", "{out}"],
    ["gen", "--n-cars", "x", "-o", "{out}"],
    ["encode", "--encoding", "zzz", "-i", "{system}", "-o", "{out}"],
    ["distance", "--cap"],
    ["decode-stats", "-i", "{system}", "--l", "100"],
    ["decode-stats", "-i", "{system}", "--mode", "approx", "--samples", "0"],
    ["decode-stats", "-i", "{system}", "--mode", "approx", "--seed", "-1"],
    ["decode-stats", "-i", "{system}", "--seed", "-1"],
    ["circuit", "-i", "{system}"],
    ["bench", "--n-cars", "-1", "-o", "{out}"],
    ["bench", "--n-cars", "4", "-i", "{system}", "-o", "{out}"],
    ["bench", "--n-cars", "4", "--l", "-1", "-o", "{out}"],
    ["bench", "--n-cars", "4", "--mode", "approx", "--seed", "-1", "-o", "{out}"],
    ["bench", "--n-cars", "4", "--mode", "approx", "--samples", "0", "-o", "{out}"],
    ["bench", "--n-cars", "4", "-o", "{tmp}/no-such-dir/r.csv"],
    ["sweep", "--n-cars", "4", "--l-min", "3", "--l-max", "1", "-o", "{out}"],
    ["sweep", "--n-cars", "4", "--l-min", "2", "-o", "{out}"],
    ["sweep", "--n-cars", "4", "--samples", "0", "-o", "{out}"],
    ["validate-approx", "--n-list", "-3", "-o", "{out}"],
    ["validate-approx", "--n-list", "3", "--seed", "-1", "-o", "{out}"],
    ["validate-approx", "--n-list", "3", "--instances", "0", "-o", "{out}"],
    ["validate-approx", "--n-list", "3", "--instances", "-2", "-o", "{out}"],
    ["validate-approx", "--n-list", "3,x", "-o", "{out}"],
    ["validate-approx", "--n-list", ",", "-o", "{out}"],
    ["export-lp", "-i", "{system}"],
    ["no-such-command"],
]


@pytest.mark.parametrize(
    "argv",
    [[*cmd[:1], "-i", f"{{{name}}}", *cmd[1:]] for cmd in FILE_COMMANDS for name in BAD_FILES]
    + BAD_ARGS,
    ids=lambda argv: " ".join(argv).replace("{", "").replace("}", ""),
)
def test_malformed_input_exits_with_a_code_not_a_traceback(tmp_path, capsys, argv):
    paths = {"tmp": str(tmp_path), "out": str(tmp_path / "out"), "system": str(tmp_path / "xs.json")}
    inst = generate_instance(4, 1)
    write_xorsat(reduce_instance(encode_icc(inst), inst)[0], paths["system"])
    for name, data in BAD_FILES.items():
        paths[name] = str(tmp_path / f"{name}.json")
        if data is not None:
            (tmp_path / f"{name}.json").write_bytes(data)
    code = main([arg.format(**paths) for arg in argv])
    err = capsys.readouterr().err
    assert code in (2, 3, 64), err
    assert "Traceback" not in err
