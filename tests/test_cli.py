import csv
import hashlib
import importlib.util
import json
import os
import shlex
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from fermicov import car_fock, modular, verify
from fermicov.cli import build_parser, main, row_format
from fermicov.mspace import bk_matrix, random_tree
from fermicov.spectral import rate_terms
from fermicov.verify import (GeneratorConfig, bound_check_suite, random_instance,
                             random_instances)
from oracles import reference_instance


def run(tmp_path, *argv):
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        return main(list(argv))
    finally:
        os.chdir(cwd)


def test_kernel_singular_table(tmp_path):
    code = run(tmp_path, "kernel", "--beta", "1", "--n", "8", "--lam", "singular",
               "--out", "k.csv")
    assert code == 0
    lines = (tmp_path / "k.csv").read_text().splitlines()
    assert lines[0] == "# fermicov-schema v1"
    assert lines[1] == "index,alpha,g"
    table = {float(a): float(g) for _, a, g in (ln.split(",") for ln in lines[2:])}
    assert table[0.125] == -1.0
    assert table[0.125 - 1.0] == 1.0
    assert sum(1 for v in table.values() if v != 0.0) == 2
    summary = json.loads((tmp_path / "k.json").read_text())
    assert summary["suite"] == "kernel" and summary["lam"] == 8.0
    assert summary["wall_time_s"] > 0.0


def test_bound_check_deterministic_bytes(tmp_path):
    for name in ("a.csv", "b.csv"):
        code = run(tmp_path, "bound-check", "--count", "40", "--seed", "9",
                   "--out", name)
        assert code == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    summary = json.loads((tmp_path / "a.json").read_text())
    assert summary["suite"] == "bound-check"
    assert summary["failures"] == []
    assert "wall_time_s" in summary
    assert not list(tmp_path.glob(".fermicov-*"))  # atomic writes leave no temp files


def test_suite_summaries_carry_stage_totals(tmp_path):
    assert run(tmp_path, "bound-check", "--count", "30", "--out", "b.csv") == 0
    assert run(tmp_path, "universal", "--count", "30", "--epsilon-list", "0.1",
               "--out", "u.csv") == 0
    for name in ("b.json", "u.json"):
        summary = json.loads((tmp_path / name).read_text())
        stages = summary["stage_s"]
        assert sorted(stages) == ["bound", "det", "eig", "generate"]
        assert all(t >= 0.0 for t in stages.values())
        assert 0.0 < sum(stages.values()) <= summary["wall_time_s"]
        assert {"zero_bound", "zero_det", "singular_band_hits", "tightest"} <= set(summary)
    header = (tmp_path / "b.csv").read_text().splitlines()[1]
    assert header == ("instance_id,seed,d,m,N,n,beta,det_re,det_im,det_abs,"
                      "bound,slack,pass")


def test_summary_counts_match_the_csv(tmp_path):
    # 300 rows span two chunks of the suite; each count is recomputed per row.
    # At seeds 20 and 33, np.abs of the tightest det differs from abs() in the last bit
    for seed in (4, 20, 33):
        assert run(tmp_path, "bound-check", "--count", "300", "--seed", str(seed),
                   "--out", "b.csv") == 0
        summary = json.loads((tmp_path / "b.json").read_text())
        with open(tmp_path / "b.csv", newline="") as handle:
            rows = list(csv.DictReader(line for line in handle if not line.startswith("#")))
        det_abs = np.array([float(r["det_abs"]) for r in rows])
        bound = np.array([float(r["bound"]) for r in rows])
        hits = 0
        for inst in random_instances([int(r["seed"]) for r in rows], GeneratorConfig()):
            hits += int(np.sum(rate_terms(inst.stack.values[0], inst.torus)[0]))
        assert summary["zero_bound"] == np.count_nonzero(bound == 0.0) > 0
        assert summary["zero_det"] == np.count_nonzero((det_abs == 0.0) & (bound > 0.0)) > 0
        assert summary["singular_band_hits"] == hits > 0
        pinned = sum(reference_instance(int(r["seed"]), GeneratorConfig())[1] for r in rows)
        assert summary["pinned"] == pinned > 0
        # the per-factor ratio from the CSV's columns, with the summary's array arithmetic
        power = 1.0 / (2 * np.array([int(r["N"]) for r in rows]))
        ratios = np.full(len(rows), -np.inf)
        np.divide(det_abs ** power, bound ** power, out=ratios, where=bound > 0.0)
        best = rows[int(np.argmax(ratios))]
        tightest = summary["tightest"]
        assert tightest["seed"] == int(best["seed"])
        assert tightest["slack"] == float(best["slack"])
        assert tightest["ratio"] == float(np.max(ratios))
        # seed 33's tightest ratio is 1.0000000000000002, one rounding above 1
        assert 0.0 < tightest["ratio"] <= 1.0 + 1e-15 and best["pass"] == "1"


def test_non_finite_parameters_exit_2(tmp_path):
    assert run(tmp_path, "kernel", "--beta", "nan", "--out", "k.csv") == 2
    assert run(tmp_path, "kernel", "--eta", "0", "--out", "k.csv") == 2
    assert run(tmp_path, "bound-check", "--scale-max", "inf", "--out", "b.csv") == 2
    # counts that would run nothing or crash
    assert run(tmp_path, "bound-check", "--count", "-3", "--out", "b.csv") == 2
    assert run(tmp_path, "bound-check", "--d-max", "0", "--out", "b.csv") == 2
    assert run(tmp_path, "universal", "--count", "-1", "--out", "u.csv") == 2
    assert run(tmp_path, "bk-matrix", "--m", "0", "--out", "bk.csv") == 2
    assert run(tmp_path, "wick-verify", "--draws", "0", "--out", "w.csv") == 2
    assert run(tmp_path, "wick-verify", "--modes", "0", "--out", "w.csv") == 2
    assert run(tmp_path, "wick-verify", "--N-max", "0", "--out", "w.csv") == 2
    assert run(tmp_path, "modular-verify", "--modes", "1", "--out", "m.csv") == 2
    assert run(tmp_path, "modular-verify", "--chains", "-1", "--out", "m.csv") == 2
    assert run(tmp_path, "modular-verify", "--states", "0", "--pairs", "0",
               "--out", "m.csv") == 2
    # non-finite, empty or non-numeric values, and domains checked by the library
    assert run(tmp_path, "universal", "--epsilon-list", "0.1,nan", "--out", "u.csv") == 2
    assert run(tmp_path, "bound-check", "--beta-choices", "1,nan", "--out", "b.csv") == 2
    assert run(tmp_path, "bound-check", "--n-choices", ",,", "--out", "b.csv") == 2
    assert run(tmp_path, "kernel", "--lam", "nan", "--out", "k.csv") == 2
    assert run(tmp_path, "kernel", "--lam", "abc", "--out", "k.csv") == 2
    assert run(tmp_path, "bound-check", "--scale-max", "0", "--out", "b.csv") == 2
    assert run(tmp_path, "bound-check", "--scale-max", "-1", "--out", "b.csv") == 2
    assert run(tmp_path, "bk-matrix", "--m", "2", "--edges", "0-5:0.5", "--out", "bk.csv") == 2
    assert run(tmp_path, "bk-matrix", "--m", "3", "--edges", "0-1:nan", "--out", "bk.csv") == 2
    # argparse reads a separate value that starts with "-" but is not a plain
    # decimal as a flag; the "=" form passes it as a value
    assert run(tmp_path, "kernel", "--lam", "-4e1", "--out", "k.csv") == 2
    assert not list(tmp_path.glob("*.csv"))
    assert run(tmp_path, "kernel", "--lam=-4e1", "--out", "k.csv") == 0


def test_scalar_domains_exit_2(tmp_path, capsys):
    # usage errors, reported before any work, not failed verifications
    cases = [
        ("kernel", "--n", "3"),
        ("kernel", "--n", "2" + "0" * 400),  # beyond the float range
        ("kernel", "--n", "0"),
        ("kernel", "--beta", "-1"),
        ("sharpness", "--epsilon", "0"),
        ("sharpness", "--beta", "-1"),
        ("bk-matrix", "--t", "-1"),
        ("universal", "--beta", "0", "--count", "2"),
        # a seed is a non-negative integer on every subcommand that takes one
        ("wick-verify", "--seed", "-1"),
        ("modular-verify", "--seed", "-1"),
        ("bk-matrix", "--seed", "-1"),
        ("bound-check", "--seed", "-1", "--count", "2"),
        ("universal", "--seed", "-1", "--count", "2"),
        ("bk-matrix", "--seed", "0.5"),
    ]
    for sub, flag, *rest in cases:
        assert run(tmp_path, sub, flag, *rest, "--out", "x.csv") == 2
        assert f"argument {flag}: must be" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_modes_above_cap_exit_2(tmp_path, capsys):
    # checked before any work: a random state need not draw the largest mode count
    for seed in ("1", "2", "3", "4", "5"):
        assert run(tmp_path, "modular-verify", "--modes", "15", "--seed", seed,
                   "--out", "m.csv") == 2
        assert run(tmp_path, "wick-verify", "--modes", "15", "--seed", seed,
                   "--out", "w.csv") == 2
    assert "argument --modes: must be an integer from 1 to 14" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_modular_verify_flows_a_block_at_twelve_modes(tmp_path):
    # the flow checks run on a 64 x 64 block: a dense 2^12 x 2^12 X needs 1.8 GiB, and
    # rounding in its norm alone reaches the absolute 1e-10 isometry limit
    tracemalloc.start()
    try:
        code = run(tmp_path, "modular-verify", "--modes", "12", "--states", "1",
                   "--chains", "0", "--pairs", "0", "--seed", "7", "--out", "m.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 16 * 2**20


def test_bad_list_flags_exit_2(tmp_path, capsys):
    cases = [
        ("bound-check", "--n-choices", "0"),
        ("bound-check", "--n-choices", "3"),
        ("bound-check", "--n-choices", "2,x"),
        # 2n would leave int64: the antiperiodic sign or the indices break
        ("bound-check", "--n-choices", "9223372036854775806"),
        ("bound-check", "--n-choices", "4611686018427387904"),
        ("bound-check", "--beta-choices", "-1"),
        ("bound-check", "--beta-choices", "1,inf"),
        ("sharpness", "--N-list", "0"),
        ("universal", "--epsilon-list", "0.1,1.5"),
    ]
    for sub, flag, value in cases:
        assert run(tmp_path, sub, flag, value, "--out", "x.csv") == 2
        assert flag in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_removed_options_exit_2(tmp_path):
    assert run(tmp_path, "bound-check", "--jobs", "2", "--out", "b.csv") == 2
    assert run(tmp_path, "covariance-det", "--out", "c.csv") == 2
    assert run(tmp_path, "decay", "--out", "d.csv") == 2
    assert run(tmp_path, "no-such-subcommand") == 2
    # a readable INI file with a section for the subcommand is an unknown option too
    (tmp_path / "exp.ini").write_text("[bound-check]\ncount = 2\n")
    assert run(tmp_path, "--config", "exp.ini", "bound-check", "--out", "b.csv") == 2
    (tmp_path / "exp.ini").unlink()
    # suites that draw no random numbers take no seed
    for sub in ("kernel", "sharpness"):
        assert run(tmp_path, sub, "--seed", "1", "--out", "x.csv") == 2
    assert not list(tmp_path.iterdir())


def test_readme_examples_parse(tmp_path, monkeypatch):
    # the README examples that scripts/csv_digests.py runs, read by its own parser
    path = Path(__file__).resolve().parent.parent / "scripts" / "csv_digests.py"
    spec = importlib.util.spec_from_file_location("csv_digests", path)
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    commands = digests.readme_commands(digests.README.read_text())
    assert commands
    monkeypatch.chdir(tmp_path)  # each --out names a file here, as in the script's run
    for args in commands:
        try:
            build_parser().parse_args(args)
        except SystemExit:
            pytest.fail(f"README example does not parse: fermicov {shlex.join(args)}")


def test_missing_output_directory_exits_2(tmp_path, capsys):
    for bad in (str(tmp_path / "missing" / "k.csv"), str(tmp_path), ""):
        assert run(tmp_path, "kernel", "--out", bad) == 2
        assert "argument --out: must be a file in an existing directory" \
            in capsys.readouterr().err
        assert run(tmp_path, "kernel", "--out", "k.csv", "--summary", bad) == 2
        assert "argument --summary: must be a file in an existing directory" \
            in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.csv"))


def test_kernel_failure_names_lam(tmp_path, monkeypatch):
    # a table that fails (d + lam) g = -2 delta_ap lists lam, the check's one parameter
    from fermicov.covariance import KernelEval

    monkeypatch.setattr(KernelEval, "residual", lambda self: 1.0)
    assert run(tmp_path, "kernel", "--lam", "0.37", "--out", "k.csv") == 1
    summary = json.loads((tmp_path / "k.json").read_text())
    assert summary["failures"] == [0.37] and summary["residual"] == 1.0


def test_write_failure_exits_1(tmp_path, monkeypatch, capsys):
    from fermicov import cli

    def atomic_write(path, text):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(cli, "atomic_write", atomic_write)
    assert run(tmp_path, "kernel", "--out", "k.csv") == 1
    assert "error: [Errno 13] Permission denied: 'k.csv'" in capsys.readouterr().err


def test_bk_matrix_explicit_edge(tmp_path):
    code = run(tmp_path, "bk-matrix", "--m", "2", "--edges", "0-1:0.3", "--t", "1.0",
               "--out", "bk.csv")
    assert code == 0
    rows = (tmp_path / "bk.csv").read_text().splitlines()[2:]
    first = [float(v) for v in rows[0].split(",")[1:]]
    np.testing.assert_allclose(first, [1.0, 0.7], atol=1e-15)
    assert run(tmp_path, "bk-matrix", "--m", "2", "--edges", "garbage") == 2


def test_bk_matrix_random_tree_replays_its_seed(tmp_path):
    assert run(tmp_path, "bk-matrix", "--m", "5", "--seed", "3", "--t", "0.7",
               "--out", "bk.csv") == 0
    rows = [line.split(",") for line in (tmp_path / "bk.csv").read_text().splitlines()[2:]]
    assert [int(row[0]) for row in rows] == list(range(5))
    M = np.array([[float(v) for v in row[1:]] for row in rows])
    expected = bk_matrix(random_tree(5, np.random.default_rng(3)), 0.7)
    assert M.tobytes() == expected.tobytes()  # 17 significant digits round-trip


def test_sharpness_and_universal(tmp_path):
    code = run(tmp_path, "sharpness", "--epsilon", "0.1", "--N-list", "1,2",
               "--out", "s.csv")
    assert code == 0
    code = run(tmp_path, "universal", "--count", "30", "--epsilon-list", "0.1",
               "--out", "u.csv")
    assert code == 0
    summary = json.loads((tmp_path / "u.json").read_text())
    assert summary["bracket_upper"] == 1.0
    assert summary["bracket_lower"] >= 0.9 - 1e-6


def test_sharpness_fails_a_witness_above_its_bound(tmp_path, monkeypatch):
    # |det| is 0.9 at N = 1 and 0.81 at N = 2; a bound of 0.5 is violated by both
    monkeypatch.setattr(verify, "instance_bound", lambda inst: 0.5)
    assert run(tmp_path, "sharpness", "--N-list", "1,2", "--out", "s.csv") == 1
    assert json.loads((tmp_path / "s.json").read_text())["failures"] == [1, 2]


def test_universal_fails_a_witness_above_its_bound(tmp_path, monkeypatch):
    # |det| = 0.9^N: the witnesses N = 1, 2, 4 exceed a bound of 0.5, and N = 8 does not
    monkeypatch.setattr(verify, "instance_bound", lambda inst: 0.5)
    assert run(tmp_path, "universal", "--count", "10", "--epsilon-list", "0.1",
               "--out", "u.csv") == 1
    summary = json.loads((tmp_path / "u.json").read_text())
    assert summary["failures"] == [f"witness epsilon=0.1 N={N}" for N in (1, 2, 4)]
    assert summary["witness_failures"] == 3 and summary["violations"] == 0


def test_witnesses_off_their_closed_form_are_reported(tmp_path, monkeypatch, capsys):
    # a determinant off its closed form by a relative 1e-9 fails every witness;
    # both suites still write their CSV and name each failed witness
    det = verify.covariance_det
    monkeypatch.setattr(verify, "covariance_det", lambda inst: det(inst) * (1 + 1e-9))
    assert run(tmp_path, "sharpness", "--out", "s.csv") == 1
    assert json.loads((tmp_path / "s.json").read_text())["failures"] == [1, 2, 4, 8]
    assert len((tmp_path / "s.csv").read_text().splitlines()[2:]) == 4
    assert run(tmp_path, "universal", "--count", "10", "--out", "u.csv") == 1
    summary = json.loads((tmp_path / "u.json").read_text())
    assert summary["failures"] == [f"witness epsilon={eps} N={N}"
                                   for eps in ("0.1", "0.01") for N in (1, 2, 4, 8)]
    assert summary["witness_failures"] == 8 and summary["violations"] == 0
    assert len((tmp_path / "u.csv").read_text().splitlines()[2:]) == 8
    out = capsys.readouterr()
    assert "4 failures" in out.out and "8 witness failures" in out.out and out.err == ""


def test_wick_and_modular_verify(tmp_path):
    assert run(tmp_path, "wick-verify", "--N-max", "2", "--draws", "2",
               "--modes", "3", "--out", "w.csv") == 0
    assert run(tmp_path, "modular-verify", "--states", "2", "--chains", "5",
               "--pairs", "20", "--out", "m.csv") == 0
    # the defaults: 5 states with 20 chains each and 100 Schatten pairs
    assert run(tmp_path, "modular-verify", "--out", "d.csv") == 0
    summary = json.loads((tmp_path / "d.json").read_text())
    assert summary["count"] == 210 and summary["failures"] == []
    # on one mode, orders with a+ a+ or a a vanish exactly: an absolute tolerance there
    assert run(tmp_path, "wick-verify", "--modes", "1", "--N-max", "2", "--seed", "5",
               "--out", "w1.csv") == 0


@pytest.mark.parametrize("small_field", [4096, 0, 10**9])
@pytest.mark.parametrize("argv", [("--N-max", "3", "--modes", "4"),
                                  ("--N-max", "2", "--modes", "7", "--draws", "2")])
def test_wick_verify_block_budget_keeps_bytes(tmp_path, monkeypatch, argv, small_field):
    # one permutation per block, the default blocks, and every permutation of an N
    # in one block give the CSV of the default settings, whether the fields take the
    # per-mode loop (SMALL_FIELD 0), the gather (10^9, as every field here does by
    # default) or both: at 4096, D = 7's stacked fields of more entries take the loop
    assert run(tmp_path, "wick-verify", *argv, "--seed", "3", "--out", "default.csv") == 0
    monkeypatch.setattr(car_fock, "SMALL_FIELD", small_field)
    for budget in (1, car_fock.BLOCK_ENTRIES, 10**9):
        monkeypatch.setattr(car_fock, "BLOCK_ENTRIES", budget)
        assert run(tmp_path, "wick-verify", *argv, "--seed", "3", "--out", "w.csv") == 0
        assert (tmp_path / "w.csv").read_bytes() == (tmp_path / "default.csv").read_bytes()


def test_modular_verify_keeps_bytes_on_either_field_strategy(tmp_path, monkeypatch):
    csvs = []
    # default, per-mode loop, gather, and both: at 4096, fields of more entries take the loop
    for small_field in (car_fock.SMALL_FIELD, 0, 10**9, 4096):
        monkeypatch.setattr(car_fock, "SMALL_FIELD", small_field)
        assert run(tmp_path, "modular-verify", "--seed", "2", "--modes", "6", "--out", "m.csv") == 0
        csvs.append((tmp_path / "m.csv").read_bytes())
    assert csvs[0] == csvs[1] == csvs[2] == csvs[3]


def test_wick_verify_rows_replay_one_draw_at_a_time():
    # the stacked draws are the stream of one draw after another: A (real, then
    # imaginary), then each of the 2N vectors (real, then imaginary)
    from fermicov.car_fock import FockSpace, expect_monomial, quasifree_modes, wick_determinant

    perms = car_fock.wick_suite(modes=3, N_max=1, draws=2, seed=5)
    rows = perms.tolist()
    assert len(rows) == 2 and all(row[3] for row in rows)  # both permutations pass
    rng = np.random.default_rng(5)
    for perm_id, perm in enumerate([(0, 1), (1, 0)]):
        worst = 0.0
        for _ in range(2):
            A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            V, logp, symbol = quasifree_modes((A + A.conj().T) / 2, beta=1.0)
            vecs = [rng.normal(size=3) + 1j * rng.normal(size=3) for _ in range(2)]
            in_modes = [V.conj().T @ v for v in vecs]
            direct = complex(expect_monomial(FockSpace(3), logp, in_modes, perm, 1))
            det = complex(wick_determinant(symbol, vecs, perm))
            worst = max(worst, abs(direct - det) / max(abs(direct), 1e-12))
        cells = (row_format(perms.dtype) % rows[perm_id]).split(",")
        assert cells[:3] == ["1", str(perm_id), f"{worst:.17g}"]


def test_wick_verify_lists_each_failing_permutation(tmp_path, monkeypatch, capsys):
    # a Wick determinant off by a relative 1e-6 fails every draw of every permutation
    det = car_fock.wick_determinant
    monkeypatch.setattr(car_fock, "wick_determinant",
                        lambda symbol, vecs, perm: det(symbol, vecs, perm) * (1 + 1e-6))
    assert run(tmp_path, "wick-verify", "--N-max", "2", "--modes", "3", "--out", "w.csv") == 1
    failures = json.loads((tmp_path / "w.json").read_text())["failures"]
    assert failures == [[1, 0], [1, 1]] + [[2, k] for k in range(24)]
    assert "26 failures" in capsys.readouterr().out


def test_modular_verify_lists_each_failing_check(tmp_path, monkeypatch, capsys):
    # a "norm" 1/s gives every Schatten pair (r >= 1, s1 = r/u, s2 = r/(1-u)) the slack
    # u(1-u)/r^2 - 1/r < 0: the 5 holder_schatten checks fail, and no other check
    monkeypatch.setattr(modular, "schatten_norm", lambda X, s: 1.0 / s)
    assert run(tmp_path, "modular-verify", "--states", "1", "--chains", "2", "--pairs", "5",
               "--out", "m.csv") == 1
    summary = json.loads((tmp_path / "m.json").read_text())
    assert summary["failures"] == [[-1, "holder_schatten"]] * 5
    assert "5 failures" in capsys.readouterr().out


def test_universal_lists_violating_seeds(tmp_path, monkeypatch):
    from fermicov import cli

    failed = []

    def suite(count, config, seed):
        result = bound_check_suite(count, config, seed=seed)
        result.checks["pass"][1] = False
        failed.append(int(result.checks["seed"][1]))
        return result

    monkeypatch.setattr(cli, "bound_check_suite", suite)
    assert run(tmp_path, "universal", "--count", "3", "--epsilon-list", "0.1",
               "--out", "u.csv") == 1
    summary = json.loads((tmp_path / "u.json").read_text())
    assert summary["violations"] == 1
    assert len(failed) == 1 and summary["failures"] == failed


def test_memory_error_exits_1(tmp_path, monkeypatch, capsys):
    from fermicov import cli

    def suite(*args, **kwargs):
        raise MemoryError("Unable to allocate 5 EiB")

    monkeypatch.setattr(cli, "bound_check_suite", suite)
    assert run(tmp_path, "bound-check", "--count", "2", "--out", "b.csv") == 1
    assert "error: Unable to allocate" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_non_finite_determinant_exits_1(tmp_path, capsys):
    # instance 100 (seed 2000106) has subnormal kernel entries, and np.linalg.det
    # returns nan for its matrix; RuntimeWarnings are errors here, so the CLI's own
    # error must come without numpy's
    code = run(tmp_path, "bound-check", "--count", "101", "--n-choices", "64",
               "--scale-max", "1e30", "--seed", "2", "--out", "b.csv")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: instance 100 (seed 2000106)") and "not finite" in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("root, instance, message", [
    (31, 6, "high - low range exceeds valid bounds"),
    (236, 1, "matrix has non-finite entries"),
    (286, 220, "indicator cutoff needs a finite a, got -inf"),
])
def test_generator_errors_name_the_instance(tmp_path, capsys, root, instance, message):
    # near the float maximum a drawn scale overflows the uniform draw of a cutoff
    # center, the matrix or an indicator edge; the named seed replays the failure
    seed = verify.instance_seed(root, instance)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the overflows on the way
        code = run(tmp_path, "bound-check", "--count", str(instance + 1), "--scale-max",
                   "1e308", "--seed", str(root), "--out", "b.csv")
        with pytest.raises((ValueError, OverflowError), match=message):
            random_instance(seed, GeneratorConfig(scale_max=1e308))
    assert code == 1
    assert capsys.readouterr().err == f"error: instance {instance} (seed {seed}): {message}\n"
    assert not list(tmp_path.glob("*.csv"))


def test_scale_max_below_the_generator_floor_exits_2(tmp_path, capsys):
    # random_instance draws scales from 10^-1 up to --scale-max, in units of n/beta
    assert run(tmp_path, "bound-check", "--count", "20", "--scale-max", "0.05",
               "--out", "b.csv") == 2
    assert "argument --scale-max: must be a number >= 0.1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
    assert run(tmp_path, "bound-check", "--count", "20", "--scale-max", "0.1",
               "--out", "b.csv") == 0


@pytest.mark.parametrize("command", ["kernel", "sharpness", "universal"])
def test_beta_whose_rate_overflows_exits_1(tmp_path, capsys, command):
    # n/beta is inf at beta = 1e-310; RuntimeWarnings are errors here, so an
    # overflow on the way would not exit 1
    assert run(tmp_path, command, "--beta", "1e-310", "--out", "x.csv") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: n/beta must be finite, got n=") and "beta=1e-310" in err
    assert not list(tmp_path.glob("*.csv"))


def test_beta_choice_whose_rate_overflows_exits_1(tmp_path, capsys):
    # the generator config checks each (beta, n) pair before any instance is drawn
    assert run(tmp_path, "bound-check", "--count", "5", "--beta-choices", "1e-310",
               "--out", "b.csv") == 1
    err = capsys.readouterr().err
    assert "n/beta must be finite" in err and "beta=1e-310" in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command", ["kernel"])
def test_grid_order_near_the_cap_exits_1(tmp_path, capsys, command):
    # np.arange(2n) is empty at this n, which once gave kernel an IndexError; the
    # torus's storage indices fail loudly instead
    assert run(tmp_path, command, "--n", "4611686018427387902", "--out", "x.csv") == 1
    assert capsys.readouterr().err.startswith("error: array is too big")
    assert not list(tmp_path.glob("*.csv"))


def test_kernel_finite_eta_on_the_singular_value_is_checked(tmp_path, monkeypatch, capsys):
    # on the singular band a finite eta tabulates the kernel of lam_eta, with
    # 1 - lam_eta/rate = +-exp(-eta/rate) on either side of n/beta = 8
    for lam in ("singular", "8.000000000004", "7.999999999996"):
        assert run(tmp_path, "kernel", "--lam", lam, "--eta", "2.5", "--n", "8",
                   "--out", "k.csv") == 0
        summary = json.loads((tmp_path / "k.json").read_text())
        assert summary["lam"] == float(lam.replace("singular", "8"))
        assert summary["residual"] <= 1e-9 * 8
    # a table off by a relative 1e-6 fails its equation
    from fermicov import cli

    kernel_g = cli.kernel_g

    def off(lam, torus, eta=None):
        ker = kernel_g(lam, torus, eta)
        ker.values *= 1 + 1e-6
        return ker

    monkeypatch.setattr(cli, "kernel_g", off)
    capsys.readouterr()
    assert run(tmp_path, "kernel", "--lam", "singular", "--eta", "2.5", "--n", "8",
               "--out", "k.csv") == 1
    assert "(FAIL)" in capsys.readouterr().out


def test_sharpness_where_lam_minus_the_rate_overflows(tmp_path, capsys):
    # the witness at this beta has |lam| + n/beta above the float maximum: off the
    # singular band, with no overflow warning (an error under the test configuration)
    assert run(tmp_path, "sharpness", "--beta", "3.6e-307", "--out", "s.csv") == 0
    assert capsys.readouterr().err == ""
    digest = hashlib.sha256((tmp_path / "s.csv").read_bytes()).hexdigest()
    assert digest == "3c12cbb6321b5614fc373543c97c811f7df8dc2b777cba2a28b75bccf9bb73c7"


def test_fmt_cells():
    # one row's cells as write_csv formats a record's .tolist() tuple: bools and ints
    # as integers, floats at 17 significant digits, other fields (object, complex) by str()
    record = np.array([(True, False, 0, -7, 2**70, -3, 200, 0.1, -0.0, 1e-310, np.inf, np.nan,
                        2 / 3, 0.1, "x", 1 - 2j)], dtype=[
        ("t", bool), ("f", bool), ("zero", np.int64), ("neg", np.int64), ("big", object),
        ("i", np.int64), ("u", np.uint8), ("tenth", float), ("negzero", float),
        ("subnormal", float), ("inf", float), ("nan", float), ("d", np.float64),
        ("s", np.float32), ("x", object), ("c", complex)])
    assert (row_format(record.dtype) % record.tolist()[0]).split(",") == [
        "1", "0", "0", "-7", str(2**70), "-3", "200",
        "0.10000000000000001", "-0", "9.9999999999999694e-311", "inf", "nan",
        "0.66666666666666663", "0.10000000149011612", "x", "(1-2j)"]


def test_kernel_float17_roundtrip(tmp_path):
    run(tmp_path, "kernel", "--beta", "1", "--n", "4", "--lam", "0.37", "--out", "k.csv")
    lines = (tmp_path / "k.csv").read_text().splitlines()[2:]
    from fermicov.covariance import kernel_g
    from fermicov.torus import DiscreteTorus

    ker = kernel_g(0.37, DiscreteTorus(beta=1.0, n=4))
    for line in lines:
        idx, _, g = line.split(",")
        assert float(g) == ker.values[int(idx)]  # 17 significant digits round-trip
