import json
import os

import numpy as np
import pytest

from fermicov.cli import main


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
    header = (tmp_path / "b.csv").read_text().splitlines()[1]
    assert header == ("instance_id,seed,d,m,N,n,beta,det_re,det_im,det_abs,"
                      "bound,slack,pass")


def test_config_file_defaults_and_flag_override(tmp_path):
    (tmp_path / "exp.ini").write_text("[bound-check]\ncount = 12\nseed = 4\n")
    code = run(tmp_path, "--config", "exp.ini", "bound-check", "--out", "c.csv")
    assert code == 0
    rows = (tmp_path / "c.csv").read_text().splitlines()[2:]
    assert len(rows) == 12
    code = run(tmp_path, "--config", "exp.ini", "bound-check", "--count", "5",
               "--out", "d.csv")
    assert code == 0
    assert len((tmp_path / "d.csv").read_text().splitlines()[2:]) == 5
    # keys keep their case: N_max is the --N-max flag
    (tmp_path / "caps.ini").write_text("[bound-check]\ncount = 8\nN_max = 1\n")
    code = run(tmp_path, "--config", "caps.ini", "bound-check", "--out", "e.csv")
    assert code == 0
    rows = [ln.split(",") for ln in (tmp_path / "e.csv").read_text().splitlines()[2:]]
    assert len(rows) == 8 and all(row[4] == "1" for row in rows)  # column N


def test_config_errors_exit_2(tmp_path):
    assert run(tmp_path, "--config", "missing.ini", "bound-check") == 2
    (tmp_path / "bad.ini").write_text("[bound-check]\nnot_a_flag = 3\n")
    assert run(tmp_path, "--config", "bad.ini", "bound-check") == 2
    assert run(tmp_path, "no-such-subcommand") == 2


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
    assert run(tmp_path, "decay", "--H-diag", "1,nan", "--out", "d.csv") == 2
    assert run(tmp_path, "decay", "--H-diag", "1,inf", "--out", "d.csv") == 2
    assert run(tmp_path, "decay", "--H-diag", ",,", "--out", "d.csv") == 2
    assert run(tmp_path, "kernel", "--lam", "nan", "--out", "k.csv") == 2
    assert run(tmp_path, "kernel", "--lam", "abc", "--out", "k.csv") == 2
    assert run(tmp_path, "bound-check", "--scale-max", "0", "--out", "b.csv") == 2
    assert run(tmp_path, "bound-check", "--scale-max", "-1", "--out", "b.csv") == 2
    assert run(tmp_path, "decay", "--chi", "gaussian", "--chi-width", "0",
               "--out", "d.csv") == 2
    assert run(tmp_path, "decay", "--chi", "indicator", "--chi-a", "1", "--chi-b", "-1",
               "--out", "d.csv") == 2
    assert run(tmp_path, "bk-matrix", "--m", "2", "--edges", "0-5:0.5", "--out", "bk.csv") == 2
    assert not list(tmp_path.glob("*.csv"))


def test_scalar_domains_exit_2(tmp_path, capsys):
    # usage errors, reported before any work, not failed verifications
    cases = [
        ("kernel", "--n", "3"),
        ("decay", "--n", "0"),
        ("kernel", "--beta", "-1"),
        ("sharpness", "--epsilon", "0"),
        ("sharpness", "--beta", "-1"),
        ("bk-matrix", "--t", "-1"),
        ("universal", "--beta", "0", "--count", "2"),
    ]
    for sub, flag, *rest in cases:
        assert run(tmp_path, sub, flag, *rest, "--out", "x.csv") == 2
        assert f"parameter {flag[2:]} must be" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_modes_above_fock_cap_exit_2(tmp_path, monkeypatch):
    # checked before any work: a random state need not draw the largest mode count
    for seed in ("1", "2", "3", "4", "5"):
        assert run(tmp_path, "modular-verify", "--modes", "11", "--seed", seed,
                   "--out", "m.csv") == 2
        assert run(tmp_path, "wick-verify", "--modes", "11", "--seed", seed,
                   "--out", "w.csv") == 2
    monkeypatch.setenv("FERMICOV_FOCK_CAP", "2")
    assert run(tmp_path, "wick-verify", "--modes", "3", "--out", "w.csv") == 2
    monkeypatch.setenv("FERMICOV_FOCK_CAP", "ten")
    assert run(tmp_path, "wick-verify", "--out", "w.csv") == 2
    assert not list(tmp_path.glob("*.csv"))


def test_bad_list_flags_exit_2(tmp_path, capsys):
    cases = [
        ("bound-check", "--n-choices", "0"),
        ("bound-check", "--n-choices", "3"),
        ("bound-check", "--n-choices", "2,x"),
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


def test_bk_matrix_explicit_edge(tmp_path):
    code = run(tmp_path, "bk-matrix", "--m", "2", "--edges", "0-1:0.3", "--t", "1.0",
               "--out", "bk.csv")
    assert code == 0
    rows = (tmp_path / "bk.csv").read_text().splitlines()[2:]
    first = [float(v) for v in rows[0].split(",")[1:]]
    np.testing.assert_allclose(first, [1.0, 0.7], atol=1e-15)
    assert run(tmp_path, "bk-matrix", "--m", "2", "--edges", "garbage") == 2


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


def test_wick_and_modular_verify(tmp_path):
    assert run(tmp_path, "wick-verify", "--N-max", "2", "--draws", "2",
               "--modes", "3", "--out", "w.csv") == 0
    assert run(tmp_path, "modular-verify", "--states", "2", "--chains", "5",
               "--pairs", "20", "--out", "m.csv") == 0
    # the defaults: 5 states with 20 chains each and 100 Schatten pairs
    assert run(tmp_path, "modular-verify", "--out", "d.csv") == 0
    summary = json.loads((tmp_path / "d.json").read_text())
    assert summary["count"] == 210 and summary["failures"] == []


def test_decay_snapshot(tmp_path):
    code = run(tmp_path, "decay", "--beta", "1.0", "--n", "8", "--H-diag", "0.0",
               "--out", "dec.csv")
    assert code == 0
    row = (tmp_path / "dec.csv").read_text().splitlines()[2].split(",")
    assert float(row[3]) == pytest.approx(1.0, rel=1e-12)


def test_kernel_float17_roundtrip(tmp_path):
    run(tmp_path, "kernel", "--beta", "1", "--n", "4", "--lam", "0.37", "--out", "k.csv")
    lines = (tmp_path / "k.csv").read_text().splitlines()[2:]
    from fermicov.covariance import kernel_g
    from fermicov.torus import DiscreteTorus

    ker = kernel_g(0.37, DiscreteTorus(beta=1.0, n=4))
    for line in lines:
        idx, _, g = line.split(",")
        assert float(g) == ker.values[int(idx)]  # 17 significant digits round-trip
