"""End-to-end checks of the console entry point via main(argv)."""

import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import polyens
from polyens import cli
from polyens.cli import main
from polyens.config import build_ensemble, build_measure, config_hash
from polyens.ensemble import PolynomialEnsemble
from polyens.errors import OrthogonalityError
from polyens.recurrence import FAMILIES, classical_table, mean_moment


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# polyens ")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


def test_sample_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sample", "--ensemble", "chebyshev", "--N", "3", "--replicas", "5",
            "--seed", "7", "--out"]
    assert main(args + [str(a)]) == 0
    assert main(args + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    header, rows = read_csv(a)
    assert header == ["x_0", "x_1", "x_2", "log_density"]
    assert len(rows) == 5


def test_sample_seed_changes_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["sample", "--ensemble", "chebyshev", "--N", "3", "--replicas", "5"]
    assert main(base + ["--seed", "7", "--out", str(a)]) == 0
    assert main(base + ["--seed", "8", "--out", str(b)]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_sample_circle_emits_complex_points(tmp_path):
    out = tmp_path / "c.csv"
    assert main(["sample", "--ensemble", "circle", "--N", "2", "--replicas", "3",
                 "--out", str(out)]) == 0
    _, rows = read_csv(out)
    z = complex(rows[0][0])
    assert abs(abs(z) - 1.0) < 1e-12


def test_moments_gue(tmp_path):
    out = tmp_path / "m.csv"
    assert main(["moments", "--ensemble", "gue", "--N", "200", "--lmax", "6",
                 "--out", str(out)]) == 0
    _, rows = read_csv(out)
    vals = {int(r[0]): float(r[1]) for r in rows}
    assert sorted(vals) == [1, 2, 3, 4, 5, 6]
    assert abs(vals[2] - 1.0) < 1e-9
    assert abs(vals[4] - (2.0 + 1.0 / 200**2)) < 1e-9


def test_moments_on_a_table_walk_once(tmp_path, monkeypatch):
    import polyens.recurrence

    walked = []
    walk = polyens.recurrence._walk_steps
    monkeypatch.setattr(polyens.recurrence, "_walk_steps", lambda *a: walked.append(1) or walk(*a))
    out = tmp_path / "m.csv"
    assert main(["moments", "--ensemble", "gue", "--N", "2000", "--lmax", "8",
                 "--out", str(out)]) == 0
    assert walked == [1]
    _, rows = read_csv(out)
    assert [float(r[1]) for r in rows] == [mean_moment(classical_table("gue", 2000), ell) for ell in range(1, 9)]


def test_moments_inline_json(tmp_path):
    out = tmp_path / "m.csv"
    cfg = '{"classical": "chebyshev", "N": 50}'
    assert main(["moments", "--ensemble", cfg, "--lmax", "2", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert abs(float(rows[1][1]) - 0.505) < 1e-9


def test_moments_config_file_with_N_override(tmp_path):
    cfg = tmp_path / "ens.json"
    cfg.write_text('{"classical": "gue", "N": 10}\n')
    out = tmp_path / "m.csv"
    assert main(["moments", "--ensemble", str(cfg), "--N", "40", "--lmax", "4",
                 "--out", str(out)]) == 0
    _, rows = read_csv(out)
    # m4 pins down N through the 1/N^2 correction
    assert abs(float(rows[3][1]) - (2.0 + 1.0 / 40**2)) < 1e-9


def test_moments_tilted_reads_the_kernel_diagonal(tmp_path, monkeypatch):
    N = 12
    tilt = np.zeros((N, 2))
    tilt[N - 2, 0] = tilt[N - 1, 1] = 0.05
    cfg = {"base": {"classical": "chebyshev", "N": N, "pad": 4}, "tilt": tilt.tolist()}
    ens = build_ensemble(cfg)
    x = ens.measure.points
    diag = np.diag(ens.kernel_matrix())  # w(x) K(x, x)
    want = [np.sum(x**ell * diag) / N for ell in range(1, 7)]

    def no_kernel(self):
        raise AssertionError("moments formed the n x n kernel")

    monkeypatch.setattr(PolynomialEnsemble, "kernel_matrix", no_kernel)
    out = tmp_path / "m.csv"
    assert main(["moments", "--ensemble", json.dumps(cfg), "--lmax", "6", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    got = [float(r[1]) for r in rows]
    assert np.allclose(got, want, rtol=0, atol=1e-13)


def test_zeros_circle_all_at_origin(tmp_path):
    out = tmp_path / "z.csv"
    assert main(["zeros", "--ensemble", "circle", "--N", "8", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 8
    for r in rows:
        assert float(r[1]) == 0.0 and float(r[2]) == 0.0


def test_gap_rows_respect_bound(tmp_path):
    out = tmp_path / "g.csv"
    assert main(["gap", "--ensemble", "gue", "--N", "100", "--lmax", "4",
                 "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 4
    for r in rows:
        assert float(r[1]) <= float(r[2]) + 1e-15
    vals = {int(r[0]): float(r[1]) for r in rows}
    assert abs(vals[2] - 1.0 / 100) < 1e-12


def test_variance_json_gue(tmp_path):
    out = tmp_path / "v.json"
    assert main(["variance", "--ensemble", "gue", "--N", "50", "--power", "1",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert abs(payload["exact"] - 1.0) < 1e-12
    assert payload["exact"] <= payload["bound"]
    assert payload["mc"] is None
    assert payload["limiting"] == pytest.approx(1.0, abs=1e-6)


def test_variance_with_mc(tmp_path):
    out = tmp_path / "v.json"
    assert main(["variance", "--ensemble", "gue", "--N", "8", "--power", "1",
                 "--mc", "400", "--seed", "11", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    mc = payload["mc"]
    assert mc["replicas"] == 400 and mc["seed"] == 11
    assert abs(mc["estimate"] - payload["exact"]) < 5 * mc["se"]


def test_limit_csv(tmp_path):
    out = tmp_path / "l.csv"
    assert main(["limit", "--ensemble", "gue", "--N", "100",
                 "--profile", '{"kind": "gue"}', "--lmax", "6",
                 "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["ell", "finite_moment", "limit_moment", "gap"]
    by_ell = {int(r[0]): r for r in rows}
    assert float(by_ell[4][2]) == pytest.approx(2.0, abs=1e-9)
    assert float(by_ell[4][3]) < 0.01


def test_verify_single_criterion(tmp_path, capsys):
    out = tmp_path / "verify.json"
    code = main(["verify", "--quick", "--only", "3", "--out", str(out)])
    payload = json.loads(out.read_text())
    assert code == 0
    assert payload["passed"] is True
    assert [c["number"] for c in payload["criteria"]] == [3]
    err = capsys.readouterr().err
    assert "[PASS] criterion" in err and "arcsine" in err


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["sample"]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["sample", "--ensemble", "gue", "--N", "3", "--mode", "schur"]) == 1
    assert main(["sample", "--ensemble", "chebyshev", "--N", "3", "--replicas", "-2"]) == 1
    assert main(["sample", "--ensemble", "chebyshev", "--N", "3", "--replicas", "two"]) == 1
    assert main(["variance", "--ensemble", "gue", "--N", "5", "--mc", "-1"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "--replicas: expected a whole number >= 0, got '-2'" in out.err
    assert "--replicas: expected a whole number >= 0, got 'two'" in out.err
    assert "--mc: expected a whole number >= 0, got '-1'" in out.err


@pytest.mark.parametrize("number", ["0", "12"])
def test_verify_only_outside_the_criteria_is_a_usage_error(tmp_path, capsys, number):
    # a mistyped criterion must not read as an empty, passing run
    out = tmp_path / "verify.json"
    assert main(["verify", "--quick", "--only", "3", "--only", number, "--out", str(out)]) == 1
    assert not out.exists()
    assert f"--only: invalid choice: {number}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "sub",
    [
        ["moments", "--lmax"],
        ["gap", "--lmax"],
        ["limit", "--profile", '{"kind": "gue"}', "--lmax"],
        ["variance", "--power"],
    ],
    ids=lambda sub: sub[0],
)
def test_nonpositive_power_is_a_usage_error(tmp_path, capsys, sub):
    out = tmp_path / "out"
    for value in ("-1", "0"):
        argv = [sub[0], "--ensemble", "gue", "--N", "10", "--out", str(out), *sub[1:], value]
        assert main(argv) == 1
        assert f"{sub[-1]}: expected a whole number >= 1, got '{value}'" in capsys.readouterr().err
    assert not out.exists()


def test_tilt_that_is_no_point_process_fails_as_positivity(capsys):
    # this tilt's kernel has negative minors, so it defines no point
    # process: building the config scans minors and fails before any draw
    tilt = np.zeros((6, 2))
    tilt[5, 0], tilt[4, 1] = 0.3, 0.2
    cfg = json.dumps({"base": {"classical": "chebyshev", "N": 6, "nodes": 64, "pad": 4},
                      "tilt": tilt.tolist()})
    assert main(["sample", "--ensemble", cfg, "--replicas", "200", "--seed", "1"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    err = out.err.strip().splitlines()
    assert len(err) == 1
    assert re.search(r"negative \d+-point minor", err[0])
    assert "np.float64" not in err[0]


def test_tilted_ensemble_has_no_table_for_table_commands(capsys):
    # the table of the base ensemble describes (P, P), not the tilted (P, Q):
    # Var[sum x] is 0.25 for the base but 0.261875 for this tilt
    tilt = np.zeros((6, 2))
    tilt[5, 0], tilt[5, 1] = 0.05, 0.05
    cfg = json.dumps({"base": {"classical": "chebyshev", "N": 6, "nodes": 64, "pad": 4},
                      "tilt": tilt.tolist()})
    for sub in (["variance", "--power", "1"], ["zeros"], ["gap"]):
        assert main(sub + ["--ensemble", cfg]) == 2, sub
        out = capsys.readouterr()
        assert out.out == ""
        err = out.err.strip().splitlines()
        assert len(err) == 1 and "recurrence table" in err[0], sub


def _chebyshev_table_configs(N=6, pad=4, nodes=64):
    """The arcsine-law OP coefficients written in both table spellings."""
    K = N + pad
    a = [2**-0.5] + [0.5] * K
    measure = {"kind": "named", "name": "chebyshev-arcsine", "nodes": nodes}
    op = {"form": "op", "a": a, "b": [0.0] * (K + 1)}
    c = [[k, -1, a[k]] for k in range(K + 1)] + [[k, 1, a[k - 1]] for k in range(1, K + 1)]
    banded = {"form": "banded", "q": 1, "c": c}
    return [json.dumps({"measure": measure, "table": t, "N": N}) for t in (op, banded)]


def _body(text):
    """An output without its provenance: CSV minus the comment line, JSON
    minus the config hash."""
    if text.startswith("#"):
        return text.split("\n", 1)[1]
    payload = json.loads(text)
    payload.pop("config")
    return payload


def test_op_and_banded_spellings_of_one_table_agree(capsys):
    bodies = []
    for cfg in _chebyshev_table_configs():
        outs = []
        for sub in (["zeros"], ["gap"], ["moments"], ["variance", "--power", "2", "--mc", "20"],
                    ["sample", "--replicas", "4", "--seed", "3"]):
            assert main(sub + ["--ensemble", cfg]) == 0, sub
            outs.append(_body(capsys.readouterr().out))
        bodies.append(outs)
    assert bodies[0] == bodies[1]
    variance = bodies[0][3]
    assert variance["limiting"] is not None and abs(variance["exact"] - 0.125) < 1e-12


def test_mismatched_op_table_answers_table_commands_from_its_atoms(capsys):
    # GUE coefficients on the arcsine atoms of [-2, 2] are not orthonormal
    # there: the ensemble is the OP ensemble of the atoms, and every
    # subcommand answers as for the measure config with the table's pad
    N = 6
    a = [((k + 1) / N) ** 0.5 for k in range(N + 5)]
    measure = {"kind": "named", "name": "chebyshev-arcsine", "alpha": -2, "beta": 2, "nodes": 64}
    bodies = []
    for cfg in ({"measure": measure, "table": {"form": "op", "a": a}, "N": N},
                {"measure": measure, "N": N, "pad": 4}):
        outs = []
        for sub in (["zeros"], ["gap"], ["moments"], ["variance", "--power", "2"],
                    ["sample", "--replicas", "2", "--seed", "3"]):
            assert main(sub + ["--ensemble", json.dumps(cfg)]) == 0, sub
            out = capsys.readouterr()
            assert out.err == "", sub
            outs.append(_body(out.out))
        bodies.append(outs)
    assert bodies[0] == bodies[1]


@pytest.mark.parametrize("N", [12, 20, 30, 100])
def test_mismatched_table_samples_the_op_ensemble_of_its_atoms(N, capsys):
    # GUE coefficients on 256 arcsine nodes of [-2, 2]: their Gram matrix
    # there has condition number 4e9 at N=12 and 1e25 at N=30, so no dual of
    # these rows reaches the OP kernel of the atoms to 1e-12
    measure = {"kind": "named", "name": "chebyshev-arcsine", "alpha": -2, "beta": 2, "nodes": 256}
    cfg = {"measure": measure, "table": {"form": "op", "a": [((k + 1) / N) ** 0.5 for k in range(N + 5)]}, "N": N}
    assert main(["sample", "--ensemble", json.dumps(cfg), "--replicas", "2"]) == 0
    assert capsys.readouterr().err == ""
    ens = build_ensemble(cfg)
    assert repr(ens) == f"PolynomialEnsemble(op-ensemble, N={N}, hermitian, atoms=256)"
    want = PolynomialEnsemble.from_measure(build_measure(measure), N).kernel_matrix()
    assert np.max(np.abs(ens.kernel_matrix() - want)) <= 1e-12


def test_table_not_orthonormal_on_complex_atoms_exits_2(capsys):
    # P_1 = x/2 on the atoms +-1, +-i has norm 1/2; no Lanczos serves
    # complex atoms, so the table is refused
    points = [1, -1, [0, 1], [0, -1]]
    c = [[0, -1, 2], [1, -1, 1], [2, -1, 1]]
    cfg = {"measure": {"kind": "atoms", "points": points, "weights": [0.25] * 4},
           "table": {"form": "banded", "q": 0, "c": c}, "N": 2}
    assert main(["sample", "--ensemble", json.dumps(cfg)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.strip().splitlines() == [
        "polyens: error: its table is not orthonormal on the 4 atoms kept (Gram defect 0.75)"
    ]


def test_table_not_orthonormal_on_few_real_atoms_samples_what_they_allow(capsys):
    # four atoms fix the OP table only through a_2 (pad -1 at N = 3), short
    # of the pad 0 of four `a` entries: the ensemble is that of three entries
    measure = {"kind": "atoms", "points": [-1, -0.3, 0.3, 1], "weights": [0.25] * 4}
    outs = []
    for a in ([0.5] * 4, [0.5] * 3):
        cfg = {"measure": measure, "table": {"form": "op", "a": a}, "N": 3}
        assert main(["sample", "--ensemble", json.dumps(cfg), "--replicas", "3", "--seed", "2"]) == 0
        out = capsys.readouterr()
        assert out.err == ""
        outs.append(out.out.splitlines()[1:])
    assert outs[0] == outs[1]
    cfg = {"measure": measure, "table": {"form": "op", "a": [0.5] * 4}, "N": 4}
    assert main(["sample", "--ensemble", json.dumps(cfg)]) == 2
    assert "need at least 5" in capsys.readouterr().err


def test_override_flags_apply_where_the_config_reads_them(tmp_path):
    out = tmp_path / "s.csv"
    cfg = {"classical": "gue", "N": 5}
    assert main(["sample", "--ensemble", json.dumps(cfg), "--nodes", "16", "--out", str(out)]) == 0
    want = build_ensemble({**cfg, "nodes": 16})
    assert len(want.measure) < 64  # not the default 256 nodes
    lines = out.read_text().splitlines()
    assert f"config {config_hash({**cfg, 'nodes': 16})} " in lines[0]
    assert all(float(x) in want.measure.points for x in lines[2].split(",")[:-1])
    measure = {"kind": "named", "name": "chebyshev-arcsine", "nodes": 32}
    assert main(["sample", "--ensemble", json.dumps({"measure": measure, "N": 6}), "--N", "3",
                 "--out", str(out)]) == 0
    assert read_csv(out)[0] == ["x_0", "x_1", "x_2", "log_density"]


def test_override_flags_that_nothing_reads_exit_2(capsys):
    tilt = np.zeros((6, 2))
    tilt[5, 0] = 0.3
    tilted = json.dumps({"base": {"classical": "chebyshev", "N": 6, "nodes": 64, "pad": 4},
                         "tilt": tilt.tolist()})
    measure = json.dumps({"measure": {"kind": "named", "name": "chebyshev-arcsine", "nodes": 32}, "N": 4})
    for argv in (
        ["sample", "--ensemble", tilted, "--N", "3"],
        ["sample", "--ensemble", tilted, "--nodes", "32"],
        ["moments", "--ensemble", measure, "--nodes", "16"],
    ):
        assert main(argv) == 2, argv
        out = capsys.readouterr()
        err = out.err.strip().splitlines()
        assert out.out == "" and len(err) == 1 and err[0].startswith("polyens: error: --"), argv


def test_nonreal_kernel_is_refused(capsys):
    cfg = json.dumps({"base": {"classical": "circle", "N": 4, "nodes": 16, "pad": 2},
                      "tilt": [[0, 0], [0, 0], [0.3, 0], [0, 0.2]]})
    for sub in (["sample"], ["moments"]):
        assert main(sub + ["--ensemble", cfg]) == 2, sub
        out = capsys.readouterr()
        err = out.err.strip().splitlines()
        assert out.out == "" and len(err) == 1 and "non-real" in err[0], sub


def test_model_errors_exit_2(tmp_path, capsys):
    for argv in (
        ["moments", "--ensemble", '{"classical": "nope", "N": 5}'],
        ["moments", "--ensemble", str(tmp_path / "missing.json")],
        ["gap", "--ensemble", "gue"],  # shorthand without --N
        ["moments", "--ensemble", '{"classical": "gue", "N": null}'],
        ["moments", "--ensemble", '{"classical": "gue", "N": [3]}'],
        ["moments", "--ensemble", '{"classical": "gue", "N": 5, "nodes": null}'],
        ["moments", "--ensemble", '{"classical": "gue", "N": 2.5}'],
        ["sample", "--ensemble", "gue", "--N", "300"],  # default 256 nodes
        ["moments", "--ensemble", '{"measure": {"kind": "atoms", "points": [[1], [2], [3]], "weights": [1, 1, 1]}, "N": 2}'],
        ["moments", "--ensemble", '{"classical": "gue", "N": 5, "alpha": null}'],
        ["moments", "--ensemble", '{"measure": {"kind": "atoms", "points": 5, "weights": [1]}, "N": 1}'],
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("polyens: error:"), argv


def test_profile_key_that_is_no_step_index_exits_2(capsys):
    profile = json.dumps({"kind": "banded", "funcs": {"-1": 1.0, "a": 1}})
    assert main(["limit", "--ensemble", "gue", "--N", "20", "--profile", profile]) == 2
    out = capsys.readouterr()
    err = out.err.strip().splitlines()
    assert out.out == "" and err == ["polyens: error: profile funcs key 'a' must be an integer step index"]


def test_negative_pad_exits_2_at_parse_time(capsys):
    assert main(["variance", "--ensemble", '{"classical": "gue", "N": 5, "pad": -1}']) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["polyens: error: pad must be >= 0"]


@pytest.mark.parametrize("table", [False, True], ids=["measure", "gue-table"])
def test_gue_400_on_734_atoms_samples(tmp_path, table):
    # the scaled-Hermite atoms of 1024 nodes that keep a weight at N=400,
    # where the unweighted basis product overflowed; the explicit GUE N=400
    # table is not orthonormal there, so its config builds the OP ensemble
    # of the atoms, as the measure config does
    cfg = {"measure": {"kind": "named", "name": "scaled-hermite", "N": 400, "nodes": 1024}, "N": 400}
    if table:
        cfg["table"] = {"form": "op", "a": np.sqrt(np.arange(1, 405) / 400).tolist(), "N": 400}
    out = tmp_path / "s.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["sample", "--ensemble", json.dumps(cfg), "--replicas", "2", "--seed", "3", "--out", str(out)])
    assert code == 0 and caught == []
    header, rows = read_csv(out)
    assert len(header) == 401 and len(rows) == 2
    assert all(np.isfinite(float(r[-1])) for r in rows)


def test_tilt_of_a_detached_table_exits_2(capsys):
    # P_7 is not orthogonal to P_3 on 5 nodes, so the base detaches its
    # table, and tilting Q_3 by P_7 leaves <P_3, Q_3> = 1.05: sample drew
    # from a kernel that is no projection and exited 0
    cfg = {"base": {"classical": "chebyshev", "N": 4, "nodes": 5, "pad": 4},
           "tilt": [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0.05], [0, 0, 0, 0.05]]}
    assert build_ensemble(cfg["base"]).table is None
    with pytest.raises(OrthogonalityError, match=r"Gram defect 0\.05"):
        build_ensemble(cfg)
    assert main(["sample", "--ensemble", json.dumps(cfg)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.strip().splitlines() == [
        "polyens: error: the tilted pair is not biorthogonal (Gram defect 0.05): "
        "the padded rows are not orthogonal to P"
    ]


def test_numerical_breakdown_is_one_error_line(capsys):
    # a weight 300 decades below the others: Lanczos's residual at degree 3
    # vanishes to roundoff
    cfg = {"measure": {"kind": "atoms", "points": [0, 1, 2, 3], "weights": [1, 1, 1, 1e-300]}, "N": 1, "pad": 1}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["sample", "--ensemble", json.dumps(cfg)])
    assert code == 2
    assert caught == []
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["polyens: error: orthogonalization broke down at degree 3; "
                   "the measure is too coarse for this table"], err


def test_a_walk_past_the_pad_names_the_pad_that_would_do(capsys):
    # the default --lmax 8 climbs to ordinate 33 of a table stored to 32
    cfg = '{"classical": "chebyshev", "N": 30, "alpha": 0, "beta": 3, "pad": 2}'
    assert main(["moments", "--ensemble", cfg]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.strip().splitlines() == [
        "polyens: error: the paths climb to ordinate 33 but the table stores indices up to 32 "
        "(N=30, pad=2); rebuild with pad >= 3"
    ]
    assert main(["moments", "--ensemble", cfg.replace('"pad": 2', '"pad": 3')]) == 0


@pytest.mark.parametrize(
    "measure",
    [
        {"kind": "named", "name": "uniform-circle", "n": 64},
        {"kind": "atoms", "points": [[1, 0], [0, 1], [-1, 0], [0, -1]], "weights": [1, 1, 1, 1]},
    ],
    ids=["named-circle", "complex-atoms"],
)
def test_a_measure_config_on_complex_atoms_needs_a_table(capsys, measure):
    cfg = json.dumps({"measure": measure, "N": 2})
    assert main(["moments", "--ensemble", cfg, "--lmax", "2"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.strip().splitlines() == [
        "polyens: error: a measure ensemble on complex atoms needs an explicit 'table'; "
        'for the uniform circle, use {"classical": "uniform-circle", "N": ...}'
    ]


def test_classical_atoms_that_do_not_carry_the_table_exit_2(capsys):
    # GUE N=400 on 1024 nodes keeps the 734 atoms whose weight does not
    # underflow; the GUE table is not orthonormal on them
    assert main(["sample", "--ensemble", "gue", "--N", "400", "--nodes", "1024"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.strip().splitlines() == [
        "polyens: error: gue N=400 on 1024 nodes: its table is not orthonormal "
        "on the 734 atoms kept (Gram defect 0.176)"
    ]


def test_unexpected_exception_exits_2(monkeypatch, capsys):
    def broken(args):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "cmd_moments", broken)
    assert main(["moments", "--ensemble", "gue", "--N", "5"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["polyens: error: internal: KeyError: 'boom'"]


@pytest.mark.parametrize("exc", [ValueError("bad value"), np.linalg.LinAlgError("singular")],
                         ids=["ValueError", "LinAlgError"])
def test_value_and_linalg_errors_exit_2(monkeypatch, capsys, exc):
    def broken(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_moments", broken)
    assert main(["moments", "--ensemble", "gue", "--N", "5"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.strip().splitlines() == [f"polyens: error: {exc}"]


def test_interrupt_is_not_mapped(monkeypatch):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_moments", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["moments", "--ensemble", "gue", "--N", "5"])


def test_unwritable_out_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    assert main(["moments", "--ensemble", "gue", "--N", "10", "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("polyens: error:")


def test_version_exits_0(capsys):
    assert main(["--version"]) == 0
    assert "polyens" in capsys.readouterr().out


def test_stdout_default(capsys):
    assert main(["zeros", "--ensemble", "chebyshev", "--N", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# polyens ")
    assert len(lines) == 6
    got = sorted(float(line.split(",")[1]) for line in lines[2:])
    want = np.sort(np.cos((2 * np.arange(1, 5) - 1) * np.pi / 8))
    assert np.allclose(got, want, atol=1e-12)


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--ensemble", "circle", "--N", "3", "--replicas", "4", "--seed", "7"],
        ["moments", "--ensemble", "gue", "--N", "10"],
        ["zeros", "--ensemble", "chebyshev", "--N", "5"],
        ["gap", "--ensemble", "gue", "--N", "10"],
        ["variance", "--ensemble", "gue", "--N", "6", "--power", "2", "--mc", "20"],
        ["limit", "--ensemble", "gue", "--N", "10", "--profile", '{"kind": "gue"}'],
        ["verify", "--only", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_stdout_and_out_file_get_the_same_bytes(tmp_path, capsys, argv):
    def seconds_apart(text):
        return re.sub(r'"seconds": [0-9.]+', '"seconds": S', text)

    out = tmp_path / "out"
    assert main(argv) == 0
    stdout = seconds_apart(capsys.readouterr().out)
    assert main(argv + ["--out", "-"]) == 0
    assert seconds_apart(capsys.readouterr().out) == stdout
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert seconds_apart(out.read_bytes().decode()) == stdout


def test_json_writes_a_complex_value_as_csv_does(monkeypatch, capsys):
    # a complex table's variance is complex; its real part alone is wrong
    monkeypatch.setattr(cli, "variance_power", lambda table, ell: 0.25 + 0.3j)
    assert main(["variance", "--ensemble", "gue", "--N", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["exact"] == cli._fmt(0.25 + 0.3j) == "0.25+0.3j"


def test_python_m_polyens_runs_the_cli():
    src = str(Path(polyens.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "polyens", "--version"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"polyens {polyens.__version__}"


def test_a_reader_that_closes_the_pipe_early_is_no_error():
    # `polyens sample ... | head -c 100`: the report is about 1.6 MB, far
    # more than a pipe buffers, so the write meets the closed pipe
    src = str(Path(polyens.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "polyens", "sample", "--ensemble", "gue", "--N", "30", "--replicas", "3000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src},
    )
    try:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0, err
    finally:
        proc.kill()
        proc.stderr.close()
    assert err == b""


@pytest.mark.parametrize(
    "cfg, message",
    [
        ({"classical": "gue", "N": 5, "tilt": 3}, "gue ensemble config takes no key 'tilt'"),
        ({"base": {"classical": "gue", "N": 5}, "tilt": [[1, "a"]]}, "tilt entry must be a number, got 'a'"),
        # a KeyError's repr, "bad named measure: 'N'"
        (
            {"measure": {"kind": "named", "name": "scaled-hermite", "nodes": 64}, "N": 10},
            "bad named measure: scaled-hermite measure needs 'N'",
        ),
    ],
    ids=["unread-key", "non-numeric", "missing-parameter"],
)
def test_config_the_builder_cannot_read_exits_2_naming_the_field(capsys, cfg, message):
    assert main(["moments", "--ensemble", json.dumps(cfg), "--lmax", "2"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.strip().splitlines() == [f"polyens: error: {message}"]


@pytest.mark.parametrize(
    "text, message",
    [
        # the NaN density dropped its atom: 5 grid points built 4 atoms
        (
            '{"measure": {"kind": "grid", "points": [0, 1, 2, 3, 4], "density": [1, NaN, 1, 1, 1]}, "N": 2}',
            "grid 'density' entry must be finite, got nan",
        ),
        # reported as an overflowing basis product
        (
            '{"base": {"classical": "chebyshev", "N": 4, "nodes": 16, "pad": 2}, '
            '"tilt": [[0, 0], [0, 0], [NaN, 0], [0, 0.1]]}',
            "tilt entry must be finite, got nan",
        ),
        # an untyped "coefficients must be finite"
        ('{"classical": "chebyshev", "N": 4, "alpha": -Infinity}', "alpha must be finite, got -inf"),
    ],
    ids=["grid-density", "tilt", "alpha"],
)
def test_non_finite_json_literals_exit_2_naming_the_field(capsys, text, message):
    assert main(["moments", "--ensemble", text, "--lmax", "2"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.strip().splitlines() == [f"polyens: error: {message}"]


def test_classical_table_subcommands_build_no_measure(monkeypatch, capsys):
    # a classical config's table is its closed form: only sampling needs atoms
    def no_atoms(*args, **kwargs):
        raise RuntimeError("atoms built")

    for name, family in FAMILIES.items():
        monkeypatch.setitem(FAMILIES, name, family._replace(atoms=no_atoms))
    for name in FAMILIES:
        for sub in (["moments"], ["zeros"], ["gap"], ["variance"]):
            assert main(sub + ["--ensemble", name, "--N", "50"]) == 0, (name, sub)
            assert capsys.readouterr().err == "", (name, sub)
        assert main(["sample", "--ensemble", name, "--N", "50"]) == 2
        assert "atoms built" in capsys.readouterr().err
    assert main(["limit", "--profile", '{"kind": "gue"}', "--ensemble", "gue", "--N", "50"]) == 0
    assert capsys.readouterr().err == ""


def test_the_shorthand_names_are_the_family_registrys(monkeypatch, tmp_path, capsys):
    # every FAMILIES name is a shorthand and is listed in --ensemble's help;
    # any other name is read as a config file
    monkeypatch.chdir(tmp_path)
    for name in FAMILIES:
        assert main(["moments", "--ensemble", name, "--N", "4", "--lmax", "2"]) == 0, name
    capsys.readouterr()
    assert main(["moments", "--ensemble", "laguerre", "--N", "4"]) == 2
    assert "config is neither valid JSON nor a readable file" in capsys.readouterr().err
    assert main(["moments", "--help"]) == 0
    assert "/".join(FAMILIES) in "".join(capsys.readouterr().out.split())  # unwrapped


def test_table_subcommands_run_where_the_atoms_do_not_carry_the_table(tmp_path, capsys):
    # GUE N=400 on 1024 nodes keeps 734 atoms, on which its table is not
    # orthonormal; sampling is refused, the table queries are not
    gue = ["--ensemble", "gue", "--N", "400", "--nodes", "1024"]
    assert main(["variance"] + gue) == 0
    assert json.loads(capsys.readouterr().out)["exact"] == 1.0
    out = tmp_path / "z.csv"
    assert main(["zeros"] + gue + ["--out", str(out)]) == 0
    assert len(read_csv(out)[1]) == 400
    for sub in (["gap"], ["limit", "--profile", '{"kind": "gue"}'], ["moments"]):
        assert main(sub + gue) == 0, sub
        assert capsys.readouterr().err == "", sub
    # 300 points on the 256 default nodes: a RankError for the ensemble
    assert main(["zeros", "--ensemble", "chebyshev", "--N", "300", "--out", str(out)]) == 0
    assert len(read_csv(out)[1]) == 300


def test_moments_of_a_classical_config_read_the_closed_form(capsys):
    # Chebyshev N=256 on its 256 nodes builds an ensemble without a table;
    # the moments are still the closed form's, not the atoms' kernel diagonal
    assert main(["moments", "--ensemble", "chebyshev", "--N", "256"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[2:]]
    table = classical_table("chebyshev", 256)
    assert [float(v) for _, v in rows] == [mean_moment(table, ell) for ell in range(1, 9)]


def test_table_subcommands_at_gue_n_100000(capsys):
    big = ["--ensemble", "gue", "--N", "100000"]
    assert main(["variance", "--power", "2"] + big) == 0
    assert json.loads(capsys.readouterr().out)["exact"] == 2.0
    assert main(["limit", "--profile", '{"kind": "gue"}', "--lmax", "4"] + big) == 0
    assert len(capsys.readouterr().out.splitlines()) == 6
    assert main(["gap", "--lmax", "8"] + big) == 0
    assert len(capsys.readouterr().out.splitlines()) == 10
    assert main(["moments"] + big) == 0
    assert len(capsys.readouterr().out.splitlines()) == 10


@pytest.mark.parametrize("replicas", ["1", "4"])
def test_too_few_mc_replicas_is_a_usage_error(monkeypatch, capsys, replicas):
    # the cumulants of a Monte Carlo estimate need 5 replicas; fewer is
    # refused by the parser, before any ensemble is built or drawn
    monkeypatch.setattr(cli, "build_ensemble", lambda cfg: pytest.fail("built"))
    assert main(["variance", "--ensemble", "gue", "--N", "5", "--mc", replicas]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert f"--mc: expected 0 or a whole number >= 5, got '{replicas}'" in out.err


def test_mc_refuses_a_classical_ensemble_built_without_its_table(capsys):
    # chebyshev N=256 on its 256 default nodes is built without a table:
    # every replica holds all the atoms, so its draws say nothing of the
    # closed form that exact and bound read
    assert main(["variance", "--ensemble", "chebyshev", "--N", "256", "--mc", "20"]) == 2
    out = capsys.readouterr()
    err = out.err.strip().splitlines()
    assert out.out == "" and len(err) == 1
    assert "this subcommand needs an ensemble with a recurrence table" in err[0]
    assert main(["variance", "--ensemble", "chebyshev", "--N", "256"]) == 0


@pytest.mark.parametrize("sub", [["variance", "--power", "9"], ["gap", "--lmax", "9"]],
                         ids=["variance", "gap"])
def test_a_query_past_the_pad_names_the_pad_it_needs(capsys, sub):
    assert main(sub + ["--ensemble", "gue", "--N", "50"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.strip().splitlines() == [
        "polyens: error: the window reaches index 59 but the table stores indices up to 58 "
        "(N=50, pad=8); rebuild with pad >= 9"
    ]
    assert main(sub + ["--ensemble", '{"classical": "gue", "N": 50, "pad": 9}']) == 0


@pytest.mark.parametrize("sub, pad", [(["gap", "--lmax", "8"], 8), (["variance", "--power", "9"], 9)],
                         ids=["gap", "variance"])
def test_a_query_with_several_reads_names_one_pad_for_all(capsys, sub, pad):
    # gap reads a walk and a window per power, variance a walk and the
    # bound's window: the widest read is checked before any of them, so the
    # first message names a pad that serves the whole query
    cfg = {"classical": "chebyshev", "N": 30, "alpha": 0, "beta": 3, "pad": 2}
    assert main(sub + ["--ensemble", json.dumps(cfg)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.strip().splitlines() == [
        f"polyens: error: the window reaches index {30 + pad} but the table stores indices up to 32 "
        f"(N=30, pad=2); rebuild with pad >= {pad}"
    ]
    assert main(sub + ["--ensemble", json.dumps({**cfg, "pad": pad})]) == 0
