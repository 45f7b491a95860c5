"""End-to-end checks of the console entry point via main(argv)."""

import json
import warnings

import numpy as np
import pytest

from polyens import cli
from polyens.cli import main


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
    capsys.readouterr()


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


def test_kernel_overflow_is_one_error_line(capsys):
    # GUE N=400 on 1024 nodes: the basis is finite, its kernel product is not
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["sample", "--ensemble", "gue", "--N", "400", "--nodes", "1024"])
    assert code == 2
    assert caught == []
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("polyens: error: kernel of N=400"), err


def test_unexpected_exception_exits_2(monkeypatch, capsys):
    def broken(args):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "cmd_moments", broken)
    assert main(["moments", "--ensemble", "gue", "--N", "5"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["polyens: error: internal: KeyError: 'boom'"]


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
