import json
import re

import numpy as np
import pytest

from polyens import ConfigError, OrthogonalityError, mean_moment, sample, stream
from polyens.recurrence import FAMILIES
from polyens.config import (
    _classical,
    build_ensemble,
    build_measure,
    build_profile,
    build_table,
    config_hash,
    load_config,
)


def test_named_measure_config():
    m = build_measure({"kind": "named", "name": "chebyshev-arcsine", "nodes": 32})
    assert len(m) == 32
    assert np.isclose(m.total_mass, 1.0)
    with pytest.raises(ConfigError):
        build_measure({"kind": "named", "name": "lebesgue"})
    with pytest.raises(ConfigError):
        build_measure({"kind": "mystery"})
    with pytest.raises(ConfigError):
        build_measure(["not", "a", "dict"])


def test_atoms_measure_config_real_and_complex():
    m = build_measure({"kind": "atoms", "points": [0.0, 1.0], "weights": [0.5, 0.5]})
    assert not m.is_complex
    mc = build_measure(
        {"kind": "atoms", "points": [[1.0, 0.0], [0.0, 1.0]], "weights": [0.5, 0.5]}
    )
    assert mc.is_complex
    assert mc.points[1] == 1.0j


def test_grid_measure_config():
    x = np.linspace(-1, 1, 11)
    m = build_measure({"kind": "grid", "points": x.tolist(), "density": np.ones(11).tolist()})
    assert np.isclose(m.total_mass, 2.0)


def test_op_table_config_default_b_is_zero():
    t = build_table({"form": "op", "a": [0.5, 0.5, 0.5], "N": 2})
    assert t.coeff(1, 1) == 0.0
    assert t.coeff(0, 1) == 0.5
    assert t.N == 2


def test_banded_table_config():
    t = build_table(
        {"form": "banded", "q": 2, "c": [[0, -1, 1.0], [1, -1, 0.5], [2, 2, 0.25]], "N": 2}
    )
    assert t.q == 2
    assert t.coeff(2, 0) == 0.25
    # K inferred from the largest row index
    assert t.top == 2


def test_banded_table_complex_entries():
    t = build_table({"form": "banded", "q": 0, "c": [[0, -1, 0.0, 1.0], [1, -1, 1.0]], "N": 1})
    assert t.is_complex
    assert t.coeff(0, 1) == 1.0j


def test_table_config_errors():
    with pytest.raises(ConfigError):
        build_table({"form": "hessenberg"})
    with pytest.raises(ConfigError):
        build_table({"form": "op"})  # no 'a'
    with pytest.raises(ConfigError):
        build_table({"form": "banded", "q": 1, "c": [[0, 5, 1.0]]})  # step out of band
    with pytest.raises(ConfigError):
        build_table({"form": "banded", "q": 1, "c": []})


def test_classical_ensemble_configs():
    for name in FAMILIES:
        ens = build_ensemble({"classical": name, "N": 4, "nodes": 64})
        assert ens.N == 4
        assert ens.hermitian, name
    with pytest.raises(ConfigError):
        build_ensemble({"classical": "goe", "N": 4})
    with pytest.raises(ConfigError):
        build_ensemble({"classical": "gue"})


@pytest.mark.parametrize("N, nodes, kept", [(340, 1024, 734), (400, 1024, 734), (354, 512, 478)])
def test_classical_atoms_that_do_not_carry_the_table_are_refused(N, nodes, kept):
    # the atoms whose Hermite weight underflows are dropped; the GUE table is
    # not orthonormal on those kept, and their OP ensemble is no GUE
    with pytest.raises(OrthogonalityError, match=f"gue N={N} on {nodes} nodes: .* {kept} atoms kept"):
        build_ensemble({"classical": "gue", "N": N, "nodes": nodes})


def test_classical_ensemble_whose_padded_rows_alone_fail_builds_and_samples():
    # Chebyshev N=256 on its 256 nodes: P_0..P_255 are orthonormal there, the
    # padded rows are not, so the table is dropped and the ensemble kept
    ens = build_ensemble({"classical": "chebyshev", "N": 256, "nodes": 256})
    assert ens.hermitian and ens.table is None
    cfg = sample(ens, rng=stream(3), check_normalization=True)
    assert sorted(cfg.indices.tolist()) == list(range(256))


@pytest.mark.parametrize("name", FAMILIES)
def test_closed_form_table_is_the_ensembles_table_bit_for_bit(name):
    # the table subcommands read the closed form and build no atoms; where
    # the built ensemble keeps its table, the two are one, bit for bit
    family = FAMILIES[name]
    shifted = {k: v + 0.5 for k, v in family.params.items()}
    for cfg, want in (
        ({"classical": name, "N": 8}, family.params),
        ({"classical": name, "N": 100, "nodes": 2 * family.nodes(100), **shifted}, shifted),
    ):
        table, nodes, params = _classical(cfg)
        ens = build_ensemble(cfg)
        assert (table.N, table.q) == (ens.table.N, ens.table.q)
        assert table.N == cfg["N"] and params == want
        assert table.c.dtype == ens.table.c.dtype and table.c.shape == ens.table.c.shape
        assert table.c.tobytes() == ens.table.c.tobytes()
        assert len(ens.measure) <= nodes == cfg.get("nodes", family.nodes(8))


def test_measure_plus_N_ensemble_config():
    cfg = {
        "measure": {"kind": "named", "name": "chebyshev-arcsine", "nodes": 48},
        "N": 3,
        "pad": 4,
    }
    ens = build_ensemble(cfg)
    assert ens.N == 3
    assert ens.biorthogonality_defect() < 1e-9
    assert ens.table.pad == 4


def test_measure_plus_table_ensemble_defaults_to_table_N():
    cfg = {
        "measure": {"kind": "named", "name": "uniform-circle", "n": 16},
        "table": {"form": "banded", "q": 0, "c": [[k, -1, 1.0] for k in range(6)]},
    }
    ens = build_ensemble(cfg)
    assert ens.N == 6
    assert ens.hermitian


def test_attached_table_takes_the_ensemble_N():
    # a table "N" that disagrees with the ensemble's: the table's moments
    # must still be those of the N points the ensemble draws
    cfg = {
        "measure": {"kind": "named", "name": "chebyshev-arcsine", "nodes": 64},
        "table": {"form": "op", "a": [2**-0.5] + [0.5] * 10, "N": 2},
        "N": 5,
    }
    ens = build_ensemble(cfg)
    assert ens.N == ens.table.N == 5 and ens.table.symmetric
    x = ens.measure.points
    want = np.sum(x**2 * ens.kernel_diagonal()) / 5
    assert abs(mean_moment(ens.table, 2) - want) < 1e-12


def test_tilted_ensemble_config():
    cfg = {
        "base": {"classical": "chebyshev", "N": 2, "nodes": 16, "pad": 2},
        "tilt": [[0.05, 0.0], [0.0, 0.05]],
    }
    ens = build_ensemble(cfg)
    assert not ens.hermitian
    assert ens.biorthogonality_defect() < 1e-10


def test_profile_configs():
    g = build_profile({"kind": "gue"})
    assert np.isclose(g(-1, 0.25), 0.5)
    p = build_profile({"kind": "op", "a": "sqrt", "b": 0.5})
    assert np.isclose(p(0, 0.9), 0.5)
    pw = build_profile(
        {"kind": "op", "a": {"s": [0.0, 1.0], "value": [1.0, 3.0]}}
    )
    assert np.isclose(pw(-1, 0.5), 2.0)
    b = build_profile({"kind": "banded", "funcs": {"-1": 1.0, "0": 0.0, "1": "sqrt", "2": 0.25}})
    assert b.q == 2
    with pytest.raises(ConfigError):
        build_profile({"kind": "op"})  # missing 'a'
    with pytest.raises(ConfigError):
        build_profile({"kind": "op", "a": [1, 2, 3]})  # bad function spec
    with pytest.raises(ConfigError):
        build_profile({"kind": "banded", "funcs": {"0": 1.0}})  # no up step
    with pytest.raises(ConfigError):
        build_profile({"kind": "semicircle"})


def test_config_hash_is_order_insensitive():
    h1 = config_hash({"a": 1, "b": [1, 2]})
    h2 = config_hash({"b": [1, 2], "a": 1})
    assert h1 == h2
    assert len(h1) == 12
    assert h1 != config_hash({"a": 2, "b": [1, 2]})


def test_load_config_inline_file_and_errors(tmp_path):
    assert load_config('{"N": 3}') == {"N": 3}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"classical": "gue", "N": 5}))
    assert load_config(str(p))["N"] == 5
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "nope.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(bad))


@pytest.mark.parametrize(
    "cfg, message",
    [
        ({"classical": "gue", "N": 5, "pad": -1}, "pad must be >= 0"),
        ({"classical": "gue", "N": 5, "pad": -3}, "pad must be >= 0"),
        ({"measure": {"kind": "named", "name": "chebyshev-arcsine", "nodes": 64}, "N": 5, "pad": -2},
         "pad must be >= 0"),
        ({"classical": "chebyshev", "N": 5, "nodes": 0}, "nodes must be >= 1"),
    ],
    ids=["classical-pad-1", "classical-pad-3", "measure-pad-2", "nodes-0"],
)
def test_pad_and_nodes_outside_their_range_are_config_errors(cfg, message):
    with pytest.raises(ConfigError, match=message):
        build_ensemble(cfg)


def test_zero_pad_is_in_range():
    for cfg in ({"classical": "gue", "N": 5, "pad": 0},
                {"measure": {"kind": "named", "name": "chebyshev-arcsine", "nodes": 64}, "N": 5, "pad": 0}):
        ens = build_ensemble(cfg)
        assert len(ens.basis) == 6 and ens.table is not None


ARCSINE = {"kind": "named", "name": "chebyshev-arcsine", "nodes": 64}
OP_TABLE = {"form": "op", "a": [2**-0.5] + [0.5] * 6}


@pytest.mark.parametrize(
    "cfg, key",
    [
        ({"classical": "gue", "N": 5, "tilt": 3}, "tilt"),
        ({"classical": "gue", "N": 5, "pads": 3}, "pads"),
        ({"classical": "gue", "N": 5, "alpha": 0.0}, "alpha"),
        ({"measure": {"kind": "named", "name": "chebyshev-arcsine", "nodez": 32}, "N": 5}, "nodez"),
        ({"measure": {"kind": "named", "name": "uniform-circle", "nodes": 32}, "N": 5}, "nodes"),
        ({"measure": ARCSINE, "table": OP_TABLE, "N": 4, "pad": 2}, "pad"),
        ({"measure": ARCSINE, "table": {**OP_TABLE, "q": 1}, "N": 4}, "q"),
        ({"measure": {"kind": "atoms", "points": [0, 1], "weights": [1, 1], "density": [1, 1]}, "N": 1},
         "density"),
        ({"base": {"classical": "chebyshev", "N": 2, "pad": 2}, "tilt": [[0.0, 0.0]] * 2, "N": 2}, "N"),
    ],
    ids=["tilt-without-base", "pads", "gue-alpha", "nodez", "circle-nodes", "table-pad", "op-q",
         "atoms-density", "tilted-N"],
)
def test_keys_the_builder_does_not_read_are_config_errors(cfg, key):
    with pytest.raises(ConfigError, match=f"takes no (key|parameter) '{key}'"):
        build_ensemble(cfg)


def test_profile_keys_it_does_not_read_are_config_errors():
    with pytest.raises(ConfigError, match="takes no key 'a'"):
        build_profile({"kind": "gue", "a": 1.0})
    with pytest.raises(ConfigError, match="takes no key 't'"):
        build_profile({"kind": "op", "a": {"s": [0, 1], "value": [1, 2], "t": [0, 1]}})


def _atoms(points, weights):
    return {"measure": {"kind": "atoms", "points": points, "weights": weights}, "N": 1}


@pytest.mark.parametrize(
    "cfg, field",
    [
        ({"base": {"classical": "gue", "N": 5}, "tilt": [[1, "a"]]}, "tilt"),
        ({"base": {"classical": "gue", "N": 2}, "tilt": [[0.0], [None]]}, "tilt"),
        ({"base": {"classical": "gue", "N": 2}, "tilt": [[0.0], [0.0, 0.0]]}, "tilt"),
        (_atoms([0.0, 1.0], ["x", 1.0]), "atoms 'weights'"),
        (_atoms([0.0, True], [1.0, 1.0]), "atoms 'points'"),
        (_atoms([[0.0, 1.0], "1"], [1.0, 1.0]), "atoms point"),
        ({"measure": {"kind": "grid", "points": [0, "1"], "density": [1, 1]}, "N": 1}, "grid 'points'"),
        ({"measure": {"kind": "grid", "points": [0, 1], "density": [1, [1]]}, "N": 1}, "grid 'density'"),
        ({"measure": ARCSINE, "table": {"form": "op", "a": [0.5, "0.5"]}}, "op table 'a'"),
        ({"measure": ARCSINE, "table": {"form": "op", "a": [0.5, 0.5], "b": 0}}, "op table 'b'"),
        ({"measure": ARCSINE, "table": {"form": "banded", "q": 0, "c": [[0, -1, "1"]]}}, "banded 'c' value"),
        ({"measure": {**ARCSINE, "alpha": "-1"}, "N": 2}, "measure alpha"),
    ],
    ids=["tilt-string", "tilt-null", "tilt-ragged", "atoms-weight", "atoms-bool", "atoms-pair-string",
         "grid-points", "grid-density", "op-a", "op-b", "banded-value", "named-alpha"],
)
def test_non_numeric_fields_are_config_errors_naming_the_field(cfg, field):
    with pytest.raises(ConfigError) as err:
        build_ensemble(cfg)
    assert str(err.value).startswith(field), str(err.value)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -(10**400)], ids=["nan", "inf", "huge-int"])
def test_non_finite_numbers_are_config_errors_naming_the_field(value):
    cases = [
        ({"classical": "chebyshev", "N": 4, "beta": value}, "beta"),
        ({"measure": {"kind": "atoms", "points": [0.0, value], "weights": [1, 1]}, "N": 1}, "atoms 'points'"),
        ({"measure": {**ARCSINE, "alpha": value}, "N": 2}, "measure alpha"),
        ({"measure": ARCSINE, "table": {"form": "banded", "q": 0, "c": [[0, -1, value]]}}, "banded 'c' value"),
    ]
    for cfg, field in cases:
        with pytest.raises(ConfigError, match=f"^{re.escape(field)}.* must be finite"):
            build_ensemble(cfg)
    with pytest.raises(ConfigError, match="^profile b must be finite"):
        build_profile({"kind": "op", "a": 1.0, "b": value})
    with pytest.raises(ConfigError, match=r"^profile a 'value' entry must be finite"):
        build_profile({"kind": "op", "a": {"s": [0, 1], "value": [1, value]}})


@pytest.mark.parametrize("fn", [{"s": [0, "1"], "value": [1, 2]}, {"s": [0, 1], "value": [1, None]}])
def test_non_numeric_profile_tables_are_config_errors_naming_the_field(fn):
    with pytest.raises(ConfigError, match=r"^profile a '(s|value)'"):
        build_profile({"kind": "op", "a": fn})
