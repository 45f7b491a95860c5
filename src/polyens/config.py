"""JSON configuration for measures, recurrence tables, and ensembles.

The command-line tool describes inputs as small JSON documents.  Three
shapes are understood:

measure::

    {"kind": "named", "name": "chebyshev-arcsine", "alpha": -1, "beta": 1}
    {"kind": "atoms", "points": [...], "weights": [...]}
    {"kind": "grid", "points": [...], "density": [...]}

table::

    {"form": "op", "a": [...], "b": [...]}
    {"form": "banded", "q": 2, "K": 12, "c": [[k, j, value], ...]}

ensemble::

    {"classical": "gue", "N": 50}                # closed-form table; sampling atoms must carry it
    {"measure": {...}, "N": 20}                  # table built from real atoms
    {"measure": {...}, "table": {...}, "N": 20}  # explicit recurrence; the atoms' own
                                                 # table where it is not orthonormal on real atoms
    {"base": {...}, "tilt": [[...], ...]}        # non-orthogonal Q family

Banded ``c`` entries are triplets ``[k, j, value]`` where ``j = -1`` is the
coefficient on the step up and ``j = 0..q`` the steps down.

A key that a shape does not read, and an entry of a numeric field that is
not a number, are ConfigErrors that name the key or the field.
"""

import hashlib
import json
import numbers
import sys

import numpy as np

from .errors import ConfigError, OrthogonalityError
from .measure import atoms_measure, grid_measure, named_measure
from .recurrence import DEFAULT_PAD, FAMILIES, banded_table, classical_table, op_table
from .ensemble import PolynomialEnsemble
from .asymptotics import CoefficientProfile, gue_profile, op_profile
from .rng import stream

# a tilted config's kernel minors are scanned for positivity on this stream,
# so the same config always passes or always fails
TILT_CHECK_SEED = 0


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def _integer(value, what, least=None):
    """An integer field, at least `least`; null, arrays, strings, booleans
    and fractional numbers are config errors."""
    whole = isinstance(value, numbers.Integral) or (isinstance(value, float) and value.is_integer())
    _require(whole and not isinstance(value, bool), f"{what} must be an integer, got {value!r}")
    _require(least is None or value >= least, f"{what} must be >= {least}")
    return int(value)


def _number(value, what):
    """A finite real-number field; null, arrays, strings, booleans, the NaN
    and Infinity literals that Python's json reads and integers too large for
    a float are config errors."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    _require(real, f"{what} must be a number, got {value!r}")
    _require(abs(value) <= sys.float_info.max, f"{what} must be finite, got {value!r}")
    return float(value)


def _reals(value, what):
    """A JSON array of real numbers, or of such arrays, as a float array;
    any other entry, or rows of unequal length, are config errors naming
    the field."""
    _require(isinstance(value, list), f"{what} must be an array, got {value!r}")
    todo = list(value)
    while todo:
        v = todo.pop()
        if isinstance(v, list):
            todo.extend(v)
        else:
            _number(v, f"{what} entry")
    try:
        return np.asarray(value, dtype=float)
    except ValueError:
        raise ConfigError(f"{what} rows must be of equal length") from None


def _point(p):
    """A measure atom: a number, or an [re, im] pair of numbers."""
    if isinstance(p, list):
        _require(len(p) == 2, f"atoms point {p!r} must be a number or an [re, im] pair")
        return complex(_number(p[0], "atoms point re"), _number(p[1], "atoms point im"))
    return complex(_number(p, "atoms point"))


def _as_dict(obj, what):
    _require(isinstance(obj, dict), f"{what} config must be a JSON object, got {type(obj).__name__}")
    return obj


def _only(cfg, what, keys):
    """Refuse a key that the builder does not read: misspelt or misplaced,
    it would be dropped silently, and the config mean something else."""
    for k in cfg:
        _require(k in keys, f"{what} config takes no key {k!r}")


def build_measure(cfg):
    """Construct a ReferenceMeasure from its JSON description."""
    cfg = _as_dict(cfg, "measure")
    kind = cfg.get("kind")
    _require(kind in ("named", "atoms", "grid"), f"unknown measure kind {kind!r}")
    if kind == "named":
        _require("name" in cfg, "named measure needs a 'name' field")
        params = {  # N, nodes and n count atoms
            k: _integer(v, f"measure {k}", 1) if k in ("N", "nodes", "n") else _number(v, f"measure {k}")
            for k, v in cfg.items()
            if k not in ("kind", "name")
        }
        try:
            return named_measure(cfg["name"], **params)
        except ValueError as exc:
            raise ConfigError(f"bad named measure: {exc}") from exc
    if kind == "atoms":
        _only(cfg, "atoms measure", ("kind", "points", "weights"))
        _require("points" in cfg and "weights" in cfg, "atoms measure needs 'points' and 'weights'")
        _require(isinstance(cfg["points"], list), "atoms measure 'points' must be an array")
        if any(isinstance(p, list) for p in cfg["points"]):
            # [re, im] pairs for circle-like supports
            points = np.asarray([_point(p) for p in cfg["points"]])
        else:
            points = _reals(cfg["points"], "atoms 'points'")
        return atoms_measure(points, _reals(cfg["weights"], "atoms 'weights'"))
    _only(cfg, "grid measure", ("kind", "points", "density"))
    _require("points" in cfg and "density" in cfg, "grid measure needs 'points' and 'density'")
    return grid_measure(_reals(cfg["points"], "grid 'points'"), _reals(cfg["density"], "grid 'density'"))


def build_table(cfg, N=None):
    """Construct a RecurrenceTable from its JSON description."""
    cfg = _as_dict(cfg, "table")
    form = cfg.get("form")
    _require(form in ("op", "banded"), f"unknown table form {form!r}")
    if form == "op":
        _only(cfg, "op table", ("form", "a", "b", "N"))
        _require("a" in cfg, "op table needs an 'a' array")
        a = _reals(cfg["a"], "op table 'a'")
        b = _reals(cfg["b"], "op table 'b'") if "b" in cfg else np.zeros(a.size)
        n = _integer(cfg.get("N", N if N is not None else a.size), "table N", 1)
        return op_table(a, b, n)
    _only(cfg, "banded table", ("form", "q", "K", "c", "N"))
    _require("q" in cfg and "c" in cfg, "banded table needs 'q' and 'c'")
    q = _integer(cfg["q"], "banded table q", 0)
    _require(isinstance(cfg["c"], list) and len(cfg["c"]) > 0, "banded table needs at least one 'c' entry")
    for entry in cfg["c"]:
        _require(isinstance(entry, list) and len(entry) in (3, 4), "banded 'c' entries are [k, j, value] or [k, j, re, im]")
    rows = [_integer(e[0], "banded 'c' row") for e in cfg["c"]]
    K = _integer(cfg.get("K", max(rows)), "banded table K", 0)
    c = np.zeros((K + 1, q + 2))
    complex_seen = False
    for entry in cfg["c"]:
        k, j = _integer(entry[0], "banded 'c' row"), _integer(entry[1], "banded 'c' step")
        _require(0 <= k <= K, f"banded 'c' row {k} outside 0..{K}")
        _require(-1 <= j <= q, f"banded 'c' step {j} outside -1..{q}")
        val = _number(entry[2], "banded 'c' value")
        if len(entry) == 4:
            val = complex(val, _number(entry[3], "banded 'c' imaginary part"))
            complex_seen = True
        if complex_seen and not np.iscomplexobj(c):
            c = c.astype(complex)
        c[k, j + 1] = val
    n = _integer(cfg.get("N", N if N is not None else K + 1), "table N", 1)
    return banded_table(c, q, n)


def _classical(cfg):
    """A classical ensemble config, checked: its closed-form table, and the
    node count and family parameters (defaults filled in) of the atoms that
    carry it when the ensemble is built."""
    name = cfg["classical"]
    _require(isinstance(name, str) and name in FAMILIES, f"unknown classical ensemble {name!r}")
    family = FAMILIES[name]
    _only(cfg, f"{name} ensemble", ("classical", "N", "nodes", "pad", *family.params))
    _require("N" in cfg, "classical ensemble needs 'N'")
    N = _integer(cfg["N"], "ensemble N", 1)
    nodes = _integer(cfg.get("nodes", family.nodes(N)), "nodes", 1)
    params = {k: _number(cfg.get(k, v), k) for k, v in family.params.items()}
    pad = _integer(cfg.get("pad", DEFAULT_PAD), "pad", 0)
    return classical_table(name, N, pad=pad, **params), nodes, params


def build_ensemble(cfg):
    """Construct a PolynomialEnsemble from its JSON description."""
    cfg = _as_dict(cfg, "ensemble")
    if "base" in cfg:
        _only(cfg, "tilted ensemble", ("base", "tilt"))
        _require("tilt" in cfg, "tilted ensemble needs a 'tilt' matrix")
        base = build_ensemble(cfg["base"])
        tilt = _reals(cfg["tilt"], "tilt")
        return base.tilt_nonorthogonal(tilt, validate=True, rng=stream(TILT_CHECK_SEED))
    if "classical" in cfg:
        table, nodes, params = _classical(cfg)
        name, N = cfg["classical"], table.N
        measure = FAMILIES[name].atoms(N, nodes, **params)
        try:
            return PolynomialEnsemble.from_table(table, measure, N=N, name=name)
        except OrthogonalityError as exc:  # these atoms do not carry the named ensemble
            raise OrthogonalityError(f"{name} N={N} on {nodes} nodes: {exc}") from None
    _require("measure" in cfg, "ensemble needs 'classical', 'measure', or 'base'")
    _only(cfg, "measure ensemble", ("measure", "table", "N") if "table" in cfg else ("measure", "N", "pad"))
    measure = build_measure(cfg["measure"])
    if "table" in cfg:
        N = _integer(cfg["N"], "ensemble N") if "N" in cfg else None
        table = build_table(cfg["table"], N=N)
        try:
            return PolynomialEnsemble.from_table(table, measure, N=N)
        except OrthogonalityError:  # P spans the polynomials of degree < N: the OP ensemble's span
            if measure.is_complex:
                raise
            N = table.N if N is None else N
            pad = max(min(table.top, measure.distinct_atoms - 2) - N, -1)  # Lanczos needs N + pad + 2 atoms
            return PolynomialEnsemble.from_measure(measure, N, pad=pad)
    _require(not measure.is_complex, "a measure ensemble on complex atoms needs an explicit 'table'; for "
             'the uniform circle, use {"classical": "uniform-circle", "N": ...}')
    _require("N" in cfg, "ensemble needs 'N'")
    N = _integer(cfg["N"], "ensemble N", 1)
    return PolynomialEnsemble.from_measure(measure, N, pad=_integer(cfg.get("pad", DEFAULT_PAD), "pad", 0))


def _profile_fn(raw, label):
    if isinstance(raw, numbers.Real):
        return _number(raw, f"profile {label}")
    if raw == "sqrt":
        return np.sqrt
    if isinstance(raw, dict) and "s" in raw and "value" in raw:
        _only(raw, f"profile {label}", ("s", "value"))
        s = _reals(raw["s"], f"profile {label} 's'")
        v = _reals(raw["value"], f"profile {label} 'value'")
        _require(
            s.ndim == 1 and s.shape == v.shape and s.size >= 2 and np.all(np.diff(s) > 0),
            f"profile {label}: piecewise-linear table needs increasing 's' and matching 'value'",
        )
        return lambda u, s=s, v=v: np.interp(u, s, v)
    raise ConfigError(f"profile {label} must be a number, \"sqrt\", or a {{'s', 'value'}} table")


def build_profile(cfg):
    """Construct a CoefficientProfile from its JSON description.

    {"kind": "gue"} | {"kind": "op", "a": <fn>, "b": <fn>} |
    {"kind": "banded", "funcs": {"-1": <fn>, "0": <fn>, ...}}
    where <fn> is a constant, "sqrt", or a piecewise-linear
    {"s": [...], "value": [...]} table.
    """
    cfg = _as_dict(cfg, "profile")
    kind = cfg.get("kind")
    _require(kind in ("gue", "op", "banded"), f"unknown profile kind {kind!r}")
    _only(cfg, f"{kind} profile", {"gue": ("kind",), "op": ("kind", "a", "b"), "banded": ("kind", "funcs")}[kind])
    if kind == "gue":
        return gue_profile()
    if kind == "op":
        _require("a" in cfg, "op profile needs 'a'")
        return op_profile(_profile_fn(cfg["a"], "a"), _profile_fn(cfg.get("b", 0.0), "b"))
    _require("funcs" in cfg and isinstance(cfg["funcs"], dict), "banded profile needs a 'funcs' object")
    for j in cfg["funcs"]:
        _require(j.removeprefix("-").isdecimal(), f"profile funcs key {j!r} must be an integer step index")
    funcs = {int(j): _profile_fn(f, f"funcs[{j}]") for j, f in cfg["funcs"].items()}
    try:
        return CoefficientProfile(funcs)
    except ValueError as exc:
        raise ConfigError(f"bad profile: {exc}") from exc


def config_hash(cfg):
    """Short stable digest of a config document, for output provenance."""
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


def load_config(path_or_json):
    """Parse a config from a file path or an inline JSON string."""
    text = path_or_json
    try:
        return json.loads(text)
    except (json.JSONDecodeError, TypeError):
        pass
    try:
        with open(path_or_json) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config is neither valid JSON nor a readable file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path_or_json} is not valid JSON: {exc}") from exc
