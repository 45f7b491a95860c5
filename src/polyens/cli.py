"""Command-line front end.

Subcommands: sample, moments, zeros, gap, variance, limit, verify.
Ensembles are described by JSON configs (a file path, an inline JSON
string, or a classical shorthand like ``gue`` plus --N).  The table
subcommands read a classical config's closed-form table and build no
atoms; only sample and variance --mc draw on them.  Every report
goes through `_emit`, to --out or, when it is missing or ``-``, to stdout.
Point and zero data are streamed as CSV with one record per row after a
single ``#`` provenance comment; scalar reports are JSON, complex values
written as in CSV.  Outputs carry no timestamps, so a fixed seed
reproduces files byte for byte.

Exit codes: 0 ok, 1 usage, 2 config/model/numerical error (an unexpected
exception is reported as ``internal``, also with 2), 3 acceptance failure.
A reader that closes stdout early (``polyens sample ... | head``) ends
the report with 0, not an error.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .errors import ConfigError, PolyensError
from .rng import DEFAULT_SEED
from .config import _classical, build_ensemble, build_profile, config_hash, load_config
from .recurrence import FAMILIES, _mean_moments
from .charpoly import moment_gap, zeros
from .variance import MIN_SAMPLE, cumulants, limiting_variance, variance_power, variance_upper_bound
from .sampler import sample_replicas
from .asymptotics import limit_report
from . import verify as verify_mod

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MODEL = 2
EXIT_ACCEPT = 3

class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract reserves 2 for model
    # errors, so remap.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _ensemble_config(args):
    """The --ensemble config with --N written into classical and measure
    configs and --nodes into classical ones, where build_ensemble reads
    them; any other use of either flag is a ConfigError."""
    raw = args.ensemble
    if raw in FAMILIES:
        if getattr(args, "N", None) is None:
            raise ConfigError(f"shorthand ensemble {raw!r} needs --N")
        cfg = {"classical": raw}
    else:
        cfg = load_config(raw)
        if not isinstance(cfg, dict):
            return cfg  # build_ensemble reports it
    kind = _kind(cfg)
    for flag, kinds in (("N", ("classical", "measure")), ("nodes", ("classical",))):
        value = getattr(args, flag, None)
        if value is not None:
            if kind not in kinds:
                raise ConfigError(f"--{flag} applies to {' and '.join(kinds)} configs, not to a {kind!r} config")
            cfg = {**cfg, flag: value}
    return cfg


def _kind(cfg):
    """The shape of an ensemble config, in build_ensemble's order."""
    return next((k for k in ("base", "classical", "measure") if k in cfg), "unknown")


def _table(args, required=True, build=False):
    """The --ensemble config, the recurrence table the table subcommands read,
    and its ensemble: None for a classical config not asked to build, whose
    table is its closed form (atoms serve only sampling). Another config's
    table is its ensemble's (for an explicit table not orthonormal on real
    atoms, the atoms' own); an ensemble without one is refused if required."""
    cfg = _ensemble_config(args)
    if not build and isinstance(cfg, dict) and _kind(cfg) == "classical":
        return cfg, _classical(cfg)[0], None
    ens = build_ensemble(cfg)
    if required and ens.table is None:
        raise ConfigError("this subcommand needs an ensemble with a recurrence table")
    return cfg, ens.table, ens


def _fmt(v, force_complex=False):
    if force_complex or isinstance(v, complex) or np.iscomplexobj(v):
        z = complex(v)
        return f"{z.real!r}{z.imag:+}j"
    return repr(float(v))


def _csv(cfg, header, rows, seed=None):
    """The lines of a CSV report: provenance, header, then one per row."""
    seed = "" if seed is None else f" seed {seed}"
    yield f"# polyens {__version__} config {config_hash(cfg)}{seed}\n"
    yield ",".join(header) + "\n"
    for row in rows:
        yield ",".join(row) + "\n"


def _json(payload):
    """The text of a JSON report, for _emit; complex values as in CSV."""
    return [json.dumps(payload, indent=2, sort_keys=True, default=_fmt) + "\n"]


def _emit(out, lines):
    """Stream lines to the file out, or to stdout when out is None or "-".
    A closed stdout (flushed here, for reports shorter than its buffer)
    ends the stream, and is pointed at os.devnull for the flush at exit."""
    if out in (None, "-"):
        try:
            sys.stdout.writelines(lines)
            sys.stdout.flush()
        except BrokenPipeError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    try:
        with open(out, "w") as fh:
            fh.writelines(lines)
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc.strerror}") from exc
    return EXIT_OK


def cmd_sample(args):
    cfg = _ensemble_config(args)
    ens = build_ensemble(cfg)
    indices, logs = sample_replicas(ens, args.replicas, seed=args.seed)
    pts = ens.measure.points[indices]
    cplx = ens.measure.is_complex
    header = [f"x_{i}" for i in range(ens.N)] + ["log_density"]
    rows = (
        [_fmt(v, force_complex=cplx) for v in pts[r]] + [_fmt(logs[r])]
        for r in range(args.replicas)
    )
    return _emit(args.out, _csv(cfg, header, rows, seed=args.seed))


def cmd_moments(args):
    cfg, table, ens = _table(args, required=False)
    if table is not None:
        vals = [table.value(m) for m in _mean_moments(table, args.lmax)[1:]]
    else:
        diag = ens.kernel_diagonal()
        x = ens.measure.points
        vals = [np.sum(x**ell * diag) / ens.N for ell in range(1, args.lmax + 1)]
    cplx = any(np.iscomplexobj(v) or isinstance(v, complex) for v in vals)
    rows = [[str(ell), _fmt(v, force_complex=cplx)] for ell, v in enumerate(vals, start=1)]
    return _emit(args.out, _csv(cfg, ["ell", "moment"], rows))


def cmd_zeros(args):
    cfg, table, _ = _table(args)
    zs = zeros(table, lmax=2)
    z = np.asarray(zs.zeros, dtype=complex)
    rows = [[str(i), repr(float(z[i].real)), repr(float(z[i].imag))] for i in range(len(z))]
    return _emit(args.out, _csv(cfg, ["index", "re", "im"], rows))


def cmd_gap(args):
    cfg, table, _ = _table(args)
    table._stored(table.N + args.lmax, "the window reaches index")  # every gap's reads, checked at once
    zs = zeros(table, lmax=args.lmax)
    rows = []
    for ell in range(1, args.lmax + 1):
        r = moment_gap(table, ell, zero_set=zs)
        rows.append([str(ell), repr(float(r.gap)), repr(float(r.bound))])
    return _emit(args.out, _csv(cfg, ["ell", "gap", "bound"], rows))


def cmd_variance(args):
    # a Monte Carlo run draws the ensemble, so it must carry the table read
    cfg, table, ens = _table(args, build=bool(args.mc))
    ell = args.power
    table._stored(table.N + ell, "the window reaches index")  # the bound's window, the query's widest read
    payload = {
        "polyens": __version__,
        "config": config_hash(cfg),
        "power": ell,
        "exact": variance_power(table, ell),
        "bound": float(variance_upper_bound(table, ell)),
        "limiting": None,
        "mc": None,
    }
    if table.symmetric:
        a_edge, b_edge = float(table.a[table.N - 1]), float(table.b[table.N - 1])
        payload["limiting"] = float(limiting_variance(lambda x: x**ell, a=a_edge, b=b_edge))
    if args.mc:
        if ens.measure.is_complex:
            raise ConfigError("--mc needs a real-supported ensemble")
        vals, _ = sample_replicas(
            ens, args.mc, seed=args.seed, statistic=lambda pts: float(np.sum(pts**ell))
        )
        rep = cumulants(vals)
        payload["mc"] = {
            "replicas": args.mc,
            "seed": args.seed,
            "estimate": float(rep.variance),
            "se": float(rep.se[2]),
        }
    return _emit(args.out, _json(payload))


def cmd_limit(args):
    cfg, table, _ = _table(args)
    profile = build_profile(load_config(args.profile))
    rows = []
    for row in limit_report(table, profile, args.lmax):
        rows.append(
            [
                str(row.ell),
                _fmt(row.finite_moment),
                _fmt(row.limit_moment),
                repr(float(row.gap)),
            ]
        )
    return _emit(args.out, _csv(cfg, ["ell", "finite_moment", "limit_moment", "gap"], rows))


def cmd_verify(args):
    results = verify_mod.run_all(
        quick=args.quick,
        seed=args.seed,
        only=args.only or None,
        progress=lambda r: print(r.line(), file=sys.stderr),
    )
    payload = {
        "polyens": __version__,
        "seed": args.seed,
        "quick": bool(args.quick),
        "passed": all(r.passed for r in results),
        "criteria": [
            {
                "number": r.number,
                "name": r.name,
                "passed": r.passed,
                "detail": r.detail,
                "seconds": round(r.seconds, 2),
            }
            for r in results
        ],
    }
    _emit(args.out, _json(payload))
    return EXIT_OK if payload["passed"] else EXIT_ACCEPT


def _at_least(least):
    """argparse type: a whole number >= least."""

    def parse(text):
        try:
            n = int(text)
        except ValueError:
            n = least - 1
        if n < least:
            raise argparse.ArgumentTypeError(f"expected a whole number >= {least}, got {text!r}")
        return n

    return parse


_count = _at_least(0)
_positive = _at_least(1)


def _replicas(text):
    """argparse type of --mc: 0 (skip), or the MIN_SAMPLE replicas cumulants need."""
    n = _count(text)
    if 0 < n < MIN_SAMPLE:
        raise argparse.ArgumentTypeError(f"expected 0 or a whole number >= {MIN_SAMPLE}, got {text!r}")
    return n


def _add_ensemble_opts(p):
    p.add_argument("--ensemble", required=True, help=f"config path, inline JSON, or {'/'.join(FAMILIES)}")
    p.add_argument("--N", type=int, default=None, help="points; overrides the config")
    p.add_argument("--nodes", type=int, default=None, help="quadrature nodes of a classical ensemble")
    p.add_argument("--out", default=None, help="output file (default stdout)")


def build_parser():
    top = _Parser(prog="polyens", description=__doc__.splitlines()[0])
    top.add_argument("--version", action="version", version=f"polyens {__version__}")
    sub = top.add_subparsers(dest="subcommand", required=True, metavar="subcommand")

    p = sub.add_parser("sample", help="draw replica configurations to CSV")
    _add_ensemble_opts(p)
    p.add_argument("--replicas", type=_count, default=1)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("moments", help="mean empirical moments to CSV")
    _add_ensemble_opts(p)
    p.add_argument("--lmax", type=_positive, default=8)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("zeros", help="zeros of the average characteristic polynomial to CSV")
    _add_ensemble_opts(p)
    p.set_defaults(func=cmd_zeros)

    p = sub.add_parser("gap", help="moment gap vs bound per power to CSV")
    _add_ensemble_opts(p)
    p.add_argument("--lmax", type=_positive, default=4)
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser("variance", help="linear-statistic variance report as JSON")
    _add_ensemble_opts(p)
    p.add_argument("--power", type=_positive, default=1)
    p.add_argument("--mc", type=_replicas, default=0, help="Monte Carlo replicas, 0 or >= 5 (0 = skip)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_variance)

    p = sub.add_parser("limit", help="finite-N vs limit moment report to CSV")
    _add_ensemble_opts(p)
    p.add_argument("--profile", required=True, help="profile config path or inline JSON")
    p.add_argument("--lmax", type=_positive, default=8)
    p.set_defaults(func=cmd_limit)

    p = sub.add_parser("verify", help="run the acceptance suite, emit pass/fail JSON")
    p.add_argument("--quick", action="store_true", help="smoke run with reduced replica counts")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    numbers = [number for number, _, _ in verify_mod.CRITERIA]
    p.add_argument("--only", type=int, choices=numbers, action="append", metavar="NUMBER",
                   help=f"criterion number {numbers[0]}..{numbers[-1]} (repeatable)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)
    return top


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse --help/--version or usage error
        return exc.code if exc.code is not None else EXIT_OK
    except (PolyensError, ValueError) as exc:  # numpy's LinAlgError is a ValueError
        print(f"polyens: error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except Exception as exc:  # a defect, still reported in the one-line contract
        print(f"polyens: error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_MODEL


if __name__ == "__main__":
    sys.exit(main())
