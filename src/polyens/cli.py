"""Command-line front end.

Subcommands: sample, moments, zeros, gap, variance, limit, verify.
Ensembles are described by JSON configs (a file path, an inline JSON
string, or a classical shorthand like ``gue`` plus --N).  Point and zero
data are emitted as CSV with one record per row after a single ``#``
provenance comment; scalar reports are JSON.  Outputs carry no
timestamps, so a fixed seed reproduces files byte for byte.

Exit codes: 0 ok, 1 usage, 2 config/model/numerical error (an unexpected
exception is reported as ``internal``, also with 2), 3 acceptance failure.
"""

import argparse
import json
import sys

import numpy as np

from . import __version__
from .errors import ConfigError, PolyensError
from .rng import DEFAULT_SEED
from .config import CLASSICAL_NAMES, build_ensemble, build_profile, config_hash, load_config
from .recurrence import mean_moment
from .charpoly import moment_gap, zeros
from .variance import cumulants, limiting_variance, variance_power, variance_upper_bound
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
        raise SystemExit(self._usage_exit(message))

    def _usage_exit(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        return EXIT_USAGE


def _ensemble_config(args):
    """The --ensemble config with --N written into classical and measure
    configs and --nodes into classical ones, where build_ensemble reads
    them; any other use of either flag is a ConfigError."""
    raw = args.ensemble
    if raw in CLASSICAL_NAMES:
        if getattr(args, "N", None) is None:
            raise ConfigError(f"shorthand ensemble {raw!r} needs --N")
        cfg = {"classical": raw}
    else:
        cfg = load_config(raw)
        if not isinstance(cfg, dict):
            return cfg  # build_ensemble reports it
    kind = next((k for k in ("base", "classical", "measure") if k in cfg), "unknown")
    for flag, kinds in (("N", ("classical", "measure")), ("nodes", ("classical",))):
        value = getattr(args, flag, None)
        if value is not None:
            if kind not in kinds:
                raise ConfigError(f"--{flag} applies to {' and '.join(kinds)} configs, not to a {kind!r} config")
            cfg = {**cfg, flag: value}
    return cfg


def _open_out(path):
    if path in (None, "-"):
        return sys.stdout, False
    try:
        return open(path, "w"), True
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc


def _fmt(v, force_complex=False):
    if force_complex or isinstance(v, complex) or np.iscomplexobj(v):
        z = complex(v)
        return f"{z.real!r}{z.imag:+}j"
    return repr(float(v))


def _write_csv(out, header, rows, provenance):
    fh, close = _open_out(out)
    try:
        fh.write(f"# {provenance}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
    finally:
        if close:
            fh.close()
    return EXIT_OK


def _write_json(out, payload):
    fh, close = _open_out(out)
    try:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    finally:
        if close:
            fh.close()
    return EXIT_OK


def _need_table(ens):
    if ens.table is None:
        raise ConfigError("this subcommand needs an ensemble with a recurrence table")
    return ens.table


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
    prov = f"polyens {__version__} config {config_hash(cfg)} seed {args.seed}"
    return _write_csv(args.out, header, rows, prov)


def cmd_moments(args):
    cfg = _ensemble_config(args)
    ens = build_ensemble(cfg)
    if ens.table is not None:
        vals = [mean_moment(ens.table, ell) for ell in range(1, args.lmax + 1)]
    else:
        diag = ens.kernel_diagonal()
        x = ens.measure.points
        w = ens.measure.weights
        vals = [np.sum(x**ell * diag * w) / ens.N for ell in range(1, args.lmax + 1)]
    cplx = any(np.iscomplexobj(v) or isinstance(v, complex) for v in vals)
    rows = [[str(ell), _fmt(v, force_complex=cplx)] for ell, v in enumerate(vals, start=1)]
    prov = f"polyens {__version__} config {config_hash(cfg)}"
    return _write_csv(args.out, ["ell", "moment"], rows, prov)


def cmd_zeros(args):
    cfg = _ensemble_config(args)
    table = _need_table(build_ensemble(cfg))
    zs = zeros(table, lmax=2)
    z = np.asarray(zs.zeros, dtype=complex)
    rows = [[str(i), repr(float(z[i].real)), repr(float(z[i].imag))] for i in range(len(z))]
    prov = f"polyens {__version__} config {config_hash(cfg)}"
    return _write_csv(args.out, ["index", "re", "im"], rows, prov)


def cmd_gap(args):
    cfg = _ensemble_config(args)
    table = _need_table(build_ensemble(cfg))
    zs = zeros(table, lmax=args.lmax)
    rows = []
    for ell in range(1, args.lmax + 1):
        r = moment_gap(table, ell, zero_set=zs)
        rows.append([str(ell), repr(float(r.gap)), repr(float(r.bound))])
    prov = f"polyens {__version__} config {config_hash(cfg)}"
    return _write_csv(args.out, ["ell", "gap", "bound"], rows, prov)


def cmd_variance(args):
    cfg = _ensemble_config(args)
    ens = build_ensemble(cfg)
    table = _need_table(ens)
    ell = args.power
    payload = {
        "polyens": __version__,
        "config": config_hash(cfg),
        "power": ell,
        "exact": float(variance_power(table, ell)),
        "bound": float(variance_upper_bound(table, ell)),
    }
    if table.symmetric:
        a_edge, b_edge = float(table.a[table.N - 1]), float(table.b[table.N - 1])
        payload["limiting"] = float(limiting_variance(lambda x: x**ell, a=a_edge, b=b_edge))
    else:
        payload["limiting"] = None
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
    else:
        payload["mc"] = None
    return _write_json(args.out, payload)


def cmd_limit(args):
    cfg = _ensemble_config(args)
    table = _need_table(build_ensemble(cfg))
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
    prov = f"polyens {__version__} config {config_hash(cfg)}"
    return _write_csv(args.out, ["ell", "finite_moment", "limit_moment", "gap"], rows, prov)


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
    _write_json(args.out, payload)
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


def _add_ensemble_opts(p, with_N=True):
    p.add_argument("--ensemble", required=True, help="config path, inline JSON, or gue/chebyshev/circle")
    if with_N:
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
    p.add_argument("--mc", type=_count, default=0, help="Monte Carlo replicas (0 = skip)")
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
    except PolyensError as exc:
        print(f"polyens: error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except (ValueError, np.linalg.LinAlgError) as exc:
        print(f"polyens: error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except Exception as exc:  # a defect, still reported in the one-line contract
        print(f"polyens: error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_MODEL


if __name__ == "__main__":
    sys.exit(main())
