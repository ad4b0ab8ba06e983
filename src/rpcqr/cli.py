"""Experiment command-line interface.

Subcommands: run (a sweep of any config) and bounds.  Options given on the
command line override values from ``--config``.  Exit codes: 0 on success,
1 for configuration errors, 2 for I/O errors; breakdowns inside a sweep are
recorded in the output and do not affect the exit code.
"""

import argparse
import sys
from dataclasses import fields, replace

from .bounds import (PerturbationSet, _stage_fields, first_order_bounds,
                     preconditioned_bounds)
from .errors import DomainError
from .harness import (
    MATRIX_KINDS,
    METHODS,
    ConfigError,
    ExperimentConfig,
    _read_config,
    emit_csv,
    format_summary,
    run_experiment,
)


def _int_list(text):
    try:
        values = [int(v) for v in text.split(",") if v]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints: {text}")
    return values


def _build_config(args):
    """``--config``'s file or defaults, with the flags applied, then validated.

    ``--n``, ``--c`` and ``--method`` replace the file's ``n``, ``c_list``
    and ``method``, each with the flag's list of one or more values.
    """
    base = _read_config(args.config) if args.config else ExperimentConfig()
    flags = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)
             if getattr(args, f.name) is not None}
    return replace(base, **flags).validate()


def _run_experiment(args):
    config = _build_config(args)
    path = args.out
    if path:  # an unwritable path fails before any trial runs
        try:
            open(path, "a").close()
        except OSError as exc:
            raise OSError(f"{path}: cannot write CSV: {exc}") from exc
    rows = run_experiment(config)
    print(format_summary(config, rows))
    if path:
        emit_csv(rows, path)
        print(f"wrote {len(rows)} rows to {path}")
    return 0


def _run_bounds(args):
    base = args.eps if args.eps is not None else 0.0
    p = PerturbationSet(kappa_precond=args.kappa_rs, **{
        name: base if getattr(args, name) is None else getattr(args, name)
        for name in _stage_fields()})
    if args.first_order:
        b = first_order_bounds(p, args.kappa_a1, args.eta)
    else:
        b = preconditioned_bounds(p, args.kappa_a1, args.eta)
    for f in fields(b):
        print(f"{f.name}={getattr(b, f.name)}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rpcqr",
        description="Randomized preconditioned Cholesky-QR experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser(
        "run", help="run a sweep: every method at every (n, c) point")
    # Each dest but --config's and --out's names the ExperimentConfig
    # field it sets.
    p.add_argument("--config", metavar="PATH", help="JSON config file")
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=_int_list,
                   help="column count, or a comma-separated list of them")
    p.add_argument("--c", type=_int_list, dest="c_list",
                   help="sampling amount, or a comma-separated list of them")
    p.add_argument("--kappa", type=float)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int, dest="master_seed", help="master seed")
    p.add_argument("--matrix", choices=sorted(MATRIX_KINDS),
                   dest="matrix_kind")
    p.add_argument("--method", type=lambda text: text.split(","),
                   help=f"one of {', '.join(METHODS)}, or a comma-separated "
                        "list of them")
    p.add_argument("--out", metavar="PATH", help="CSV output path")
    p.add_argument("--jobs", type=int, help="worker processes for the points")

    b = sub.add_parser("bounds", help="evaluate the perturbation bounds")
    b.add_argument("--eps", type=float, help="value for all stage perturbations")
    for name in _stage_fields():  # --eps-<stage>, dest eps_<stage>
        b.add_argument("--" + name.replace("_", "-"), type=float)
    b.add_argument("--kappa-rs", type=float, default=1.0,
                   help="condition number of the preconditioner")
    b.add_argument("--kappa-a1", type=float, required=True,
                   help="condition number of the preconditioned matrix")
    b.add_argument("--eta", type=float, default=1.0)
    b.add_argument("--first-order", action="store_true")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "bounds":
            return _run_bounds(args)
        return _run_experiment(args)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
