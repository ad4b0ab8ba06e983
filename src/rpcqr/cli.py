"""Experiment command-line interface.

Subcommands: single, sweep-c, sweep-n, compare-cqr2, bounds.  Options given
on the command line override values from ``--config``.  Exit codes: 0 on
success, 1 for configuration errors, 2 for I/O errors; breakdowns inside a
sweep are recorded in the output and do not affect the exit code.
"""

import argparse
import sys
from dataclasses import fields, replace

from .bounds import PerturbationSet, first_order_bounds, preconditioned_bounds
from .errors import DomainError
from .harness import (
    EXPERIMENTS,
    MATRIX_KINDS,
    METHODS,
    ConfigError,
    ExperimentConfig,
    emit_csv,
    format_summary,
    load_config,
    run_experiment,
)

# Short --matrix names: the first word of each kind ("worst", "haar").
_MATRIX_ALIASES = {kind.split("_")[0]: kind for kind in MATRIX_KINDS}


def _int_list(text):
    try:
        values = [int(v) for v in text.split(",") if v]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints: {text}")
    return values


def _add_experiment_args(p):
    # Each dest but --config's names the ExperimentConfig field it sets.
    p.add_argument("--config", metavar="PATH", help="JSON config file")
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=_int_list,
                   help="column count (comma-separated list for sweep-n)")
    p.add_argument("--c", type=_int_list,
                   help="sampling amount (comma-separated list for sweep-c)")
    p.add_argument("--kappa", type=float)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int, dest="master_seed", help="master seed")
    p.add_argument("--matrix", choices=sorted(_MATRIX_ALIASES),
                   dest="matrix_kind")
    p.add_argument("--method", choices=sorted(METHODS))
    p.add_argument("--out", metavar="PATH", dest="output_path",
                   help="CSV output path")


def _build_config(args):
    """``--config``'s file (or the defaults), overridden by the given flags.

    ``--n``/``--c`` set ``n_list``/``c_list`` for their own sweep or when
    given several values, and ``n``/``c`` otherwise.
    """
    flags = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)
             if getattr(args, f.name, None) is not None}
    for key in ("n", "c"):
        if key in flags:
            values = flags.pop(key)
            if args.experiment == f"sweep_{key}" or len(values) > 1:
                flags[f"{key}_list"] = values
            else:
                flags[key] = values[0]
    if "matrix_kind" in flags:
        flags["matrix_kind"] = _MATRIX_ALIASES[flags["matrix_kind"]]
    base = (load_config(args.config) if args.config
            else ExperimentConfig(args.experiment))
    return replace(base, **flags).validate()


def _run_experiment(args):
    config = _build_config(args)
    path = config.output_path
    if path:  # an unwritable path fails before any trial runs
        try:
            open(path, "a").close()
        except OSError as exc:
            raise OSError(f"{path}: cannot write CSV: {exc}") from exc
    rows = run_experiment(config)
    if config.experiment == "single":
        print(" ".join(f"{key}={rows[0][key]}" for key in (
            "method", "breakdown", "deviation", "residual", "kappa_A1", "eta")))
    else:
        print(format_summary(config, rows))
    if path:
        emit_csv(rows, path)
        print(f"wrote {len(rows)} rows to {path}")
    return 0


def _run_bounds(args):
    base = args.eps if args.eps is not None else 0.0
    p = PerturbationSet(kappa_precond=args.kappa_rs, **{
        name: base if value is None else value
        for name, value in vars(args).items() if name.startswith("eps_")})
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
    for experiment in EXPERIMENTS:
        p = sub.add_parser(experiment.replace("_", "-"))
        _add_experiment_args(p)
        p.set_defaults(experiment=experiment)

    b = sub.add_parser("bounds", help="evaluate the perturbation bounds")
    b.add_argument("--eps", type=float, help="value for all stage perturbations")
    for f in fields(PerturbationSet):  # --eps-<stage>, dest eps_<stage>
        if f.name.startswith("eps_"):
            b.add_argument("--" + f.name.replace("_", "-"), type=float)
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
