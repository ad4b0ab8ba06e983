"""Experiment command-line interface.

Subcommands: single, sweep-c, sweep-n, compare-cqr2, bounds.  Options given
on the command line override values from ``--config``.  Exit codes: 0 on
success, 1 for configuration errors, 2 for I/O errors; breakdowns inside a
sweep are recorded in the output and do not affect the exit code.
"""

import argparse
import sys

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
# The stages of a PerturbationSet, each a --eps-<stage> option of `bounds`.
_STAGES = ("input", "precond", "gram", "cholesky", "solve", "recover")


def _int_list(text):
    try:
        values = [int(v) for v in text.split(",") if v]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints: {text}")
    return values


def _add_experiment_args(p):
    p.add_argument("--config", metavar="PATH", help="JSON config file")
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=_int_list,
                   help="column count (comma-separated list for sweep-n)")
    p.add_argument("--c", type=_int_list,
                   help="sampling amount (comma-separated list for sweep-c)")
    p.add_argument("--kappa", type=float)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--matrix", choices=sorted(_MATRIX_ALIASES))
    p.add_argument("--method", choices=sorted(METHODS))
    p.add_argument("--out", metavar="PATH", help="CSV output path")


def _build_config(args, experiment):
    if args.config:
        config = load_config(args.config)
        config.experiment = experiment
    else:
        config = ExperimentConfig(experiment=experiment)
    if args.m is not None:
        config.m = args.m
    if args.n is not None:
        if experiment == "sweep_n" or len(args.n) > 1:
            config.n_list = args.n
        else:
            config.n = args.n[0]
    if args.c is not None:
        if experiment == "sweep_c" or len(args.c) > 1:
            config.c_list = args.c
        else:
            config.c = args.c[0]
    if args.kappa is not None:
        config.kappa = args.kappa
    if args.trials is not None:
        config.trials = args.trials
    if args.seed is not None:
        config.master_seed = args.seed
    if args.matrix is not None:
        config.matrix_kind = _MATRIX_ALIASES[args.matrix]
    if args.method is not None:
        config.method = args.method
    if args.out is not None:
        config.output_path = args.out
    return config.validate()


def _run_experiment(args, experiment):
    config = _build_config(args, experiment)
    rows, summaries = run_experiment(config)
    if experiment == "single":
        print(" ".join(f"{key}={rows[0][key]}" for key in (
            "method", "breakdown", "deviation", "residual", "kappa_A1", "eta")))
    else:
        print(format_summary(summaries))
    if config.output_path:
        emit_csv(rows, config.output_path)
        print(f"wrote {len(rows)} rows to {config.output_path}")
    return 0


def _run_bounds(args):
    base = args.eps if args.eps is not None else 0.0
    eps = {f"eps_{stage}": getattr(args, f"eps_{stage}") for stage in _STAGES}
    p = PerturbationSet(kappa_precond=args.kappa_rs, **{
        name: base if value is None else value for name, value in eps.items()})
    if args.first_order:
        b = first_order_bounds(p, args.kappa_a1, args.eta)
    else:
        b = preconditioned_bounds(p, args.kappa_a1, args.eta)
    print(f"assumption_ok={b.assumption_ok}")
    print(f"cond_factor={b.cond_factor}")
    print(f"ortho_bound={b.ortho_bound}")
    print(f"residual_bound={b.residual_bound}")
    print(f"eta={b.eta}")
    print(f"kappa_preconditioned={b.kappa_preconditioned}")
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
    for stage in _STAGES:
        b.add_argument(f"--eps-{stage}", type=float, dest=f"eps_{stage}")
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
        return _run_experiment(args, args.experiment)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
