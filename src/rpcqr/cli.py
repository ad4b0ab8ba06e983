"""Experiment command-line interface.

Subcommands: sweep-c, sweep-n, compare-cqr2, bounds.  Options given on the
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
    EXPERIMENTS,
    MATRIX_KINDS,
    METHODS,
    ConfigError,
    ExperimentConfig,
    _read_config,
    emit_csv,
    format_summary,
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
                   help="column count, or a comma-separated list of them")
    p.add_argument("--c", type=_int_list,
                   help="sampling amount, or a comma-separated list of them")
    p.add_argument("--kappa", type=float)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int, dest="master_seed", help="master seed")
    p.add_argument("--matrix", choices=sorted(_MATRIX_ALIASES),
                   dest="matrix_kind")
    p.add_argument("--method", choices=sorted(METHODS))
    p.add_argument("--out", metavar="PATH", dest="output_path",
                   help="CSV output path")
    p.add_argument("--jobs", type=int, help="worker processes for the points")


def _build_config(args):
    """``--config``'s file or defaults, with the flags applied, then validated.

    A file whose ``experiment`` is not the subcommand's is a ConfigError.
    ``--n`` replaces the file's whole axis: one value sets ``n``, several
    set ``n_list``.  So does ``--c``, for ``c`` and ``c_list``.
    """
    base = (_read_config(args.config) if args.config
            else ExperimentConfig(args.experiment))
    if base.experiment != args.experiment:
        base.validate()  # the file's own error, if it has one, comes first
        raise ConfigError(f"{args.config} sets experiment {base.experiment}, "
                          f"so it cannot run as {args.command}")
    flags = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)
             if getattr(args, f.name, None) is not None}
    for key, listed in (("n", "n_list"), ("c", "c_list")):
        values = flags.pop(key, None)
        if values is not None:
            flags.update({key: None, listed: values} if len(values) > 1
                         else {key: values[0], listed: None})
    if "matrix_kind" in flags:
        flags["matrix_kind"] = _MATRIX_ALIASES[flags["matrix_kind"]]
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
    for experiment in EXPERIMENTS:
        p = sub.add_parser(experiment.replace("_", "-"))
        _add_experiment_args(p)
        p.set_defaults(experiment=experiment)

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
