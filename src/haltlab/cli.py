"""Command line front end.

Subcommands:

* history    sweep one program length up to a horizon
* upsilon    certified normalizer series for the runtime distribution
* threshold  stopping horizon with certified tail mass below 2^-k
* decide     run one program to that horizon and report the verdict
* density    random-time census in a window, or per-length exclusion checks
* probcurve  halting fraction per program length
* decompose  computable/rare split of the observed halting set

Each subcommand has a handler _cmd_NAME(machine, args) that only builds its
result: a dict, written as JSON (sorted keys, two-space indent), or a str,
written as is (CSV). Rationals are always "numerator/denominator" strings.
main loads the machine and writes the result, so stdout stays empty on any
error. The library applies the one budget policy
(haltlab.machine.check_budget) to --budget: opaque machines need a positive
budget, transparent machines are read exactly and take none, and run()
refuses budgets above 2^64 - 1.
Exit codes: 0 ok, 2 usage, 3 resource limit (also for a number too long to
print), 4 degenerate distribution, 5 violated invariant.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from haltlab import density as density_mod
from haltlab import halting_prob, runtime_dist
from haltlab.errors import ConfigError, HaltlabError, digit_limit_error
from haltlab.intervals import Interval, format_fraction
from haltlab.machine import Machine, is_transparent, load_machine, read_json, run
from haltlab.sweep import (
    check_matrix_cells,
    conditional_probs,
    eventual_fraction,
    history_to_csv,
    history_to_matrix,
    prob_by,
    prob_exact,
    sweep,
)


def _json(payload: dict) -> str:
    """json.dumps(payload, sort_keys=True, indent=2) for the types a handler
    returns: dict with str keys, list, tuple, str, int, bool and None."""
    try:
        return _json_text(payload, "\n") + "\n"
    except ValueError as exc:  # an int past Python's int-to-str digit limit
        raise digit_limit_error() from exc


def _json_text(value: object, newline: str) -> str:
    """The JSON text of value; newline ends the line before it and holds
    its indent."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    inner = newline + "  "
    if kind is tuple or kind is list:
        brackets, items = "[]", [_json_text(item, inner) for item in value]
    elif kind is dict and all(type(key) is str for key in value):
        brackets = "{}"
        items = [
            encode_basestring_ascii(key) + ": " + _json_text(value[key], inner)
            for key in sorted(value)
        ]
    elif kind is bool:
        return "true" if value else "false"
    elif value is None:
        return "null"
    else:
        raise TypeError(f"cannot write a {kind.__name__} (or its keys) as JSON")
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]


def _config(args: argparse.Namespace, *names: str) -> dict:
    """The config block: the command, the machine and the named arguments."""
    config = {"command": args.command, "machine": args.machine}
    config.update((name, getattr(args, name)) for name in names)
    return config


def _kind(args: argparse.Namespace) -> str:
    return "upsilon-induced" if args.distribution is None else "user-table"


def _interval_dict(interval: Interval) -> dict:
    payload = dict(interval.to_strings())
    payload["width"] = format_fraction(interval.width)
    return payload


def _load_distribution(
    machine: Machine, args: argparse.Namespace
) -> runtime_dist.RuntimeDistribution:
    if args.distribution is not None:
        return runtime_dist.user_table_distribution(
            machine,
            read_json(args.distribution, "distribution file"),
            precision_bits=args.precision,
            budget=args.budget,
        )
    return runtime_dist.induced_distribution(
        machine, precision_bits=args.precision, budget=args.budget
    )


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_history(machine: Machine, args: argparse.Namespace) -> dict | str:
    if args.t1 is not None and args.t0 is None:
        raise ConfigError("--t1 needs --t0")
    if args.t0 is not None and args.format != "json":
        raise ConfigError("--t0/--t1 apply to --format json only")
    if args.format == "matrix":
        check_matrix_cells(args.length, args.horizon)  # before the sweep runs
    history = sweep(machine, args.length, args.horizon)
    if args.format == "csv":
        return history_to_csv(history)
    if args.format == "matrix":
        return history_to_matrix(history)
    config = _config(args, "length", "horizon")
    payload = {
        "config": config,
        "space_size": history.space_size,
        "stops": tuple(history.stops.items()),
        "eventual_fraction": format_fraction(eventual_fraction(history)),
        "prob_exact": format_fraction(prob_exact(history)),
        "prob_by": format_fraction(prob_by(history)),
    }
    if args.t0 is not None:
        config["t0"] = args.t0
        if args.t1 is not None:
            config["t1"] = args.t1
        report = conditional_probs(history, args.t0, args.t1)
        payload["conditional"] = {
            "t0": report.t0,
            "t1": report.t1,
            "survivors": report.survivors,
            "eventual_given_not_by": format_fraction(report.eventual_given_not_by),
            "not_by_and_eventual": format_fraction(report.not_by_and_eventual),
            "by_t1_given_not_by": None
            if report.by_t1_given_not_by is None
            else format_fraction(report.by_t1_given_not_by),
        }
    return payload


def _cmd_upsilon(machine: Machine, args: argparse.Namespace) -> dict:
    if args.force and is_transparent(machine):
        raise ConfigError("--force applies to opaque machines only")
    interval = runtime_dist.halting_series(
        machine, precision_bits=args.precision, budget=args.budget, force=args.force
    )
    config = _config(args, "precision", "budget")
    if args.force:
        config["force"] = True
    return {"config": config, "normalizer": _interval_dict(interval)}


def _cmd_threshold(machine: Machine, args: argparse.Namespace) -> dict:
    dist = _load_distribution(machine, args)
    horizon = runtime_dist.tail_threshold(dist, args.k)
    return {
        "config": _config(args, "k", "precision", "budget", "distribution"),
        "kind": _kind(args),
        "normalizer": _interval_dict(dist.normalizer),
        "threshold": horizon,
        "tail_certificate": format_fraction(
            runtime_dist.tail_certificate(dist, horizon)
        ),
        "target": format_fraction(Fraction(1, 2**args.k)),
    }


def _cmd_decide(machine: Machine, args: argparse.Namespace) -> dict:
    dist = _load_distribution(machine, args)
    horizon = runtime_dist.tail_threshold(dist, args.k)
    outcome = run(machine, args.program, horizon)
    payload = {
        "config": _config(args, "program", "k", "precision", "budget", "distribution"),
        "threshold": horizon,
    }
    if outcome.halted:
        payload["verdict"] = "halted"
        payload["stop_time"] = outcome.stop_time
    else:
        payload["verdict"] = "probably-non-halting"
        payload["residual_probability_below"] = format_fraction(Fraction(1, 2**args.k))
        payload["note"] = (
            f"still running at step {horizon}; conditional halting "
            f"probability of such programs is below 2^-{args.k}"
        )
    return payload


def _cmd_density(machine: Machine, args: argparse.Namespace) -> dict:
    if args.mode == "exclusion":
        if args.horizon is not None:
            raise ConfigError("--horizon applies to window mode only")
        report = density_mod.random_stop_report(machine, args.length, args.budget)
        return {
            "config": _config(args, "mode", "length", "budget"),
            "threshold": density_mod.exclusion_threshold(args.length),
            "candidates": report.candidates,
            "violations": report.violations,
            "unresolved": report.unresolved,
            "holds": report.holds,
        }
    if args.horizon is None:
        raise ConfigError("--horizon is required for window mode")
    report = density_mod.density_report(machine, args.length, args.horizon, args.budget)
    return {
        "config": _config(args, "mode", "length", "budget", "horizon"),
        "m": report.m,
        "s": report.s,
        "window": [report.window_start, report.horizon],
        "window_size": report.window_size,
        "nonrandom_count": report.nonrandom_count,
        "random_count": report.random_count,
        "random_fraction": format_fraction(report.random_fraction),
        "rare_bound": format_fraction(report.rare_bound),
        "exact": report.exact,
        "holds": report.holds,
    }


def _cmd_probcurve(machine: Machine, args: argparse.Namespace) -> dict | str:
    curve = halting_prob.domain_prob_curve(machine, args.max_len, args.budget)
    if args.format == "csv":
        return curve.to_csv()
    kraft = sum((p.fraction for p in curve.points), Fraction(0))
    return {
        "config": _config(args, "max_len", "budget"),
        "points": [
            {
                "length": p.length,
                "halting": p.halting,
                "total": p.total,
                "fraction": format_fraction(p.fraction),
                "exact": p.exact,
            }
            for p in curve.points
        ],
        "kraft_weight": format_fraction(kraft),
    }


def _cmd_decompose(machine: Machine, args: argparse.Namespace) -> dict:
    dist = _load_distribution(machine, args)
    split = runtime_dist.split_halting_set(machine, dist, args.k, args.max_len, budget=args.budget)
    return {
        "config": _config(args, "k", "max_len", "precision", "budget", "distribution"),
        "kind": _kind(args),
        "normalizer": _interval_dict(dist.normalizer),
        "cutoffs": {str(n): c for n, c in sorted(split.cutoffs.items())},
        "computable": split.computable,
        "residual": split.residual,
        "residual_measure_hi": format_fraction(split.residual_measure_hi),
        "residual_bound": format_fraction(split.residual_bound),
    }


# ---------------------------------------------------------------------------
# parser

def _add_machine(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--machine",
        default="builtin:toy-vm",
        help="machine file or builtin:{toy-vm,loop-free-vm,prefix-free-vm,"
        "prefix-free-loop-free-vm}",
    )


def _add_distribution(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-k", type=int, required=True, help="tail target exponent: mass < 2^-k")
    parser.add_argument("--precision", type=int, default=runtime_dist.DEFAULT_PRECISION_BITS)
    parser.add_argument("--budget", type=int, default=None)
    parser.add_argument("--distribution", default=None, help="user-table weight file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="haltlab",
        description="Empirical halting statistics with exact certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("history", help="sweep one length up to a horizon")
    _add_machine(p)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--t0", type=int, default=None, help="condition on surviving past t0")
    p.add_argument("--t1", type=int, default=None, help="upper end for the conditional window")
    p.add_argument("--format", choices=["json", "csv", "matrix"], default="json")
    p.set_defaults(handler=_cmd_history)

    p = sub.add_parser("upsilon", help="certified normalizer series")
    _add_machine(p)
    p.add_argument("--precision", type=int, default=runtime_dist.DEFAULT_PRECISION_BITS)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--force", action="store_true", help="lift the opaque precision cap")
    p.set_defaults(handler=_cmd_upsilon)

    p = sub.add_parser("threshold", help="tail-mass stopping horizon")
    _add_machine(p)
    _add_distribution(p)
    p.set_defaults(handler=_cmd_threshold)

    p = sub.add_parser("decide", help="run a program to the tail threshold")
    _add_machine(p)
    p.add_argument("--program", required=True, help="bit string to run")
    _add_distribution(p)
    p.set_defaults(handler=_cmd_decide)

    p = sub.add_parser("density", help="random stop-time density and exclusions")
    _add_machine(p)
    p.add_argument("--mode", choices=["window", "exclusion"], default="window")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--horizon", type=int, default=None, help="window end (window mode)")
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(handler=_cmd_density)

    p = sub.add_parser("probcurve", help="halting fraction per length")
    _add_machine(p)
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(handler=_cmd_probcurve)

    p = sub.add_parser("decompose", help="computable/rare halting split")
    _add_machine(p)
    p.add_argument("--max-len", type=int, required=True)
    _add_distribution(p)
    p.set_defaults(handler=_cmd_decompose)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        machine = load_machine(args.machine)
        result = args.handler(machine, args)
        text = _json(result) if isinstance(result, dict) else result
    except HaltlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
