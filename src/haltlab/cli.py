"""Command line front end.

Subcommands:

* history    sweep one program length up to a horizon
* upsilon    certified normalizer series for the runtime distribution
* threshold  stopping horizon with certified tail mass below 2^-k
* decide     run one program to that horizon and report the verdict
* density    random-time census in a window, or per-length exclusion checks
* probcurve  halting fraction per program length
* decompose  computable/rare split of the observed halting set

Results are JSON (sorted keys, two-space indent) on stdout; rationals are
always "numerator/denominator" strings. --budget follows the one budget
policy (haltlab.machine.check_budget): opaque machines need a positive
budget, transparent machines are read exactly and take none. --workers is
accepted and validated but has no effect: runs are sequential. It is not
echoed in the config block.
Exit codes: 0 ok, 2 usage, 3 resource limit, 4 degenerate distribution,
5 violated invariant.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from haltlab import density as density_mod
from haltlab import halting_prob, runtime_dist
from haltlab.errors import ConfigError, HaltlabError
from haltlab.intervals import Interval, format_fraction
from haltlab.machine import Machine, check_budget, load_machine, run
from haltlab.sweep import (
    conditional_probs,
    eventual_fraction,
    history_to_csv,
    history_to_matrix,
    prob_by,
    prob_exact,
    sweep,
)


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _interval_dict(interval: Interval) -> dict:
    payload = dict(interval.to_strings())
    payload["width"] = format_fraction(interval.width)
    return payload


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {workers}")


def _load_distribution(
    machine: Machine, args: argparse.Namespace
) -> runtime_dist.RuntimeDistribution:
    if args.distribution is not None:
        with open(args.distribution, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"bad distribution file: {exc}") from exc
        return runtime_dist.user_table_distribution(
            machine, data, precision_bits=args.precision, budget=args.budget
        )
    return runtime_dist.induced_distribution(
        machine, precision_bits=args.precision, budget=args.budget
    )


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_history(args: argparse.Namespace) -> int:
    machine = load_machine(args.machine)
    _check_workers(args.workers)
    history = sweep(machine, args.length, args.horizon)
    if args.format == "csv":
        sys.stdout.write(history_to_csv(history))
        return 0
    if args.format == "matrix":
        _emit(history_to_matrix(history))
        return 0
    config = {
        "command": "history",
        "machine": args.machine,
        "length": args.length,
        "horizon": args.horizon,
    }
    payload = {
        "config": config,
        "space_size": history.space_size,
        "stops": [[p, t] for p, t in history.stops.items()],
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
    _emit(payload)
    return 0


def _cmd_upsilon(args: argparse.Namespace) -> int:
    machine = load_machine(args.machine)
    check_budget(machine, args.budget)
    interval = runtime_dist.halting_series(
        machine, precision_bits=args.precision, budget=args.budget, force=args.force
    )
    payload = {
        "config": {
            "command": "upsilon",
            "machine": args.machine,
            "precision": args.precision,
            "budget": args.budget,
        },
        "normalizer": _interval_dict(interval),
    }
    _emit(payload)
    return 0


def _cmd_threshold(args: argparse.Namespace) -> int:
    machine = load_machine(args.machine)
    check_budget(machine, args.budget)
    dist = _load_distribution(machine, args)
    horizon = runtime_dist.tail_threshold(dist, args.k)
    payload = {
        "config": {
            "command": "threshold",
            "machine": args.machine,
            "k": args.k,
            "precision": args.precision,
            "budget": args.budget,
            "distribution": args.distribution,
        },
        "kind": dist.kind,
        "normalizer": _interval_dict(dist.normalizer),
        "threshold": horizon,
        "tail_certificate": format_fraction(
            runtime_dist.tail_certificate(dist, horizon)
        ),
        "target": f"1/{2 ** args.k}",
    }
    _emit(payload)
    return 0


def _cmd_decide(args: argparse.Namespace) -> int:
    machine = load_machine(args.machine)
    check_budget(machine, args.budget)
    dist = _load_distribution(machine, args)
    horizon = runtime_dist.tail_threshold(dist, args.k)
    outcome = run(machine, args.program, horizon)
    payload = {
        "config": {
            "command": "decide",
            "machine": args.machine,
            "program": args.program,
            "k": args.k,
            "precision": args.precision,
            "budget": args.budget,
            "distribution": args.distribution,
        },
        "threshold": horizon,
    }
    if outcome.halted:
        payload["verdict"] = "halted"
        payload["stop_time"] = outcome.stop_time
    else:
        payload["verdict"] = "probably-non-halting"
        payload["residual_probability_below"] = f"1/{2 ** args.k}"
        payload["note"] = (
            f"still running at step {horizon}; conditional halting "
            f"probability of such programs is below 2^-{args.k}"
        )
    _emit(payload)
    return 0


def _cmd_density(args: argparse.Namespace) -> int:
    machine = load_machine(args.machine)
    check_budget(machine, args.budget)
    _check_workers(args.workers)
    config = {
        "command": "density",
        "machine": args.machine,
        "mode": args.mode,
        "length": args.length,
        "budget": args.budget,
    }
    if args.mode == "exclusion":
        report = density_mod.random_stop_report(machine, args.length, args.budget)
        _emit(
            {
                "config": config,
                "threshold": report.threshold,
                "candidates": [list(pair) for pair in report.candidates],
                "violations": [list(pair) for pair in report.violations],
                "unresolved": [list(pair) for pair in report.unresolved],
                "holds": report.holds,
            }
        )
        return 0
    if args.horizon is None:
        raise ConfigError("--horizon is required for window mode")
    config["horizon"] = args.horizon
    report = density_mod.density_report(machine, args.length, args.horizon, args.budget)
    _emit(
        {
            "config": config,
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
    )
    return 0


def _cmd_probcurve(args: argparse.Namespace) -> int:
    machine = load_machine(args.machine)
    check_budget(machine, args.budget)
    _check_workers(args.workers)
    curve = halting_prob.domain_prob_curve(machine, args.max_len, args.budget)
    if args.format == "csv":
        sys.stdout.write(curve.to_csv())
        return 0
    kraft = sum((p.fraction for p in curve.points), Fraction(0))
    payload = {
        "config": {
            "command": "probcurve",
            "machine": args.machine,
            "max_len": args.max_len,
            "budget": args.budget,
        },
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
    _emit(payload)
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    machine = load_machine(args.machine)
    check_budget(machine, args.budget)
    _check_workers(args.workers)
    dist = _load_distribution(machine, args)
    split = runtime_dist.split_halting_set(machine, dist, args.k, args.max_len, budget=args.budget)
    payload = {
        "config": {
            "command": "decompose",
            "machine": args.machine,
            "k": args.k,
            "max_len": args.max_len,
            "precision": args.precision,
            "budget": args.budget,
            "distribution": args.distribution,
        },
        "kind": dist.kind,
        "normalizer": _interval_dict(dist.normalizer),
        "cutoffs": {str(n): c for n, c in sorted(split.cutoffs.items())},
        "computable": [list(pair) for pair in split.computable],
        "residual": [list(pair) for pair in split.residual],
        "residual_measure_hi": format_fraction(split.residual_measure_hi),
        "residual_bound": format_fraction(split.residual_bound),
    }
    _emit(payload)
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_machine(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--machine",
        default="builtin:toy-vm",
        help="machine file or builtin:{toy-vm,loop-free-vm,prefix-free-vm,"
        "prefix-free-loop-free-vm}",
    )


def _add_workers(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="accepted for compatibility and checked to be >= 1; has no effect",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="haltlab",
        description="Empirical halting statistics with exact certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("history", help="sweep one length up to a horizon")
    _add_machine(p)
    _add_workers(p)
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
    p.add_argument("-k", type=int, required=True, help="tail target exponent: mass < 2^-k")
    p.add_argument("--precision", type=int, default=runtime_dist.DEFAULT_PRECISION_BITS)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--distribution", default=None, help="user-table weight file")
    p.set_defaults(handler=_cmd_threshold)

    p = sub.add_parser("decide", help="run a program to the tail threshold")
    _add_machine(p)
    p.add_argument("--program", required=True, help="bit string to run")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--precision", type=int, default=runtime_dist.DEFAULT_PRECISION_BITS)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--distribution", default=None)
    p.set_defaults(handler=_cmd_decide)

    p = sub.add_parser("density", help="random stop-time density and exclusions")
    _add_machine(p)
    _add_workers(p)
    p.add_argument("--mode", choices=["window", "exclusion"], default="window")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--horizon", type=int, default=None, help="window end (window mode)")
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(handler=_cmd_density)

    p = sub.add_parser("probcurve", help="halting fraction per length")
    _add_machine(p)
    _add_workers(p)
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(handler=_cmd_probcurve)

    p = sub.add_parser("decompose", help="computable/rare halting split")
    _add_machine(p)
    _add_workers(p)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--precision", type=int, default=runtime_dist.DEFAULT_PRECISION_BITS)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--distribution", default=None)
    p.set_defaults(handler=_cmd_decompose)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except HaltlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ConfigError.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
