"""Command line front end.

Subcommands:

* history    sweep one program length up to a horizon
* upsilon    certified normalizer series for the runtime distribution
* threshold  stopping horizon with certified tail mass below 2^-k
* decide     run one program to that horizon and report the verdict
* density    random-time census in a window, or per-length exclusion checks
* probcurve  halting fraction per program length
* decompose  computable/rare split of the observed halting set

This is the one module that turns a result into text. Each subcommand has a
handler _cmd_NAME(machine, args) that only builds its result: a dict, built
from the record's own fields (_asdict()) plus what the output adds, and
written as JSON (sorted keys, two-space indent), or the parts of a CSV text.
Every line printed, a CSV line too, ends with "\\n". The JSON writer prints
every rational as a "num/den" string and every Interval as {hi, lo, width}.
Either text is one list of parts, never joined: main hands the list to
sys.stdout.writelines, so a long listing is never held twice. A program
listing is a PairListing (haltlab.sweep), whose pairs are made one at a time
from the sweeps' stop-time arrays. Its pairs and the rows of a CSV are
written by _blocks, one "%" template per item, one part per block of _BLOCK
items taken from one pass, so no block's strings outlive it. Any other list
is written item by item. main loads the machine and builds every part before
it writes the first, so stdout stays empty on any error, an int too long to
print included.
An argument that several subcommands take (--machine, --budget, --precision,
-k, --distribution) is declared once, on a parent parser. The library
applies the one budget policy (haltlab.machine.check_budget) to --budget:
opaque machines need a budget in [1, 2^64 - 1], transparent machines are
read exactly and take none.
Exit codes: 0 ok, 2 usage, 3 resource limit (also for a number too long to
print), 4 degenerate distribution, 5 violated invariant; each error, a
malformed command line too, is one "error: ..." line on stderr.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import islice
from json.encoder import encode_basestring_ascii
from typing import NoReturn

from haltlab import density as density_mod
from haltlab import halting_prob, runtime_dist
from haltlab.errors import ConfigError, HaltlabError, ResourceLimitError, digit_limit_error
from haltlab.intervals import Interval, format_fraction
from haltlab.machine import Machine, load_machine, observe, read_json
from haltlab.sweep import (
    HaltingHistory,
    PairListing,
    all_programs,
    conditional_probs,
    eventual_fraction,
    prob_by,
    prob_exact,
    sweep,
)


# items per join in _blocks: one block's small strings, 50-80 KB at 512,
# are the formatter's whole transient, freed before the next block is made
_BLOCK = 512
# the history matrix has one cell per (program, time), about 100 bytes each
_MATRIX_CELL_CAP = 2**20


def _blocks(template: str, items: Iterable, sep: str) -> Iterator[str]:
    """template % item for each item, joined by sep in blocks of _BLOCK."""
    items = iter(items)
    while block := sep.join([template % item for item in islice(items, _BLOCK)]):
        yield block


def _json(payload: dict) -> list[str]:
    """json.dumps(payload, sort_keys=True, indent=2) and a newline, for the
    types a handler returns: dict with str keys, list, tuple, str, int, bool,
    None, and Fraction and Interval as the module docstring says. The result
    is the whole text as a list of parts, the newline last: an int past the
    digit limit raises here, before main writes anything, so stdout stays
    empty."""
    parts: list[str] = []
    try:
        _json_parts(payload, "\n", parts)
    except ValueError as exc:  # an int past the digit limit, alone or in format_fraction
        raise digit_limit_error() from exc
    parts.append("\n")
    return parts


def _json_parts(value: object, newline: str, parts: list[str]) -> None:
    """Append the JSON text of value to parts; newline ends the line before
    it and holds its indent."""
    kind = type(value)
    if kind is Interval:
        value, kind = {"hi": value.hi, "lo": value.lo, "width": value.width}, dict
    if kind is str:
        parts.append(encode_basestring_ascii(value))
    elif kind is int:
        parts.append(int.__repr__(value))
    elif kind is Fraction:
        parts.append('"' + format_fraction(value) + '"')
    elif kind is bool:
        parts.append("true" if value else "false")
    elif value is None:
        parts.append("null")
    elif kind not in (list, tuple, dict, PairListing) or kind is dict and any(
        type(k) is not str for k in value
    ):
        raise TypeError(f"cannot write a {kind.__name__} (or its keys) as JSON")
    elif not value:
        parts.append("{}" if kind is dict else "[]")
    elif kind is PairListing:
        _pairs_parts(value, newline, parts)
    else:
        brackets, heads = "[]", [""] * len(value)
        if kind is dict:
            brackets, keys = "{}", sorted(value)
            heads = [encode_basestring_ascii(key) + ": " for key in keys]
            value = [value[key] for key in keys]
        inner = newline + "  "
        comma = brackets[0] + inner
        for head, item in zip(heads, value):
            parts.append(comma + head)
            _json_parts(item, inner, parts)
            comma = "," + inner
        parts.append(newline + brackets[1])


def _pairs_parts(pairs: PairListing, newline: str, parts: list[str]) -> None:
    """_json_parts of a non-empty PairListing."""
    inner = newline + "  "
    item = inner + "  "
    # a program is a bit string, so quoting it is all its JSON escaping does
    pair = "[" + item + '"%s",' + item + "%s" + inner + "]"
    comma = "," + inner
    parts.append("[" + inner)
    for block in _blocks(pair, pairs, comma):
        parts += block, comma
    parts[-1] = newline + "]"  # in place of the last block's comma


def _csv(header: str, rows: Iterable[tuple]) -> list[str]:
    """The parts of a CSV text: the header line, then one line per row."""
    parts = [header + "\n"]
    for block in _blocks(",".join(["%s"] * (header.count(",") + 1)), rows, "\n"):
        parts += block, "\n"
    return parts


def _history_matrix(history: HaltingHistory) -> dict:
    """Grid form: cell (p, t) holds "h" once p has stopped by t."""
    times = range(1, history.horizon + 1)
    rows = [
        {"program": program, "cells": ["" if stop is None or t < stop else "h" for t in times]}
        for program, stop in zip(all_programs(history.length), history.column(None))
    ]
    return {"length": history.length, "horizon": history.horizon, "times": [*times], "rows": rows}


def _config(args: argparse.Namespace, *names: str) -> dict:
    """The config block: the command, the machine and the named arguments."""
    config = {"command": args.command, "machine": args.machine}
    config.update((name, getattr(args, name)) for name in names)
    return config


def _kind(args: argparse.Namespace) -> str:
    return "upsilon-induced" if args.distribution is None else "user-table"


def _load_distribution(
    machine: Machine, args: argparse.Namespace
) -> runtime_dist.RuntimeDistribution:
    weights = runtime_dist.DYADIC
    if args.distribution is not None:
        weights = runtime_dist.weights_from_dict(read_json(args.distribution, "distribution file"))
    return runtime_dist.induced_distribution(machine, args.precision, args.budget, weights)


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_history(machine: Machine, args: argparse.Namespace) -> dict | list[str]:
    if args.t1 is not None and args.t0 is None:
        raise ConfigError("--t1 needs --t0")
    if args.t0 is not None and args.format != "json":
        raise ConfigError("--t0/--t1 apply to --format json only")
    length, horizon = args.length, args.horizon
    if args.format == "matrix" and length >= 0 and horizon > _MATRIX_CELL_CAP >> length:
        raise ResourceLimitError(  # before the sweep runs
            f"a matrix of 2^{length} programs x {horizon} times exceeds "
            f"{_MATRIX_CELL_CAP} cells; use the csv or json format"
        )
    history = sweep(machine, length, horizon)
    if args.format == "csv":
        rows = zip(all_programs(length), history.column("RUNNING"))
        return _csv("program,stop_time", rows)
    if args.format == "matrix":
        return _history_matrix(history)
    config = _config(args, "length", "horizon")
    payload = {
        "config": config,
        "space_size": history.space_size,
        "stops": PairListing(((history, None),), len(history.times)),
        "eventual_fraction": eventual_fraction(history),
        "prob_exact": prob_exact(history),
        "prob_by": prob_by(history),
    }
    if args.t0 is not None:
        config["t0"] = args.t0
        if args.t1 is not None:
            config["t1"] = args.t1
        payload["conditional"] = conditional_probs(history, args.t0, args.t1)._asdict()
    return payload


def _cmd_upsilon(machine: Machine, args: argparse.Namespace) -> dict:
    normalizer = runtime_dist.halting_series(machine, args.precision, args.budget)
    return {"config": _config(args, "precision", "budget"), "normalizer": normalizer}


def _cmd_threshold(machine: Machine, args: argparse.Namespace) -> dict:
    dist = _load_distribution(machine, args)
    horizon = runtime_dist.tail_threshold(dist, args.k)
    return {
        "config": _config(args, "k", "precision", "budget", "distribution"),
        "kind": _kind(args),
        "normalizer": dist.normalizer,
        "threshold": horizon,
        "tail_certificate": runtime_dist.tail_certificate(dist, horizon),
        "target": Fraction(1, 2**args.k),
    }


def _cmd_decide(machine: Machine, args: argparse.Namespace) -> dict:
    dist = _load_distribution(machine, args)
    horizon = runtime_dist.tail_threshold(dist, args.k)
    hit = observe(machine, args.program, horizon)
    payload = {
        "config": _config(args, "program", "k", "precision", "budget", "distribution"),
        "threshold": horizon,
    }
    if hit is not None:
        payload["verdict"] = "halted"
        payload["stop_time"] = hit[0]
    else:
        payload["verdict"] = "probably-non-halting"
        payload["residual_probability_below"] = Fraction(1, 2**args.k)
        payload["note"] = (
            f"still running at step {horizon}; conditional halting "
            f"probability of such programs is below 2^-{args.k}"
        )
    return payload


def _cmd_density(machine: Machine, args: argparse.Namespace) -> dict:
    if args.mode == "exclusion":
        if args.horizon is not None:
            raise ConfigError("--horizon applies to window mode only")
        report = density_mod.exclusion_report(machine, (args.length,), None, args.budget)
        return {
            **report._asdict(),
            "threshold": density_mod.exclusion_threshold(args.length),
            "holds": report.holds,
            "config": _config(args, "mode", "length", "budget"),
        }
    if args.horizon is None:
        raise ConfigError("--horizon is required for window mode")
    report = density_mod.density_report(machine, args.length, args.horizon, args.budget)
    payload = report._asdict()
    payload["window"] = [payload.pop("window_start"), payload.pop("horizon")]
    payload["random_count"] = report.random_count
    payload["config"] = _config(args, "mode", "length", "budget", "horizon")
    return payload


def _cmd_probcurve(machine: Machine, args: argparse.Namespace) -> dict | list[str]:
    curve = halting_prob.domain_prob_curve(machine, args.max_len, args.budget)
    if args.format == "csv":
        rows = ((p.length, p.halting, p.total, format_fraction(p.fraction)) for p in curve.points)
        return _csv("length,halting,total,fraction", rows)
    kraft = sum((p.fraction for p in curve.points), Fraction(0))
    return {
        "config": _config(args, "max_len", "budget"),
        "points": [{**p._asdict(), "fraction": p.fraction} for p in curve.points],
        "kraft_weight": kraft,
    }


def _cmd_decompose(machine: Machine, args: argparse.Namespace) -> dict:
    dist = _load_distribution(machine, args)
    split = runtime_dist.split_halting_set(dist, args.k, args.max_len)
    return {
        **split._asdict(),
        "cutoffs": {str(n): c for n, c in sorted(split.cutoffs.items())},
        "kind": _kind(args),
        "normalizer": dist.normalizer,
        "config": _config(args, "k", "max_len", "precision", "budget", "distribution"),
    }


# ---------------------------------------------------------------------------
# parser

def _usage_error(parser: argparse.ArgumentParser, message: str) -> NoReturn:
    raise ConfigError(message)


class _Parser(argparse.ArgumentParser):
    error = _usage_error  # no usage block; add_subparsers makes _Parsers too


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="haltlab",
        description="Empirical halting statistics with exact certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    machine, budget, precision, tail = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    machine.add_argument(
        "--machine",
        default="builtin:toy-vm",
        help="machine file or builtin:{toy-vm,loop-free-vm,prefix-free-vm,"
        "prefix-free-loop-free-vm}",
    )
    budget.add_argument("--budget", type=int, default=None)
    precision.add_argument("--precision", type=int, default=runtime_dist.DEFAULT_PRECISION_BITS)
    tail.add_argument("-k", type=int, required=True, help="tail target exponent: mass < 2^-k")
    tail.add_argument("--distribution", default=None, help="user-table weight file")
    series, solved = [machine, precision, budget], [machine, tail, precision, budget]

    p = sub.add_parser("history", parents=[machine], help="sweep one length up to a horizon")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--t0", type=int, default=None, help="condition on surviving past t0")
    p.add_argument("--t1", type=int, default=None, help="upper end for the conditional window")
    p.add_argument("--format", choices=["json", "csv", "matrix"], default="json")
    p.set_defaults(handler=_cmd_history)

    p = sub.add_parser("upsilon", parents=series, help="certified normalizer series")
    p.set_defaults(handler=_cmd_upsilon)

    p = sub.add_parser("threshold", parents=solved, help="tail-mass stopping horizon")
    p.set_defaults(handler=_cmd_threshold)

    p = sub.add_parser("decide", parents=solved, help="run a program to the tail threshold")
    p.add_argument("--program", required=True, help="bit string to run")
    p.set_defaults(handler=_cmd_decide)

    p = sub.add_parser(
        "density", parents=[machine, budget], help="random stop-time density and exclusions"
    )
    p.add_argument("--mode", choices=["window", "exclusion"], default="window")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--horizon", type=int, default=None, help="window end (window mode)")
    p.set_defaults(handler=_cmd_density)

    p = sub.add_parser("probcurve", parents=[machine, budget], help="halting fraction per length")
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(handler=_cmd_probcurve)

    p = sub.add_parser("decompose", parents=solved, help="computable/rare halting split")
    p.add_argument("--max-len", type=int, required=True)
    p.set_defaults(handler=_cmd_decompose)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        machine = load_machine(args.machine)
        result = args.handler(machine, args)
        parts = _json(result) if isinstance(result, dict) else result
    except HaltlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    sys.stdout.writelines(parts)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
