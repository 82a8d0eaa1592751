"""Golden tests of the command line: exact stdout bytes and exit codes.

Every call goes through cli.main. The config block echoes the --machine
argument, so machine files are named relative to the repository root and the
tests run from there.
"""

import argparse
import contextlib
from fractions import Fraction
import hashlib
import io
import json
import multiprocessing
import pathlib
import subprocess
import sys
import time
import tracemalloc

from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st
import pytest

from haltlab import cli
from haltlab.errors import ConfigError, HaltlabError
from haltlab.intervals import Interval, format_fraction
from haltlab.machine import is_transparent, load_machine
from haltlab.runtime_dist import DEFAULT_PRECISION_BITS
from haltlab.sweep import PairListing, all_programs, sweep

from conftest import table_from_stops

ROOT = pathlib.Path(__file__).resolve().parent.parent
EMPTY = hashlib.sha256(b"").hexdigest()

# (id, argv, exit code, SHA-256 of stdout)
GOLDEN = [
    ("history-table1", "history --machine fixtures/table1.json --length 3 --horizon 17",
     0, "901626fdca9f3702cf698993b0416c99e8ef7e4b5f136571961d91976631df60"),
    # a length of 2^20 programs, read from the table's 6 entries
    ("history-table1-length-20", "history --machine fixtures/table1.json --length 20 --horizon 5",
     0, "eb7daf70491af123ed043e4feace45bb09cbcee61729667cb0c670adf49b2a92"),
    ("history-toy-conditional",
     "history --machine builtin:toy-vm --length 5 --horizon 64 --t0 3 --t1 9",
     0, "ca0087b96ed855c17b51204449867aaa9752f792ee52af212ad1ae7d8ed1d65f"),
    ("history-csv", "history --machine fixtures/fixture_f.json --length 1 --horizon 5 --format csv",
     0, "54ad2445ec0111f4da48bbcd34b7c647b5a59abac425eb2aed37a215bdf38782"),
    ("history-matrix",
     "history --machine builtin:prefix-free-vm --length 4 --horizon 16 --format matrix",
     0, "c61fdcc8723003d2cdd4840b802fbb222f18440a265637f925860f4382e57ecb"),
    ("upsilon-finite", "upsilon --machine fixtures/fixture_f.json",
     0, "9e73a54bab24475d89f587a5cc5d4713c9aaef614199d2a770ffa1c4592b119f"),
    ("upsilon-loop-free", "upsilon --machine builtin:loop-free-vm --precision 6",
     0, "469ddb205d73e0af8d94b9853e5113374c38d57fc3a53535e4eb2a4955db08e3"),
    ("upsilon-pf-loop-free", "upsilon --machine builtin:prefix-free-loop-free-vm --precision 6",
     0, "cc7559e8d03ffd6a5b5e44ed0ebe35734fe514da81fb735fb6b26594a67f6512"),
    ("upsilon-opaque", "upsilon --machine builtin:toy-vm --precision 4 --budget 64",
     0, "58da98443c24636b2075d8daf7d0c8da651bceb92f76fb9508bd14389a6c0597"),
    # an opaque precision is bounded only by its budget, which must reach
    # 2^(precision+2): 61 bits at most, as no budget passes 2^64 - 1
    ("upsilon-opaque-precision-17",
     "upsilon --machine builtin:toy-vm --precision 17 --budget 524288",
     0, "58c89ca95efa430927469b3a827df51b4e4c0b5c9822aadde68526863cc80861"),
    ("upsilon-opaque-precision-62",
     "upsilon --machine builtin:toy-vm --precision 62 --budget 18446744073709551615", 2, EMPTY),
    ("threshold-table1", "threshold --machine fixtures/table1.json -k 3",
     0, "e07556ca06e0a731323a7b79b4403cf22d25843a5cf028bbcde94e4e8cbabe58"),
    ("threshold-user-table",
     "threshold --machine builtin:toy-vm -k 2 --precision 4 --budget 64 "
     "--distribution fixtures/dyadic_weights.json",
     0, "d996233e6b4a2203bbac887e433db0b7dde8c1744f36ebe4f5338129d6fa8ba4"),
    ("decide-opaque", "decide --machine builtin:toy-vm --program 0101 -k 2 --precision 4 --budget 64",
     0, "f87820fcf7a5bae6e3cec295718285aa43a6233cd6dbc847c9529e06f405aacc"),
    ("decide-running", "decide --machine fixtures/table1.json --program 001 -k 1",
     0, "161e04ef60d54b0b8acf599f96205f3829e2258119d5a643ce5db0dec3a10454"),
    ("density-window", "density --machine builtin:loop-free-vm --length 1 --horizon 4095",
     0, "8cb5331436132639074ae7c567ea30f9b8aec9b70cc6dd6b71a54d6897b6a716"),
    ("density-window-opaque",
     "density --machine builtin:prefix-free-vm --length 1 --horizon 1023 --budget 256",
     0, "3c68f09b63447e913d8525c69eff3d16f0abc5386564c5ff693d71d38293d719"),
    ("density-exclusion-opaque",
     "density --machine builtin:toy-vm --mode exclusion --length 2 --budget 4096",
     0, "0c7722bcc79fd7e3e604fe67bdf65e6b159a90d652b10a279c01819e4b26e4a3"),
    ("density-exclusion-exact",
     "density --machine builtin:prefix-free-loop-free-vm --mode exclusion --length 3",
     0, "304f86360eb5153712c8a99ab175e4fb90019d33904798fae5b2ebcc2022e521"),
    # the empty program's stops start at 2^5; table1's "" has none
    ("density-exclusion-length-0",
     "density --machine fixtures/table1.json --mode exclusion --length 0",
     0, "afae1206a87a9b3015e083fffcb82a6e44b9f76634fdaf84cc07aad55dd825f4"),
    # no entry of the table produces code(2^70), the witness the timing
    # wrapper would give, so the late stop of "10" is a violation
    ("density-exclusion-huge-stop",
     "density --machine fixtures/huge_stop_table.json --mode exclusion --length 2",
     0, "974ac8d5a0cc410b40959244938680e1897830fc78f56bc3ff801153d2c25aa0"),
    # a finite domain is read, never enumerated, so the witness cap (2^34 and
    # 2^44 programs here) does not bind it
    ("density-window-table1-past-the-cap",
     "density --machine fixtures/table1.json --length 1 --horizon 1099511627775",
     0, "37aeb0c86d2fee91cc63ad943757f0f2d74342e73e3d489476abd8b90fee1816"),
    ("density-window-far-index-past-the-cap",
     "density --machine fixtures/far_index_table.json --length 1 --horizon 1125899906842623",
     0, "3b689fcf383b5d583f1263f49c79e89c247b3697899da3c0ddc433cdadd8dbdd"),
    ("probcurve-pf-loop-free", "probcurve --machine builtin:prefix-free-loop-free-vm --max-len 8",
     0, "c4bf0978d16a363b7c37d7de4b6bcedf46ebd98655548c03a94165057ea28c05"),
    ("probcurve-total-csv", "probcurve --machine builtin:loop-free-vm --max-len 6 --format csv",
     0, "5c0206fc36a6c64e969fc8b2246ce572b7e035db71149927360fabfd197f3367"),
    ("probcurve-opaque",
     "probcurve --machine builtin:prefix-free-vm --max-len 6 --budget 256",
     0, "a4107d79b796cbdef78ec3838557a7ea652ebcba3721766b35610c4255c58c49"),
    ("probcurve-table1", "probcurve --machine fixtures/table1.json --max-len 4",
     0, "9776ae744ec09a0b8463a57b04bc3b0738999f2ca6619f050866b8fd7f62cfa3"),
    ("decompose-opaque", "decompose --machine builtin:toy-vm -k 2 --max-len 6 --budget 1024",
     0, "a141ff1fd4b1f372ed98b031a645d7ecbdf24d6de0ba9d36f30f3a15ab357659"),
    ("decompose-table1", "decompose --machine fixtures/table1.json -k 1 --max-len 3",
     0, "7e0f6efeeda6b95c1d86a424c761ea5edcc820d323af3730926cfb9a50d31e97"),
    ("decompose-user-table",
     "decompose --machine fixtures/fixture_f.json -k 1 --max-len 2 "
     "--distribution fixtures/dyadic_weights.json",
     0, "a0189a43e4e1f4dd81e076f4b4de6e533ebdebeeb73e1d7b81294751b14b7cfc"),
    ("decompose-loop-free", "decompose --machine builtin:loop-free-vm -k 1 --max-len 5",
     0, "759327919239623d74060ae08d1fcc0fb8130d2d89651f16d70f550fa4fc32f2"),
    # no program of the prefix-free loop-free VM halts among the first indices
    ("decompose-degenerate", "decompose --machine builtin:prefix-free-loop-free-vm -k 2 --max-len 4",
     4, EMPTY),
    # the budget policy: opaque needs one, transparent takes none, positive only
    ("budget-missing", "upsilon --machine builtin:toy-vm --precision 4", 2, EMPTY),
    ("budget-on-transparent", "upsilon --machine fixtures/table1.json --budget 10", 2, EMPTY),
    ("budget-zero", "upsilon --machine builtin:prefix-free-vm --budget 0", 2, EMPTY),
    ("budget-over-64-bits",
     "upsilon --machine builtin:toy-vm --precision 4 --budget 18446744073709551616", 2, EMPTY),
    ("history-horizon-over-64-bits",
     "history --machine builtin:toy-vm --length 2 --horizon 18446744073709551616", 2, EMPTY),
    ("distribution-is-a-directory",
     "threshold --machine fixtures/table1.json -k 1 --distribution fixtures", 2, EMPTY),
    # --precision must be positive on the user-table path too
    ("threshold-precision-zero",
     "threshold --machine builtin:toy-vm -k 2 --precision 0 --budget 64 "
     "--distribution fixtures/dyadic_weights.json", 2, EMPTY),
    ("decide-precision-negative",
     "decide --machine builtin:toy-vm --program 0101 -k 2 --precision -1 --budget 64 "
     "--distribution fixtures/dyadic_weights.json", 2, EMPTY),
    # a flag the command would not use is refused, not dropped
    ("history-t1-without-t0", "history --machine builtin:toy-vm --length 3 --horizon 9 --t1 5",
     2, EMPTY),
    ("density-exclusion-horizon",
     "density --machine builtin:loop-free-vm --mode exclusion --length 1 --horizon 9", 2, EMPTY),
    ("history-csv-t0",
     "history --machine builtin:toy-vm --length 2 --horizon 9 --t0 3 --format csv", 2, EMPTY),
    # a malformed command line is a usage error too: one line, no usage block
    ("upsilon-force-transparent", "upsilon --machine fixtures/table1.json --force", 2, EMPTY),
    ("usage-unknown-flag", "history --machine builtin:toy-vm --length 2 --horizon 9 --bogus",
     2, EMPTY),
    ("usage-bad-int", "upsilon --machine builtin:toy-vm --precision x --budget 64", 2, EMPTY),
    ("usage-missing-required", "history --machine builtin:toy-vm --length 2", 2, EMPTY),
    # 16 programs x 65537 times is 16 cells past the matrix cap of 2^20
    ("history-matrix-too-large",
     "history --machine builtin:loop-free-vm --length 4 --horizon 65537 --format matrix",
     3, EMPTY),
    # results that hold a number past Python's int-to-str digit limit: the
    # target 2^-k at -k 15000, and at -k 14278 only the cutoffs 2^T
    ("threshold-k-too-long", "threshold --machine fixtures/table1.json -k 15000", 3, EMPTY),
    ("decompose-k-too-long", "decompose --machine fixtures/table1.json -k 15000 --max-len 3",
     3, EMPTY),
    ("decompose-cutoffs-too-long", "decompose --machine fixtures/table1.json -k 14278 --max-len 3",
     3, EMPTY),
    # a tail ratio of 99999/100000 puts T(2) past a million: the tail power
    # ratio^T would pass WEIGHT_BIT_LIMIT bits, so T(2) is refused
    ("threshold-tail-near-one",
     "threshold --machine fixtures/table1.json -k 2 --distribution fixtures/near_one_weights.json",
     3, EMPTY),
    ("decompose-tail-near-one",
     "decompose --machine fixtures/table1.json -k 2 --max-len 3 "
     "--distribution fixtures/near_one_weights.json", 3, EMPTY),
    ("decide-tail-near-one",
     "decide --machine fixtures/table1.json --program 0101 -k 2 "
     "--distribution fixtures/near_one_weights.json", 3, EMPTY),
    # at ratio 999/1000, T(86) = 65,653: its tail power, about 654,000 bits,
    # is within WEIGHT_BIT_LIMIT
    ("decide-tail-999-k86",
     "decide --machine fixtures/table1.json --program 0101 -k 86 "
     "--distribution fixtures/slow_tail_weights.json",
     0, "d1438c32c0100def314e1c03511706683be57bfa7222da0eb95c6a1d407e84a7"),
    # the weight 2^-i of a 20-bit program, about 1.9 million bits, and the
    # mass at stop time 600,000 fit WEIGHT_BIT_LIMIT and are built exactly
    ("decide-long-program-table",
     "decide --machine fixtures/long_program_table.json --program 11010010110100101101 -k 5",
     0, "9b0b1ee449d52b0b915a046948b79df02770af6d763841b0233edce3a3e4c92a"),
    ("decompose-late-stop", "decompose --machine fixtures/late_stop_table.json -k 1 --max-len 1",
     0, "3b01e5da5eec6bb2a3037b28f73af5b105ca3d9a61bb216fbbf7e73fb35b3f8c"),
    # an exact stop time of 2^70 does not fit a sweep's 64-bit stop-time array
    ("probcurve-huge-stop", "probcurve --machine fixtures/huge_stop_table.json --max-len 3",
     0, "184b0c033bba1434ad079b05e8187bc52a6538684cb2f3bf8974242d433646a9"),
    # the mass at the stop time 2^70 is that of program 0^70, which never
    # halts: exactly 0, with no weight 2^-(2^70) built
    ("decompose-huge-stop", "decompose --machine fixtures/huge_stop_table.json -k 2 --max-len 3",
     0, "17201e7e5823c3d9fb508db626708e6d9c75ac5b1b1da0175ab22fecef809bca"),
    # the same precision and budget on both series of threshold: the induced
    # normalizer equals upsilon's above, and T(2) = 4
    ("threshold-opaque-precision-cap",
     "threshold --machine builtin:toy-vm -k 2 --precision 17 --budget 524288",
     0, "dfa4ccea92276311c88fe6fdae73d3f5f2ea019b26c3c43436aae900f4776894"),
    ("threshold-user-table-precision-cap",
     "threshold --machine builtin:toy-vm -k 2 --precision 17 --budget 524288 "
     "--distribution fixtures/dyadic_weights.json",
     0, "3b7efddeba3d149384986e8de07675278f68c0b95148a9a4e2e475e1d01bdd08"),
]


def run_cli(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def assert_one_line_error(err):
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def main_captured(argv):
    """(exit code, stdout, stderr) of cli.main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _send_main(argv, send):
    send.send(main_captured(argv))


def main_within(argv, seconds):
    """main_captured(argv) run in a forked child, or None when it has not
    answered within seconds. The child is killed then, so a call that hangs
    fails its test instead of stalling the run. A forked child keeps the
    test's patches and files; the test process runs no other thread."""
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    child = context.Process(target=_send_main, args=(argv, send))
    child.start()
    send.close()
    try:
        return receive.recv() if receive.poll(seconds) else None
    finally:
        child.kill()
        child.join()


@pytest.mark.parametrize(
    "command, code, digest", [case[1:] for case in GOLDEN], ids=[case[0] for case in GOLDEN]
)
def test_golden(command, code, digest, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    got_code, out, err = run_cli(command.split(), capsys)
    assert got_code == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    if code == 0:
        assert err == ""
    else:
        assert_one_line_error(err)


@pytest.mark.parametrize(
    "command, name",
    [
        ("history --machine builtin:toy-vm --length 2 --horizon 18446744073709551616", "horizon"),
        ("upsilon --machine builtin:toy-vm --precision 4 --budget 18446744073709551616", "budget"),
        # exclusion passes its budget to the sweep as the horizon
        ("density --machine builtin:toy-vm --mode exclusion --length 1 "
         "--budget 18446744073709551616", "budget"),
    ],
)
def test_a_number_past_64_bits_is_named(command, name, capsys):
    """A horizon or budget past 2^64 - 1 is refused under its own name."""
    code, out, err = run_cli(command.split(), capsys)
    assert (code, out) == (2, "")
    assert_one_line_error(err)
    (other,) = {"horizon", "budget"} - {name}
    assert name in err and other not in err


@pytest.mark.parametrize(
    "command",
    [
        # the normalizer needs the weight 2^-(2^40) of the 40-bit program 0^40
        "upsilon --machine fixtures/far_index_table.json",
    ],
)
def test_huge_weight_powers_are_refused_at_once(command, capsys, monkeypatch):
    """A weight whose power has more than WEIGHT_BIT_LIMIT bits is refused
    before it is built: exit 3 and a one-line message, not a hang."""
    monkeypatch.chdir(ROOT)
    start = time.perf_counter()
    code, out, err = run_cli(command.split(), capsys)
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert_one_line_error(err)
    assert "weight power" in err


@pytest.mark.parametrize(
    "command, k",
    [
        ("threshold --machine fixtures/table1.json -k 2 "
         "--distribution fixtures/near_one_weights.json", 2),
        ("threshold --machine fixtures/table1.json -k 2 --distribution {ratio_21}", 2),
        ("threshold --machine fixtures/table1.json -k 30000000", 30000000),
    ],
    ids=["near-one", "ratio-1-minus-10^-21", "k-30000000"],
)
def test_tail_thresholds_past_the_power_limit_are_refused_at_once(
    command, k, tmp_path, capsys, monkeypatch
):
    """A T(k) whose tail power passes WEIGHT_BIT_LIMIT is refused before the
    power is built: exit 3 within a second, one line that names T(k). At a
    ratio of 1 - 10^-21 the logarithms that give T(k) stay finite."""
    ratio_21 = tmp_path / "ratio_21.json"
    ratio_21.write_text(json.dumps({
        "kind": "user-table",
        "weights": [["1", "2"]],
        "tail_modulus": {"type": "geometric", "ratio": f"{10**21 - 1}/{10**21}"},
    }))
    monkeypatch.chdir(ROOT)
    start = time.perf_counter()
    code, out, err = run_cli(command.format(ratio_21=ratio_21).split(), capsys)
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert_one_line_error(err)
    assert err.startswith(f"error: T({k}) ")


def test_exclusion_with_violations(tmp_path, capsys, monkeypatch):
    """A bare table with late stops: every candidate is a violation."""
    entries = [{"program": p, "stop_time": t} for p, t in (("00", 600), ("01", 2048), ("10", 3000))]
    (tmp_path / "late.json").write_text(json.dumps({"kind": "table", "entries": entries}))
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli("density --machine late.json --mode exclusion --length 2".split(), capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "8fbb448eab4c1dff68f0993fc990d215897b48f4d1773706d549d97ef261991d"
    )
    report = json.loads(out)
    assert not report["holds"] and report["violations"] == report["candidates"]


def nested_dispatchers(depth):
    """A loop-free VM inside `depth` dispatchers, as JSON text: json.dumps
    cannot encode thousands of levels."""
    head = '{"kind": "dispatcher", "submachines": [' * depth
    return head + '{"kind": "toy-vm", "variant": "loop-free"}' + "]}" * depth


# the characters json escapes, and some it passes through or writes as
# surrogate pairs
TRICKY_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\x80\u2028\ud800\U0001f600\U0010ffff'),
        st.characters(),
    ),
    max_size=8,
)
# the digit limit is 4,300 digits: 10^4299 prints, 10^4300 does not
JSON_INTS = st.one_of(
    st.integers(),
    st.builds(lambda k, sign: sign * 10**k, st.integers(4290, 4310), st.sampled_from([1, -1])),
)
# fractions with a numerator or a denominator on both sides of the limit
FRACTIONS = st.one_of(
    st.fractions(),
    st.builds(Fraction, JSON_INTS, st.integers(1, 10**6)),
    st.builds(lambda n, k: Fraction(n, 10**k), st.integers(-9, 9), st.integers(4290, 4310)),
)
INTERVALS = st.builds(lambda a, b: Interval(min(a, b), max(a, b)), FRACTIONS, FRACTIONS)
SCALARS = st.one_of(st.none(), st.booleans(), JSON_INTS, TRICKY_TEXT, FRACTIONS, INTERVALS)
# (str, int) pairs take the writer's pair path; the near-misses must not
PAIRS = st.tuples(TRICKY_TEXT, JSON_INTS)
NEAR_PAIRS = st.one_of(
    st.tuples(TRICKY_TEXT, st.booleans()),
    st.tuples(TRICKY_TEXT, FRACTIONS),
    st.tuples(TRICKY_TEXT),
    st.tuples(TRICKY_TEXT, JSON_INTS, JSON_INTS),
    PAIRS.map(list),
    SCALARS,
)


@st.composite
def pair_listings(draw):
    """A list or tuple of pairs, sometimes with one near-miss anywhere in it."""
    items = draw(st.lists(PAIRS, min_size=1, max_size=4))
    if draw(st.booleans()):
        items.insert(draw(st.integers(0, len(items))), draw(NEAR_PAIRS))
    return draw(st.sampled_from([list, tuple]))(items)


JSON_VALUES = st.recursive(
    st.one_of(SCALARS, pair_listings()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(TRICKY_TEXT, inner, max_size=4),
    ),
    max_leaves=10,
)


# a listing of more than two blocks, then, under a key that sorts after it,
# an int one digit past the limit
LONG_LISTING_THEN_TOO_LONG_INT = {
    "a": [(bin(i), i) for i in range(2 * cli._BLOCK + 3)],
    "b": 10**4300,
}


def rational_json(value):
    """json.dumps's default for the three types the writer adds: a Fraction
    is its "num/den" string, never a float, an Interval its endpoints and
    width, and a PairListing the list of its pairs."""
    if isinstance(value, Fraction):
        return format_fraction(value)
    if isinstance(value, Interval):
        return {"lo": value.lo, "hi": value.hi, "width": value.width}
    if isinstance(value, PairListing):
        return list(value)
    raise TypeError(f"{value!r} is not JSON serializable")


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(TRICKY_TEXT, JSON_VALUES, max_size=4))
@example({"i": [Interval(Fraction(1, 3), Fraction(1, 2))], "f": Fraction(-4)})
@example({"pairs": [(bin(i), i) for i in range(2 * cli._BLOCK + 3)]})
@example({"pairs": [("\u2028", i) for i in range(2 * cli._BLOCK + 3)] + [("end", True)]})
@example({"a": {"b": [[("x", 1), ("\n", -2)], [], {}, 3]}})
@example(LONG_LISTING_THEN_TOO_LONG_INT)
def test_json_writer_matches_json_dumps(payload):
    try:
        expected = json.dumps(payload, sort_keys=True, indent=2, default=rational_json) + "\n"
    except (ValueError, HaltlabError):
        with pytest.raises(HaltlabError) as refused:
            cli._json(payload)
        assert refused.value.exit_code == 3
        assert isinstance(refused.value.__cause__, ValueError)
    else:
        assert "".join(cli._json(payload)) == expected


def test_pair_listing_through_main_matches_json_dumps(capsys):
    """A history listing of 16,324 (program, stop) pairs, more than three
    blocks of the pair path, is written byte for byte as json.dumps."""
    argv = "history --machine builtin:toy-vm --length 14 --horizon 64".split()
    args = cli.build_parser().parse_args(argv)
    payload = args.handler(load_machine(args.machine), args)
    assert len(payload["stops"]) == 16324 > 3 * cli._BLOCK
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out == json.dumps(payload, sort_keys=True, indent=2, default=rational_json) + "\n"


def test_too_long_int_after_a_long_listing_prints_nothing(capsys, monkeypatch):
    """The writer fails only after it has formatted the whole listing, and
    main still writes nothing: exit 3 with empty stdout."""
    monkeypatch.setattr(cli, "_cmd_history", lambda machine, args: LONG_LISTING_THEN_TOO_LONG_INT)
    code, out, err = run_cli("history --length 1 --horizon 1".split(), capsys)
    assert (code, out) == (3, "")
    assert_one_line_error(err)


class CountingSink:
    """A stdout that keeps only the number of characters written to it."""

    def __init__(self):
        self.written = 0

    def write(self, text):
        self.written += len(text)
        return len(text)

    def writelines(self, parts):
        for part in parts:
            self.write(part)


def traced_run(argv, length, monkeypatch):
    """(characters written, traced peak) of main on argv at this length,
    after a warm run at length 4."""
    argv = argv.split()
    monkeypatch.setattr("sys.stdout", CountingSink())
    assert cli.main([a.format(4) for a in argv]) == 0  # warm the imports
    sink = CountingSink()
    monkeypatch.setattr("sys.stdout", sink)
    tracemalloc.start()
    try:
        assert cli.main([a.format(length) for a in argv]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return sink.written, peak


def test_main_holds_its_output_once(monkeypatch):
    """main hands the writer's parts to stdout without joining them, and the
    sweeps keep narrow arrays, so the 2.9 MB text of a 65,534-program
    decompose peaks under 1.25 times itself (about 1.13 here, 1.52 with
    64-bit arrays and blocks of 4,096 pairs, 2.4 with a join)."""
    argv = "decompose --machine builtin:toy-vm -k 4 --max-len {} --budget 4096"
    written, peak = traced_run(argv, 15, monkeypatch)
    assert written > 2_900_000
    assert peak < 1.25 * written


def test_history_json_peaks_near_its_text(monkeypatch):
    """The 3.1 MB listing of a 65,536-program sweep at horizon 4096 peaks
    under 1.25 times itself (about 1.12 here, 1.49 with 64-bit arrays and
    blocks of 4,096 pairs)."""
    argv = "history --machine builtin:toy-vm --length {} --horizon 4096"
    written, peak = traced_run(argv, 16, monkeypatch)
    assert written > 3_000_000
    assert peak < 1.25 * written


def test_history_csv_is_never_joined(monkeypatch):
    """The history CSV goes to stdout as its blocks of rows, so the 1.25 MB
    text of a 65,536-program sweep peaks under 1.4 times itself (about 1.24
    here, 2.15 with 64-bit arrays and blocks of 4,096 rows, 2.9 with a
    join)."""
    argv = "history --machine builtin:toy-vm --length {} --horizon 64 --format csv"
    written, peak = traced_run(argv, 16, monkeypatch)
    assert written > 1_200_000
    assert peak < 1.4 * written


def history_output(machine, length, horizon, form):
    """What the history handler returns for a loaded machine: the CSV text
    joined, or the matrix dict."""
    args = argparse.Namespace(
        command="history", length=length, horizon=horizon, format=form, t0=None, t1=None
    )
    result = cli._cmd_history(machine, args)
    return result if form == "matrix" else "".join(result)


def test_csv_golden(fixture_f):
    assert history_output(fixture_f, 1, 5, "csv") == "program,stop_time\n0,2\n1,RUNNING\n"


def test_csv_keeps_a_stop_time_past_64_bits():
    table = table_from_stops({"01": 2**70, "10": 3})
    rows = ["program,stop_time", "00,RUNNING", f"01,{2**70}", "10,3", "11,RUNNING", ""]
    assert history_output(table, 2, None, "csv") == "\n".join(rows)


def test_csv_of_an_exact_sweep(loop_free_vm):
    assert history_output(loop_free_vm, 3, None, "csv").count("RUNNING") == 0


def test_csv_matches_the_naive_join(toy_vm):
    """More than two blocks of rows give the same bytes as one join of
    every row."""
    stops = dict(sweep(toy_vm, 14, 16).pairs())
    assert 2**14 > 2 * cli._BLOCK
    lines = ["program,stop_time"]
    for program in all_programs(14):
        stop = stops.get(program)
        lines.append(f"{program},{stop if stop is not None else 'RUNNING'}")
    assert history_output(toy_vm, 14, 16, "csv") == "\n".join(lines) + "\n"


def test_matrix_golden(fixture_f):
    assert history_output(fixture_f, 1, 3, "matrix") == {
        "length": 1,
        "horizon": 3,
        "times": [1, 2, 3],
        "rows": [
            {"program": "0", "cells": ["", "h", "h"]},
            {"program": "1", "cells": ["", "", ""]},
        ],
    }


@pytest.mark.parametrize(
    "payload",
    [{"a": 1.5}, {"a": [1, (2, 0.5)]}, {1: "a"}, {"a": {None: 1}}, {"a": {"b", "c"}}],
    ids=["float", "nested-float", "int-key", "none-key", "set"],
)
def test_json_writer_refuses_other_types(payload):
    with pytest.raises(TypeError):
        cli._json(payload)


GOOD_WEIGHTS = {
    "kind": "user-table",
    "weights": [["1", "2"]],
    "tail_modulus": {"type": "geometric", "ratio": "1/2"},
}


@pytest.mark.parametrize(
    "name, data",
    [
        ("weights.json", {**GOOD_WEIGHTS, "weights": [["1", "0"]]}),
        ("weights.json", {**GOOD_WEIGHTS, "tail_modulus": {"type": "geometric"}}),
        ("machine.json", {"kind": "table", "entries": [{"program": "0", "stop_time": 1, "output": 5}]}),
        ("machine.json", {"kind": "table", "entries": [{"program": "0", "stop_time": True}]}),
        ("weights.json", {**GOOD_WEIGHTS, "weights": [[1.9, 2]]}),
        ("weights.json", {**GOOD_WEIGHTS, "tail_modulus": {"type": "geometric", "ratio": 0.5}}),
        ("machine.json", {"kind": "toy-vm", "isa_version": "\n"}),
        ("machine.json", nested_dispatchers(500)),
        ("machine.json", nested_dispatchers(5000)),
    ],
    ids=[
        "zero-denominator",
        "no-ratio",
        "output-not-string",
        "stop-time-bool",
        "float-weight",
        "float-ratio",
        "isa-version-newline",
        "dispatchers-500-deep",
        "dispatchers-5000-deep",
    ],
)
def test_malformed_json_is_a_usage_error(name, data, tmp_path, capsys):
    (tmp_path / name).write_text(data if isinstance(data, str) else json.dumps(data))
    machine = tmp_path / name if name == "machine.json" else ROOT / "fixtures" / "table1.json"
    argv = ["threshold", "-k", "1", "--machine", str(machine)]
    if name == "weights.json":
        argv += ["--distribution", str(tmp_path / name)]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert_one_line_error(err)


# the arguments of the subcommands that solve a tail threshold
TAIL = {"k": 1, "precision": DEFAULT_PRECISION_BITS, "budget": None, "distribution": None}
PARSE_TABLE = [
    ("history --length 1 --horizon 2",
     {"length": 1, "horizon": 2, "t0": None, "t1": None, "format": "json"}),
    ("upsilon", {"precision": DEFAULT_PRECISION_BITS, "budget": None}),
    ("threshold -k 1", TAIL),
    ("decide -k 1 --program 0", {**TAIL, "program": "0"}),
    ("density --length 1", {"mode": "window", "length": 1, "horizon": None, "budget": None}),
    ("probcurve --max-len 1", {"max_len": 1, "budget": None, "format": "json"}),
    ("decompose -k 1 --max-len 1", {**TAIL, "max_len": 1}),
]


@pytest.mark.parametrize(
    "argv, expected", PARSE_TABLE, ids=[row[0].split()[0] for row in PARSE_TABLE]
)
def test_each_subcommand_parses_to_its_dests_and_defaults(argv, expected):
    """Every dest a subcommand has, with its default, and no other."""
    args = vars(cli.build_parser().parse_args(argv.split()))
    assert callable(args.pop("handler"))
    assert args == {"command": argv.split()[0], "machine": "builtin:toy-vm", **expected}


@pytest.mark.parametrize(
    "argv", ["history --length 1 --horizon 2 --budget 5", "upsilon -k 1",
             "density --length 1 --precision 3", "probcurve --max-len 1 --distribution x"],
)
def test_a_subcommand_refuses_options_it_never_had(argv, capsys):
    code, out, err = run_cli(argv.split(), capsys)
    assert code == 2 and out == ""
    assert_one_line_error(err)
    assert "unrecognized arguments" in err


@pytest.mark.parametrize(
    "command, code",
    [
        ("history --length 99999999999 --horizon 5", 3),
        ("history --length 400000000 --horizon 5", 3),
        ("density --length 400000000 --horizon 5", 2),
        ("density --machine fixtures/table1.json --length 400000000 --horizon 5", 2),
        ("density --machine fixtures/table1.json --length 99999999999 --horizon 5", 2),
        ("threshold --machine fixtures/table1.json -k 99999999999999999999", 3),
        ("threshold --machine fixtures/table1.json -k 4000000000", 3),
        ("decompose --machine fixtures/table1.json -k 99999999999 --max-len 2", 3),
        ("decompose --machine fixtures/table1.json -k 4000000000 --max-len 2", 3),
        # a finite domain's normalizer is exact at any precision
        ("upsilon --machine fixtures/table1.json --precision 1000000000000", 0),
        ("threshold --machine fixtures/table1.json -k 2 --precision 1000000000000", 0),
        ("decide --machine fixtures/table1.json -k 2 --program 01 --precision 1000000000000", 0),
    ],
)
def test_a_huge_size_is_answered_before_its_power_is_built(command, code, monkeypatch):
    """Each of these used to build a power of 2 of the size's order before
    the limit that refuses it, or before the width check that a point
    certificate passes; each now answers within a second."""
    monkeypatch.chdir(ROOT)
    answer = main_within(command.split(), 1.0)
    assert answer is not None, f"no answer within 1 s: {command}"
    assert answer[0] == code
    if code:
        assert answer[1] == ""
        assert_one_line_error(answer[2])
    else:
        assert answer[2] == "" and '"precision": 1000000000000' in answer[1]


# ---------------------------------------------------------------------------
# fuzzing: machine, table and weight JSON with a junk scalar in any field

JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 2**70),
    st.floats(),
    st.text(max_size=3),
)


def field(valid):
    """The valid strategy, with a junk scalar one time in eight."""
    return st.integers(0, 7).flatmap(lambda r: JUNK if r == 7 else valid)


BITS = st.text("01", max_size=4)
ENTRIES = st.lists(
    st.fixed_dictionaries(
        {"program": field(BITS), "stop_time": field(st.integers(1, 300))},
        optional={"output": field(BITS)},
    ),
    max_size=4,
)
TABLES = st.fixed_dictionaries({"kind": field(st.just("table")), "entries": field(ENTRIES)})
VMS = st.fixed_dictionaries(
    {"kind": field(st.sampled_from(["toy-vm", "prefix-free-vm"]))},
    optional={
        "variant": field(st.sampled_from(["full", "loop-free"])),
        "isa_version": field(st.just(1)),
    },
)
LEAVES = st.one_of(TABLES, VMS)
MACHINES = field(st.one_of(
    LEAVES,
    st.fixed_dictionaries(
        {"kind": field(st.just("dispatcher")), "submachines": field(st.lists(LEAVES, max_size=3))}
    ),
))
NUMBERS = field(st.sampled_from(["0", "1", "2", "3", "16", "-1", "1.5"]))
WEIGHTS = st.fixed_dictionaries(
    {
        "kind": field(st.just("user-table")),
        "weights": field(st.lists(field(st.lists(NUMBERS, min_size=2, max_size=2)), max_size=3)),
        "tail_modulus": field(
            st.fixed_dictionaries(
                {
                    "type": field(st.just("geometric")),
                    "ratio": field(st.sampled_from(
                        ["1/2", "1/16", "3/4", "999/1000", "99999/100000", "0", "1", "2/0", "x"]
                    )),
                }
            )
        ),
    }
)


HUGE = (10**11, 10**20)


@st.composite
def cli_calls(draw):
    """argv of one subcommand at small sizes, or with one size in HUGE,
    without --budget. MACHINE and WEIGHTS stand for the files."""
    small = st.integers(1, 4)
    command = draw(st.sampled_from(
        ["decompose", "threshold", "decide", "upsilon", "density", "probcurve", "history"]
    ))
    argv = [command, "--machine", "MACHINE"]
    if command == "history":
        argv += ["--length", draw(st.integers(0, 4)), "--horizon", draw(st.integers(1, 20))]
        fmt = draw(st.sampled_from(["json", "csv", "matrix"]))
        argv += ["--format", fmt]
        if fmt == "json" and draw(st.booleans()):
            argv += ["--t0", draw(st.integers(0, 20)), "--t1", draw(st.integers(0, 20))]
    elif command == "density":
        mode = draw(st.sampled_from(["window", "exclusion"]))
        argv += ["--mode", mode, "--length", draw(small)]
        if mode == "window":
            argv += ["--horizon", draw(st.integers(255, 300))]
    elif command == "probcurve":
        argv += ["--max-len", draw(small), "--format", draw(st.sampled_from(["json", "csv"]))]
    else:
        argv += ["--precision", draw(small)]
        if command != "upsilon":
            argv += ["-k", draw(st.integers(0, 6))]
            if draw(st.booleans()):
                argv += ["--distribution", "WEIGHTS"]
        if command == "decide":
            argv.append(f"--program={draw(field(BITS))}")
        if command == "decompose":
            argv += ["--max-len", draw(small)]
    # now and then one size is huge: a limit checked after a cost of that
    # size would hang (HUGE)
    sizes = [i + 1 for i, a in enumerate(argv) if a in ("--length", "--max-len", "-k", "--precision")]
    at = draw(st.sampled_from([None] * 5 + sizes))
    if at is not None:
        argv[at] = draw(st.sampled_from(HUGE))
    return [str(a) for a in argv]


def fitting_budget(path):
    """None for a transparent machine, 256 for an opaque one (the policy's
    choice), None when the file is not a machine at all."""
    try:
        return None if is_transparent(load_machine(path)) else 256
    except ConfigError:
        return None


# small or refused budgets only: an opaque run may spin up to its budget
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    machine=st.one_of(MACHINES, st.sampled_from(["builtin:toy-vm", "builtin:loop-free-vm"])),
    weights=WEIGHTS,
    argv=cli_calls(),
    budget=st.sampled_from(["fit", "fit", "fit", None, 0, 64, 2**64]),
)
def test_fuzzed_json_never_escapes_the_exit_codes(machine, weights, argv, budget, tmp_path_factory):
    tmp = tmp_path_factory.getbasetemp()
    (tmp / "machine.json").write_text(json.dumps(machine))
    (tmp / "weights.json").write_text(json.dumps(weights))
    path = str(tmp / "machine.json")
    if isinstance(machine, str) and machine.startswith("builtin:"):
        path = machine
    if budget == "fit":
        budget = fitting_budget(path)
    files = {"MACHINE": path, "WEIGHTS": str(tmp / "weights.json")}
    argv = [files.get(a, a) for a in argv]
    if budget is not None and argv[0] != "history":
        argv += ["--budget", str(budget)]
    if {str(size) for size in HUGE}.isdisjoint(argv):
        code, out, err = main_captured(argv)
    else:  # the deadline of a huge size: its limit must come before its cost
        answer = main_within(argv, 1.0)
        assert answer is not None, f"no answer within 1 s: {argv}"
        code, out, err = answer
        event(f"huge size, exit {code}")
    event(f"{argv[0]} exit {code}")
    assert code in {0, 2, 3, 4, 5}
    if code == 0:
        assert err == ""
    else:
        assert out == ""
        assert_one_line_error(err)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """A fresh interpreter without site imports haltlab.cli without loading
    dataclasses or inspect, which with ast, dis and tokenize behind it cost
    more than the rest of the import."""
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import haltlab.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
