"""Golden tests of the command line: exact stdout bytes and exit codes.

Every call goes through cli.main. The config block echoes the --machine
argument, so machine files are named relative to the repository root and the
tests run from there.
"""

import contextlib
import hashlib
import io
import json
import pathlib

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st
import pytest

from haltlab import cli
from haltlab.errors import ConfigError, HaltlabError
from haltlab.machine import is_transparent, load_machine

ROOT = pathlib.Path(__file__).resolve().parent.parent
EMPTY = hashlib.sha256(b"").hexdigest()

# (id, argv, exit code, SHA-256 of stdout)
GOLDEN = [
    ("history-table1", "history --machine fixtures/table1.json --length 3 --horizon 17",
     0, "901626fdca9f3702cf698993b0416c99e8ef7e4b5f136571961d91976631df60"),
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
    # --force lifts the opaque precision cap of 16 bits and is echoed
    ("upsilon-opaque-force",
     "upsilon --machine builtin:toy-vm --precision 17 --budget 524288 --force",
     0, "e1e2e1ce1f0ef490e58bfaee642fbf0c743ca91994f9b59220e54e569785346d"),
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
    ("probcurve-pf-loop-free", "probcurve --machine builtin:prefix-free-loop-free-vm --max-len 8",
     0, "c4bf0978d16a363b7c37d7de4b6bcedf46ebd98655548c03a94165057ea28c05"),
    ("probcurve-total-csv", "probcurve --machine builtin:loop-free-vm --max-len 6 --format csv",
     0, "752392c311e4a07fc1b47570e98901b711a056865c5ef4c32d8ace5ed716bbd2"),
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
    ("upsilon-force-transparent", "upsilon --machine fixtures/table1.json --force", 2, EMPTY),
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
    # a tail ratio of 99999/100000 puts T(2) past a million: the T(k) search
    # refuses at the horizon whose tail power passes POWER_BIT_LIMIT bits
    ("threshold-tail-near-one",
     "threshold --machine fixtures/table1.json -k 2 --distribution fixtures/near_one_weights.json",
     3, EMPTY),
    ("decompose-tail-near-one",
     "decompose --machine fixtures/table1.json -k 2 --max-len 3 "
     "--distribution fixtures/near_one_weights.json", 3, EMPTY),
    ("decide-tail-near-one",
     "decide --machine fixtures/table1.json --program 0101 -k 2 "
     "--distribution fixtures/near_one_weights.json", 3, EMPTY),
    # at ratio 999/1000, T(86) = 65,653 is past the doubling step 65,536 but
    # within the power limit: the search stops doubling at the limit
    ("decide-tail-999-k86",
     "decide --machine fixtures/table1.json --program 0101 -k 86 "
     "--distribution fixtures/slow_tail_weights.json",
     0, "d1438c32c0100def314e1c03511706683be57bfa7222da0eb95c6a1d407e84a7"),
    # the power limit binds only the T(k) search: the weight 2^-i of a
    # 20-bit program and the mass at stop time 600,000 are built exactly
    ("decide-long-program-table",
     "decide --machine fixtures/long_program_table.json --program 11010010110100101101 -k 5",
     0, "9b0b1ee449d52b0b915a046948b79df02770af6d763841b0233edce3a3e4c92a"),
    ("decompose-late-stop", "decompose --machine fixtures/late_stop_table.json -k 1 --max-len 1",
     0, "3b01e5da5eec6bb2a3037b28f73af5b105ca3d9a61bb216fbbf7e73fb35b3f8c"),
    # threshold, decide and decompose have no --force: they refuse past the opaque cap
    ("threshold-opaque-precision-cap",
     "threshold --machine builtin:toy-vm -k 2 --precision 17 --budget 524288", 2, EMPTY),
]


def run_cli(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def assert_one_line_error(err):
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


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
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), JSON_INTS, TRICKY_TEXT),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(TRICKY_TEXT, inner, max_size=4),
    ),
    max_leaves=10,
)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(TRICKY_TEXT, JSON_VALUES, max_size=4))
def test_json_writer_matches_json_dumps(payload):
    try:
        expected = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    except ValueError:
        with pytest.raises(HaltlabError) as refused:
            cli._json(payload)
        assert refused.value.exit_code == 3
        assert isinstance(refused.value.__cause__, ValueError)
    else:
        assert cli._json(payload) == expected


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


@st.composite
def cli_calls(draw):
    """argv of one subcommand at small sizes, without --budget. MACHINE and
    WEIGHTS stand for the files."""
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
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    event(f"{argv[0]} exit {code}")
    assert code in {0, 2, 3, 4, 5}
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert out.getvalue() == ""
        assert_one_line_error(err.getvalue())
