import contextlib
import importlib.util
import io
import json
import os
import pathlib
import resource
import subprocess
import sys
import time
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

import upq_packets
from upq_packets.cli import main
from upq_packets.cohind import InductionDescriptor
from upq_packets.packets import (AParameter, d_zero, epsilon, inf_char,
                                 lowest_weight_of_packet, member, oracle_contains, packet)
from upq_packets.weights import GroupSignature, KWeight, inf_char_of_lowest_weight

GOLDEN = pathlib.Path(__file__).parent / "golden"
ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_psi_golden(capsys):
    for args, name in [
        (("classify-psi", "--p", "1", "--q", "1", "--psi", '[{"t":0,"a":2}]'),
         "u11_trivial_classify_psi.json"),
        (("classify-psi", "--p", "1", "--q", "1", "--psi",
          '[{"t":1,"a":1},{"t":-1,"a":1}]'), "u11_ds_classify_psi.json"),
        (("classify-psi", "--p", "1", "--q", "2", "--psi",
          '[{"t":1,"a":2},{"t":-2,"a":1}]'), "u12_classify_psi.json"),
    ]:
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        assert out == (GOLDEN / name).read_text()


def test_classify_lambda_golden(capsys):
    code, out, _ = run_cli(capsys, "classify-lambda", "--p", "1", "--q", "1",
                           "--lambda", "[1,0]")
    assert code == 0
    assert out == (GOLDEN / "u11_lds_classify_lambda.json").read_text()


@pytest.mark.parametrize("args, name", [
    # A stack that trapa_normalize leaves as placed.
    (("--p", "1", "--q", "2", "--blocks", "[[1,1],[0,1]]", "--values", "[0,0]"),
     "u12_tableau.json"),
    # [0,3] over {2}: the right block sinks and the pair is rewritten.
    (("--p", "2", "--q", "3", "--blocks", "[[2,2],[0,1]]", "--values", "[1,4]"),
     "u23_moved_tableau.json"),
], ids=["unmoved", "moved"])
def test_tableau_golden(capsys, args, name):
    # The whole output, its rewritten stack's boxes included.
    code, out, _ = run_cli(capsys, "tableau", *args)
    assert code == 0
    assert out == (GOLDEN / name).read_text()


def test_output_is_byte_stable(capsys):
    args = ("classify-psi", "--p", "1", "--q", "2", "--psi",
            '[{"t":1,"a":2},{"t":-2,"a":1}]')
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_packet_subcommand(capsys):
    code, out, _ = run_cli(capsys, "packet", "--p", "1", "--q", "1", "--psi",
                           '[{"t":1,"a":1},{"t":-1,"a":1}]')
    assert code == 0
    obj = json.loads(out)
    assert len(obj["members"]) == 2
    assert [m["nonzero"] for m in obj["members"]] == [True, True]
    assert obj["members"][0]["epsilon"] == [1, 1]
    assert obj["members"][1]["epsilon"] == [-1, -1]


def test_tableau_subcommand_json_and_ascii(capsys):
    args = ("tableau", "--p", "1", "--q", "2", "--blocks", "[[1,1],[0,1]]",
            "--values", "[0,0]")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    obj = json.loads(out)
    assert not obj["zero"]
    assert obj["ann"]["columns"] == [[{"twice": 2}, {"twice": 0}], [{"twice": -2}]]

    code, out, _ = run_cli(capsys, *args, "--output", "ascii")
    assert code == 0
    assert out.splitlines() == ["[1+][-1-]", "[0-]"]


def test_ascii_renders_same_values_as_json(capsys):
    # Both modes must come from the same invariant pair: the ascii boxes
    # enumerate exactly the json entries row by row.
    args = ("tableau", "--p", "2", "--q", "1", "--blocks", "[[2,0],[0,1]]",
            "--values", "[0,2]")
    _, js, _ = run_cli(capsys, *args)
    obj = json.loads(js)
    _, ascii_out, _ = run_cli(capsys, *args, "--output", "ascii")
    cols = [[e["twice"] for e in c] for c in obj["ann"]["columns"]]
    n_rows = len(cols[0])
    rows = [[col[r] for col in cols if len(col) > r] for r in range(n_rows)]
    got_rows = []
    for line in ascii_out.splitlines():
        boxes = line.strip("[]").split("][")
        entries = []
        for b in boxes:
            val = b[:-1]
            entries.append(int(val[:-2]) if val.endswith("/2") else 2 * int(val))
        got_rows.append(entries)
    assert got_rows == rows


def test_tableau_zero(capsys):
    code, out, _ = run_cli(capsys, "tableau", "--p", "2", "--q", "0",
                           "--blocks", "[[1,0],[1,0]]", "--values", "[0,1]")
    assert code == 0
    assert json.loads(out)["zero"] is True


def test_invalid_inputs_exit_2(capsys):
    code, _, err = run_cli(capsys, "classify-psi", "--p", "1", "--q", "1",
                           "--psi", '[{"t":1,"a":2}]')
    assert code == 2
    assert "t + a + N" in json.loads(err)["message"]

    code, _, err = run_cli(capsys, "classify-lambda", "--p", "1", "--q", "1",
                           "--lambda", "[0,1]")
    assert code == 2

    code, _, err = run_cli(capsys, "tableau", "--p", "1", "--q", "1",
                           "--blocks", "[[0,1],[1,0]]", "--values", "[-1,1]")
    assert code == 2
    assert "mediocre" in json.loads(err)["message"]

    # Bad sweep bounds and non-integer numbers are refused, never coerced.
    for argv in (
            ("verify", "--max-n", "0", "--window", "2"),
            ("verify", "--max-n", "2", "--window", "-1"),
            ("verify", "--max-n", "2", "--window", "2", "--char-window", "-1"),
            ("verify", "--max-n", "2", "--window", "2", "--jobs", "0"),
            ("verify", "--max-n", "2", "--window", "2", "--jobs", "-3"),
            ("classify-lambda", "--p", "1", "--q", "1", "--lambda", "[1.5,0]"),
            ("classify-lambda", "--p", "1", "--q", "1", "--lambda", "[true,false]"),
            ("tableau", "--p", "1", "--q", "1", "--blocks", "[[1,1]]",
             "--values", "[0.5]"),
            ("tableau", "--p", "1", "--q", "0", "--blocks", "[[1.5,0]]",
             "--values", "[0]"),
            ("classify-psi", "--p", "1", "--q", "1", "--psi", '[{"t":1.5,"a":2}]'),
            ("packet", "--p", "1", "--q", "1", "--psi", '[{"t":0.5,"a":2}]')):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert json.loads(err)["error"] == "invalid-input", argv

    code, _, err = run_cli(capsys, "classify-psi", "--p", "1", "--q", "1",
                           "--psi", "{}")
    assert code == 2
    assert "--psi must be a JSON list" in json.loads(err)["message"]


def test_verify_subcommand(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "2", "--window", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True
    assert obj["mismatches"] == []
    assert obj["instances_checked"] > 0


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "upq_packets.cli", "classify-psi", "--p", "1",
         "--q", "1", "--psi", '[{"t":0,"a":2}]'],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["lowest_k_type"] == [0, 0]


def test_verify_refuses_a_sweep_too_large_to_list():
    # Listing the signatures up to N = 10^6 would take all memory; the
    # count is refused before anything is listed.
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(upq_packets.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "upq_packets.cli", "verify",
                           "--max-n", "1000000", "--window", "1"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    err = json.loads(proc.stderr)
    assert err["error"] == "invalid-input"
    assert "500001500000 signatures" in err["message"]


def _limit_memory():
    # A child that starts listing is stopped at 1 GiB of address space.
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("argv, count", [
    # U(15, 15) alone has C(21, 6)^2 = 2,944,581,696 weights, but the
    # first signature past the limit is U(0, 11).
    (["--max-n", "30", "--window", "3", "--jobs", "2"], "1496848 together"),
    # U(0, 1) has 2,000,000,001 weights at this window.
    (["--max-n", "1", "--window", "1000000000"], "4000000004 together"),
], ids=["n30-jobs2", "window-1e9"])
def test_verify_refuses_a_signature_too_large_to_list(argv, count):
    # The weights and parameters of each signature are counted before any
    # is listed, and a count past the limit is refused at once.
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(upq_packets.__file__).parents[1]))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "upq_packets.cli", "verify", *argv],
                          capture_output=True, text=True, env=env, timeout=60,
                          preexec_fn=_limit_memory)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    err = json.loads(proc.stderr)
    assert err["error"] == "invalid-input"
    assert count in err["message"]
    # Interpreter start-up included; listing would take minutes, or all memory.
    assert elapsed < 5, elapsed


@pytest.mark.parametrize("argv", [
    ["tableau", "--p", "50000000", "--q", "50000000", "--blocks", "[[50000000,50000000]]",
     "--values", "[0]"],
    ["classify-psi", "--p", "50000000", "--q", "50000000", "--psi", '[{"t":0,"a":100000000}]'],
    ["packet", "--p", "50000000", "--q", "50000000", "--psi", '[{"t":0,"a":100000000}]'],
    ["classify-lambda", "--p", "50000000", "--q", "50000000", "--lambda", "[0]"],
], ids=["tableau", "classify-psi", "packet", "classify-lambda"])
def test_a_query_of_too_large_a_rank_is_refused_before_anything_is_built(argv):
    # N = 10^8: building its one block, its one summand's segment or its
    # weight would take gigabytes, so the rank is refused first.
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(upq_packets.__file__).parents[1]))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "upq_packets.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60,
                          preexec_fn=_limit_memory)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    err = json.loads(proc.stderr)
    assert err == {"error": "invalid-input",
                   "message": "U(50000000,50000000) has rank N = 100000000, more than "
                              "the limit of 1000"}
    assert elapsed < 5, elapsed


def test_the_rank_limit_admits_n_1000_and_refuses_n_1001(capsys):
    # One summand of U(500, 500) is answered; one more coordinate is not.
    code, out, _ = run_cli(capsys, "classify-psi", "--p", "500", "--q", "500",
                           "--psi", '[{"t":0,"a":1000}]')
    assert code == 0 and json.loads(out)["contains"] is True
    code, out, err = run_cli(capsys, "classify-psi", "--p", "501", "--q", "500",
                             "--psi", '[{"t":0,"a":1001}]')
    assert (code, out) == (2, "")
    assert "rank N = 1001, more than the limit of 1000" in json.loads(err)["message"]


def test_packet_of_many_summands_gets_no_traceback():
    # 990 summands chi_t * S_1 of U(0, 990): D(psi) holds one datum of 990
    # blocks, which enumerate_D reaches without a call per block.
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(upq_packets.__file__).parents[1]))
    psi = json.dumps([{"t": t, "a": 1} for t in range(989, -990, -2)])
    proc = subprocess.run([sys.executable, "-m", "upq_packets.cli", "packet",
                           "--p", "0", "--q", "990", "--psi", psi],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert len(json.loads(proc.stdout)["members"]) == 1


def test_packet_with_too_many_members_is_refused_before_it_is_built():
    # 22 summands chi_t * S_1 of U(11, 11): D(psi) holds C(22, 11) = 705,432
    # data, more than a packet may hold, so the count is refused at once.
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(upq_packets.__file__).parents[1]))
    psi = json.dumps([{"t": t, "a": 1} for t in range(21, -22, -2)])
    proc = subprocess.run([sys.executable, "-m", "upq_packets.cli", "packet",
                           "--p", "11", "--q", "11", "--psi", psi],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    err = json.loads(proc.stderr)
    assert err["error"] == "invalid-input"
    assert "705432 members" in err["message"]


def test_classify_lambda_at_n_1000_gets_no_traceback():
    # lambda = (1000, ..., 1) on U(0, 1000): its character has one segment
    # partition, which partition_into_segments reaches without a call per
    # part.
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(upq_packets.__file__).parents[1]))
    lam = json.dumps(list(range(1000, 0, -1)))
    proc = subprocess.run([sys.executable, "-m", "upq_packets.cli", "classify-lambda",
                           "--p", "0", "--q", "1000", "--lambda", lam],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert len(json.loads(proc.stdout)["packets"]) == 1


def test_classify_lambda_with_too_many_segment_partitions_is_refused():
    # lambda = 0 on U(0, 1000): its character is one segment of 1000
    # values, with 2^999 segment partitions.  They are counted, not listed,
    # and the count is refused at once.
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(upq_packets.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "upq_packets.cli", "classify-lambda",
                           "--p", "0", "--q", "1000", "--lambda", json.dumps([0] * 1000)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    err = json.loads(proc.stderr)
    assert err["error"] == "invalid-input"
    assert f"{2 ** 999} partitions" in err["message"]


def test_classify_lambda_at_the_segment_partition_limit_is_answered(capsys):
    # lambda = 0 on U(0, q) has 2^(q-1) segment partitions, each a packet
    # that contains it: q = 15 reaches the limit and is answered, q = 16
    # passes it and is refused.
    limit = upq_packets.halfint._MAX_SEGMENT_PARTITIONS
    code, out, _ = run_cli(capsys, "classify-lambda", "--p", "0", "--q", "15",
                           "--lambda", json.dumps([0] * 15))
    assert code == 0
    assert len(json.loads(out)["packets"]) == 2 ** 14 == limit
    code, out, err = run_cli(capsys, "classify-lambda", "--p", "0", "--q", "16",
                             "--lambda", json.dumps([0] * 16))
    assert code == 2 and out == ""
    assert f"{2 ** 15} partitions into segments, more than the limit of {limit}" in err


# Every subcommand, ascii output then the default, verify with and without
# --char-window, and argparse errors (a missing flag, a bad choice) between
# well-formed calls.
REUSE_SEQUENCE = [
    ["classify-psi", "--p", "1", "--q", "2", "--psi", '[{"t":1,"a":2},{"t":-2,"a":1}]',
     "--output", "ascii"],
    ["classify-psi", "--p", "1", "--q", "2", "--psi", '[{"t":1,"a":2},{"t":-2,"a":1}]'],
    ["classify-lambda", "--p", "1", "--q", "1", "--lambda", "[1,0]", "--output", "ascii"],
    ["packet", "--p", "1", "--q", "1", "--psi", '[{"t":1,"a":1},{"t":-1,"a":1}]',
     "--output", "ascii"],
    ["packet", "--p", "1"],
    ["packet", "--p", "1", "--q", "1", "--psi", '[{"t":1,"a":1},{"t":-1,"a":1}]'],
    ["classify-lambda", "--p", "1", "--q", "1", "--lambda", "[1,0]"],
    ["tableau", "--p", "1", "--q", "2", "--blocks", "[[1,1],[0,1]]", "--values", "[0,0]",
     "--output", "xml"],
    ["tableau", "--p", "1", "--q", "2", "--blocks", "[[1,1],[0,1]]", "--values", "[0,0]"],
    ["verify", "--max-n", "2", "--window", "1", "--char-window", "3"],
    ["verify", "--max-n", "2", "--window", "1"],
    ["classify-psi", "--p", "1", "--q", "1", "--psi", '[{"t":1,"a":2}]'],
]


def test_calls_in_one_process_match_fresh_interpreters(monkeypatch):
    # main reuses one parser per process; no call may see another's flags.
    # A fixed width keeps argparse's usage lines alike on both sides.
    monkeypatch.setenv("COLUMNS", "80")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(upq_packets.__file__).parents[1]))
    codes = set()
    for argv in REUSE_SEQUENCE:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
        fresh = subprocess.run([sys.executable, "-m", "upq_packets.cli", *argv],
                               capture_output=True, text=True, env=env)
        assert (code, out.getvalue(), err.getvalue()) == (
            fresh.returncode, fresh.stdout, fresh.stderr), argv
        codes.add(code)
    assert codes == {0, 2}


small_ints = st.integers(-6, 6)
# Arbitrary JSON, small enough that a well-formed draw stays cheap.
json_values = st.recursive(
    st.none() | st.booleans() | small_ints | st.floats() | st.text(max_size=4),
    lambda kids: (st.lists(kids, max_size=4)
                  | st.dictionaries(st.sampled_from(("t", "a")) | st.text(max_size=2),
                                    kids, max_size=4)),
    max_leaves=12)
# Per flag, payloads of the expected shape too, so that some queries get
# past the parsers and are answered.
shaped = {
    "--psi": st.lists(st.fixed_dictionaries({"t": small_ints, "a": st.integers(0, 4)}),
                      max_size=4),
    "--lambda": st.lists(small_ints, max_size=6),
    "--blocks": st.lists(st.lists(st.integers(0, 3), min_size=2, max_size=2), max_size=4),
    "--values": st.lists(small_ints, max_size=4),
}
FLAGS = {"classify-psi": ("--psi",), "classify-lambda": ("--lambda",),
         "packet": ("--psi",), "tableau": ("--blocks", "--values")}


@st.composite
def cli_argvs(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command, f"--p={draw(st.integers(0, 3))}", f"--q={draw(st.integers(0, 3))}",
            f"--output={draw(st.sampled_from(('json', 'ascii')))}"]
    # "--flag=value" keeps a payload such as -1e-05 from reading as a flag.
    return argv + [f"{flag}={json.dumps(draw(json_values | shaped[flag]))}"
                   for flag in FLAGS[command]]


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(cli_argvs())
def test_cli_contract_holds_for_any_payload(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), argv
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if err.getvalue():
        assert json.loads(err.getvalue())["error"] in (
            "invalid-input", "internal-inconsistency"), argv


def member_json(psi, m):
    """A member of psi's packet as a tree of dicts and lists, each part
    from its own `to_json` or from epsilon: the reference that
    `cli._members_json` writes as text."""
    obj = {"descriptor": InductionDescriptor(m.d, psi._values).to_json(),
           "epsilon": list(epsilon(psi, m.d)), "nonzero": m.nonzero}
    if m.invariants is not None:
        ann, as_tab = m.invariants
        obj["ann"] = ann.to_json()
        obj["as"] = as_tab.to_json()
    return obj


def reference_json(argv):
    """The `packet` or `classify-psi` payload of argv as the tree that
    member_json and the `to_json` methods build, through `json.dumps`."""
    command, flags = argv[0], dict(zip(argv[1::2], argv[2::2]))
    sig = GroupSignature(int(flags["--p"]), int(flags["--q"]))
    psi = AParameter.from_summands(sig, [(s["t"], s["a"]) for s in json.loads(flags["--psi"])])
    tree = {"psi": psi.to_json(), "inf_char": inf_char(psi).to_json()}
    if command == "packet":
        tree["members"] = [member_json(psi, m) for m in packet(psi)]
    else:
        w, d0 = lowest_weight_of_packet(psi), d_zero(psi)
        tree["member"] = {**member_json(psi, member(psi, d0)),
                          "d0": [list(b) for b in d0.blocks]}
        tree.update(contains=w is not None, lowest_k_type=list(w.lam) if w is not None else None)
    return json.dumps(tree, sort_keys=True, indent=2) + "\n"


def assert_written_as_json_dumps(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0, argv
    assert out.getvalue() == reference_json(argv), argv


def perfbench_queries(name, seed, count):
    """The first count queries of a perfbench workload's stream."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up
    spec.loader.exec_module(workloads)
    return workloads.generate_queries(workloads.WORKLOADS[name], seed, count)[0][:count]


def test_member_json_matches_json_dumps_on_large_packets():
    for seed in (1, 5):
        for argv in perfbench_queries("packets-large", seed, 44):
            assert_written_as_json_dumps(argv)


def test_member_json_matches_json_dumps_on_mixed_queries():
    queries = [argv for argv in perfbench_queries("queries-mixed", 1, 360)
               if argv[0] in ("packet", "classify-psi")]
    assert len(queries) == 240
    for argv in queries:
        assert_written_as_json_dumps(argv)


def written_out_good_parameters(sig, chi):
    # Every good parameter with infinitesimal character chi, found without
    # partition_into_segments: summands (t, a) whose segments lie in chi are
    # taken in canonical order (t, then a, decreasing), each as often as
    # chi has room, until they cover chi exactly.  Parameters are listed
    # in the order of their summand lists, as the package lists them.
    need = Counter(chi.twice)
    values = sorted(need)
    fits = sorted({((lo + hi) // 2, (hi - lo) // 2 + 1) for lo in values for hi in values
                   if lo <= hi and (hi - lo) % 2 == 0
                   and all(need[v] for v in range(lo, hi + 1, 2))}, reverse=True)
    found = []

    def rec(k, left, acc):
        if not left:
            found.append(tuple(acc))
            return
        for i in range(k, len(fits)):
            t, a = fits[i]
            span = range(t - a + 1, t + a, 2)
            if all(need[v] for v in span):
                for v in span:
                    need[v] -= 1
                rec(i, left - a, acc + [(t, a)])
                for v in span:
                    need[v] += 1

    rec(0, chi.size, [])
    return [AParameter(sig, summands) for summands in sorted(found)]


def test_classify_lambda_lists_what_the_oracle_finds_over_a_written_out_enumeration():
    # perfbench replays classify-lambda against oracle_contains over the
    # package's own enumerator, so a partition dropped or listed twice would
    # pass it; this replay enumerates the parameters independently.
    for seed in (1, 5):
        queries = [argv for argv in perfbench_queries("queries-mixed", seed, 360)
                   if argv[0] == "classify-lambda"]
        assert len(queries) == 120
        for argv in queries:
            flags = dict(zip(argv[1::2], argv[2::2]))
            sig = GroupSignature(int(flags["--p"]), int(flags["--q"]))
            w = KWeight(sig, tuple(json.loads(flags["--lambda"])))
            expected = [psi.to_json() for psi in
                        written_out_good_parameters(sig, inf_char_of_lowest_weight(w))
                        if oracle_contains(psi, w)]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(list(argv)) == 0, argv
            assert json.loads(out.getvalue())["packets"] == expected, argv


@st.composite
def small_psi_argvs(draw):
    n = draw(st.integers(1, 5))
    p = draw(st.integers(0, n))
    sizes = [1]
    for cut in draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1)):
        if cut:
            sizes.append(1)
        else:
            sizes[-1] += 1
    # t + a + N must be even.
    summands = [{"t": 2 * draw(st.integers(-2, 2)) + (a + n) % 2, "a": a} for a in sizes]
    return [draw(st.sampled_from(("packet", "classify-psi"))), "--p", str(p),
            "--q", str(n - p), "--psi", json.dumps(summands)]


# Pinned examples: p = 0 and q = 0 with a vanishing holomorphic member, and a
# packet whose first and last members vanish.
@settings(derandomize=True, deadline=None, max_examples=300)
@example(["classify-psi", "--p", "0", "--q", "2", "--psi", '[{"t":1,"a":1},{"t":1,"a":1}]'])
@example(["packet", "--p", "2", "--q", "0", "--psi", '[{"t":1,"a":1},{"t":1,"a":1}]'])
@example(["packet", "--p", "2", "--q", "1", "--psi",
          '[{"t":0,"a":1},{"t":0,"a":1},{"t":0,"a":1}]'])
@given(small_psi_argvs())
def test_member_json_matches_json_dumps_on_drawn_psi(argv):
    assert_written_as_json_dumps(argv)


# The packet is 111 kB of JSON, more than a pipe holds (64 kB on Linux), so
# the writer is still writing when the reader goes away.
CLOSED_EARLY = [
    ["packet", "--p", "4", "--q", "4", "--psi",
     '[{"t":-9,"a":1},{"t":-7,"a":1},{"t":-4,"a":2},{"t":1,"a":1},{"t":3,"a":1},'
     '{"t":5,"a":1},{"t":7,"a":1}]'],
    ["verify", "--max-n", "3", "--window", "2"],
]


def test_a_reader_that_closes_stdout_early_gets_no_traceback():
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(upq_packets.__file__).parents[1]))
    for argv in CLOSED_EARLY:
        proc = subprocess.Popen([sys.executable, "-m", "upq_packets.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) in (0, 2, 3), argv
        assert err == b"", argv
