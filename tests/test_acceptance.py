"""Acceptance suite: every release criterion at its stated window.

The expensive verification sweep (signatures up to N = 6, weight window 3,
character window 4) runs once per test run, over one worker process per
CPU (the report does not depend on the number of workers), and its report
backs the theorem-equivalence, uniqueness, and structural criteria.  Each
criterion prints one PASS/FAIL line; all comparisons are exact.
"""

import hashlib
import json
import os
import pathlib

import pytest

from upq_packets.cli import main as cli_main
from upq_packets.cohind import (holomorphic_lowest_ktype, lowest_weight_invariants,
                                normalize_blocks, realize_lowest_weight, segments_of,
                                tableau_pair)
from upq_packets.halfint import HalfInt
from upq_packets.oracle import SweepConfig, dominant_weights, sweep_verify
from upq_packets.tableaux import PLUS
from upq_packets.weights import (GroupSignature, inf_char_of_lowest_weight,
                                 is_unitarizable)

from test_properties import segment_multiset

MAX_N = 6
WEIGHT_WINDOW = 3
CHAR_WINDOW = HalfInt.whole(4)
GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def report():
    cfg = SweepConfig(max_N=MAX_N, weight_window=WEIGHT_WINDOW,
                      char_window=CHAR_WINDOW)
    return sweep_verify(cfg, jobs=os.cpu_count() or 1)


def _failures(report, kinds):
    bad = [m for m in report.mismatches if m["kind"] in kinds]
    bad += [f for f in report.property_failures if f["kind"] in kinds]
    return bad


def _verdict(name, bad, detail):
    line = f"{'PASS' if not bad else 'FAIL'} {name}: {detail}"
    if bad:
        line += f"; first failure: {json.dumps(bad[0], sort_keys=True)}"
    print(line)
    assert not bad, line


def _swept_weights():
    for p in range(0, MAX_N + 1):
        for q in range(0, MAX_N + 1 - p):
            if p + q < 1:
                continue
            sig = GroupSignature(p, q)
            for w in dominant_weights(sig, WEIGHT_WINDOW):
                if is_unitarizable(w):
                    yield w


def test_report_is_pinned(report):
    # The sweep's report, byte for byte: any change to its counts, its
    # mismatch lists or their order shows here.
    assert report.instances_checked == 112652
    assert report.counts == {"membership-pairs": 36564, "packets": 69719,
                             "two-block": 1130, "weights": 5239}
    assert (hashlib.sha256(report.dumps().encode()).hexdigest()
            == "91be772d9b1e830296f3a26b3e8c01df4b68bff21ecbb279d287138eb0a29987")


def test_criterion_1_membership_equivalence(report):
    bad = _failures(report, {"theorem-main", "membership-error"})
    _verdict("criterion 1 (packet membership == tableau oracle)", bad,
             f"{report.counts.get('membership-pairs', 0)} (psi, lambda) pairs, "
             f"N <= {MAX_N}, |lambda_i| <= {WEIGHT_WINDOW}, exact")


def test_criterion_2_lowest_weight_extraction(report):
    bad = _failures(report, {"lowest-weight-extraction", "extraction-error",
                             "packet-uniqueness"})
    _verdict("criterion 2 (lowest K-type extraction == oracle)", bad,
             f"{report.counts.get('packets', 0)} good parameters, N <= {MAX_N}, "
             f"chi entries within {CHAR_WINDOW}, exact")


def test_criterion_3_uniqueness(report):
    bad = _failures(report, {"packet-uniqueness", "multiplicity-one",
                             "lowest-weight-member-not-holomorphic",
                             "holomorphic-candidate"})
    _verdict("criterion 3 (at most one lowest weight member, at d0)", bad,
             f"{report.counts.get('packets', 0)} packets checked, exact")


def test_criterion_4_two_block_nonvanishing(report):
    bad = _failures(report, {"two-block-nonvanishing", "two-block-error"})
    _verdict("criterion 4 (two-block nonvanishing criterion)", bad,
             f"{report.counts.get('two-block', 0)} mediocre two-block data, "
             f"N <= {MAX_N}, value window width 8, exact")


def test_criterion_5_round_trip(report):
    bad = _failures(report, {"round-trip", "realization-inf-char",
                             "inf-char-vs-PQ", "round-trip-extraction",
                             "round-trip-membership"})
    count = 0
    for w in _swept_weights():
        desc = realize_lowest_weight(w)
        assert holomorphic_lowest_ktype(desc) == w
        assert segment_multiset(segments_of(desc)) == inf_char_of_lowest_weight(w)
        count += 1
    _verdict("criterion 5 (realize/K-type round trip)", bad,
             f"{count} unitarizable weights, exact")


def test_criterion_6_structural_corollaries(report):
    bad = _failures(report, {"lowest-weight-invariants", "normalize-blocks",
                             "absorb-adjacent", "idempotence"})
    shapes = 0
    rewrites = 0
    for w in _swept_weights():
        ann, as_tab = lowest_weight_invariants(w)
        assert as_tab.n_columns <= 2
        for length, first in as_tab.rows:
            assert length <= 2 and (length != 2 or first == PLUS)
        desc = realize_lowest_weight(w)
        shapes += 1
        try:
            five = normalize_blocks(desc)
        except ValueError:
            continue
        before, after = tableau_pair(desc), tableau_pair(five)
        assert before.invariants == after.invariants
        rewrites += 1
    _verdict("criterion 6 (two-column supports; rewrites preserve invariants)",
             bad, f"{shapes} signed tableaux, {rewrites} block rewrites, exact")


def test_criterion_7_worked_fixtures(capsys):
    cases = [
        (("classify-psi", "--p", "1", "--q", "1", "--psi", '[{"t":0,"a":2}]'),
         "u11_trivial_classify_psi.json"),
        (("classify-psi", "--p", "1", "--q", "1", "--psi",
          '[{"t":1,"a":1},{"t":-1,"a":1}]'), "u11_ds_classify_psi.json"),
        (("classify-lambda", "--p", "1", "--q", "1", "--lambda", "[1,0]"),
         "u11_lds_classify_lambda.json"),
        (("classify-psi", "--p", "1", "--q", "2", "--psi",
          '[{"t":1,"a":2},{"t":-2,"a":1}]'), "u12_classify_psi.json"),
    ]
    bad = []
    for args, name in cases:
        code = cli_main(list(args))
        out = capsys.readouterr().out
        if code != 0 or out != (GOLDEN / name).read_text():
            bad.append({"fixture": name})
    with capsys.disabled():
        _verdict("criterion 7 (worked fixtures reproduce byte-for-byte)", bad,
                 f"{len(cases)} golden files")


def test_criterion_8_holomorphic_candidate_properties(report):
    bad = _failures(report, {"holomorphic-candidate-property"})
    _verdict("criterion 8 (structural properties of the holomorphic candidate)",
             bad, "items 1-8 on every packet containing a lowest weight module")


def test_report_is_ok(report):
    # A failure of a kind that no criterion above lists fails here.
    _verdict("whole report ok", report.mismatches + report.property_failures,
             f"{report.instances_checked} instances checked")
