"""Command-line front end.

Subcommands: classify-psi (does a packet contain a lowest weight module,
and which), classify-lambda (all packets containing a given lowest weight
module), packet (full member dump), tableau (invariants of an explicit
induction datum), verify (the exhaustive sweep).  Output is canonical JSON
(sorted keys, deterministic list orders) or an ASCII rendering of the same
values.  Exit codes: 0 ok, 2 invalid input, 3 internal inconsistency.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Callable

from .cohind import InductionDescriptor, ThetaData, tableau_pair
from .errors import InternalInconsistencyError
from .halfint import HalfInt, _json_dumps
from .oracle import SweepConfig, sweep_verify
from .packets import (AParameter, PacketMember, d_zero, epsilon, inf_char,
                      lowest_weight_of_packet, packet, packets_containing)
from .tableaux import MINUS, PLUS, AntiTableau, SignedTableau
from .weights import GroupSignature, KWeight, is_unitarizable


class InputError(ValueError):
    pass


def render_pair_ascii(ann: AntiTableau, as_tab: SignedTableau) -> str:
    """One row per line, each box as [<entry><sign>].

    Rows pair the antitableau rows with same-length signed rows; signs
    alternate from each row's first sign.  The shape check cannot fire on
    a pair from trapa_normalize: assemble_antitableau already requires
    ann.shape to equal the signed tableau's row lengths.
    """
    lines = []
    shape = ann.shape
    for r, length in enumerate(shape):
        entries = ann.row(r)
        signs = as_tab.row_signs(r)
        if len(signs) != length:
            raise InternalInconsistencyError("shape mismatch in rendering")
        boxes = [f"[{HalfInt(e)}{'+' if s > 0 else '-'}]"
                 for e, s in zip(entries, signs)]
        lines.append("".join(boxes))
    return "\n".join(lines)


def _dump(mode: str, as_json: Callable[[], str], as_ascii: Callable[[], str]) -> str:
    """The rendering that --output asks for; only that one is built."""
    return as_ascii() if mode == "ascii" else as_json()


# A string leaf that no output holds; _cut splits a rendered tree at it.
_HOLE = "\0"
_HOLE_JSON = json.dumps(_HOLE)


def _cut(tree: object, indent: str) -> list[str]:
    """`_json_dumps(tree, indent)` cut at each `_HOLE` leaf: the fixed text
    between the values that vary."""
    return _json_dumps(tree, indent).split(_HOLE_JSON)


@functools.cache
def _shapes(indent: str) -> tuple[list[str], list[str], dict[int, list[str]]]:
    """The fixed text of a block's [p_i, q_i], of an `ann` column and of an
    `as` row by its first sign, as list items whose own line has this
    indent."""
    return (_cut([_HOLE, _HOLE], indent), _cut([{"twice": _HOLE}, {"twice": _HOLE}], indent),
            {PLUS: _cut({"first_sign": "+", "len": _HOLE}, indent),
             MINUS: _cut({"first_sign": "-", "len": _HOLE}, indent)})


def _members_json(psi: AParameter, members: list[PacketMember], indent: str,
                  d0: ThetaData | None = None) -> list[str]:
    """Each member as `_json_dumps(obj, indent)` writes it, byte for byte,
    where obj holds the member's `descriptor`
    (`InductionDescriptor(m.d, psi._values).to_json()`), its `epsilon`
    (`epsilon(psi, m.d)`) and `nonzero`, and its `ann` and `as` when
    nonzero, each as its own `to_json` writes it, plus, when d0 is given, a
    `d0` key holding d0's blocks.  The members are any number of members of
    psi's packet.

    The members of a packet share their signature, values and segments, so
    the text around a member's own values is rendered once, from one
    descriptor skeleton with psi's values and one skeleton for the zero and
    one for the nonzero members.  Per member only the blocks, epsilon,
    `ann` columns and `as` rows are written, the last two from their fixed
    shapes ({"twice": v} per entry, {"first_sign", "len"} per row), with no
    dict per entry.  None of these lists is empty: a packet has at least
    one block, a column at least one entry and, as N >= 1, a tableau at
    least one row."""
    i1 = indent + "  "
    sig = psi.sig
    desc_open, desc_close = _cut(
        {**InductionDescriptor(members[0].d, psi._values).to_json(), "blocks": [_HOLE]}, i1)
    tail = {"descriptor": _HOLE, "epsilon": [_HOLE]}
    if d0 is not None:
        tail["d0"] = [list(b) for b in d0.blocks]
    kinds = {m.nonzero for m in members}
    zero = _cut({**tail, "nonzero": False}, indent) if False in kinds else None
    live = (_cut({**tail, "nonzero": True, "ann": {"columns": [_HOLE]},
                  "as": {"p": sig.p, "q": sig.q, "rows": [_HOLE]}}, indent)
            if True in kinds else None)
    i2, i3 = i1 + "  ", i1 + "    "
    pair, column, row = _shapes(i3)
    sep2, sep3 = "," + i2, "," + i3
    out = []
    for m in members:
        blocks = sep3.join([f"{pair[0]}{a}{pair[1]}{b}{pair[2]}" for a, b in m.d.blocks])
        signs = sep2.join(map(str, epsilon(psi, m.d)))
        if m.invariants is None:
            out.append(f"{zero[0]}{desc_open}{blocks}{desc_close}{zero[1]}{signs}{zero[2]}")
            continue
        ann, as_tab = m.invariants
        columns = sep3.join([column[0] + column[1].join(map(str, entries)) + column[2]
                             for entries in ann.columns])
        rows = sep3.join([f"{row[first][0]}{length}{row[first][1]}"
                          for length, first in as_tab.rows])
        out.append(f"{live[0]}{columns}{live[1]}{rows}{live[2]}{desc_open}{blocks}{desc_close}"
                   f"{live[3]}{signs}{live[4]}")
    return out


# The largest rank N = p + q a query may name.  A larger one is refused
# before anything is built: at N = 10^8 a 40-byte query would exhaust
# memory building its one block, summand or weight before any other
# limit is checked.  At N = 1000 the costliest queries answer in well
# under a second.
MAX_RANK = 1000


def _parse_sig(args: argparse.Namespace) -> GroupSignature:
    try:
        sig = GroupSignature(args.p, args.q)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if sig.N > MAX_RANK:
        raise InputError(f"U({sig.p},{sig.q}) has rank N = {sig.N}, more than the limit "
                         f"of {MAX_RANK}")
    return sig


def _load_json(text: str, flag: str) -> object:
    # ValueError covers malformed JSON and integers past Python's digit
    # limit; RecursionError covers deeply nested brackets.
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{flag} is not valid JSON: {exc}") from exc


def _int_list(obj: object, what: str) -> tuple[int, ...]:
    """obj as a tuple of ints.  Only a JSON list of integers passes: a float
    (even 1.0), a boolean or a string is refused, never coerced."""
    if not isinstance(obj, list) or any(type(x) is not int for x in obj):
        raise InputError(what)
    return tuple(obj)


def _parse_psi(args: argparse.Namespace, sig: GroupSignature) -> AParameter:
    what = "--psi must be a JSON list of {t, a} objects with integer values"
    summands = _load_json(args.psi, "--psi")
    if not isinstance(summands, list) or not all(isinstance(s, dict) for s in summands):
        raise InputError(what)
    pairs = [_int_list([s.get("t"), s.get("a")], what) for s in summands]
    try:
        return AParameter.from_summands(sig, pairs)
    except ValueError as exc:
        raise InputError(f"{exc} (N={sig.N})") from exc


def _parse_lambda(args: argparse.Namespace, sig: GroupSignature) -> KWeight:
    lam = _int_list(_load_json(args.lam, "--lambda"), "--lambda must be a JSON integer list")
    try:
        w = KWeight(sig, lam)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if not is_unitarizable(w):
        raise InputError(f"{list(lam)} is not a unitarizable lowest K-type")
    return w


def cmd_classify_psi(args: argparse.Namespace) -> tuple[int, str]:
    sig = _parse_sig(args)
    psi = _parse_psi(args, sig)
    w = lowest_weight_of_packet(psi)
    d0 = d_zero(psi)
    m = psi._d0_member

    def as_json() -> str:
        head, tail = _cut({"psi": psi.to_json(), "inf_char": inf_char(psi).to_json(),
                           "contains": w is not None,
                           "lowest_k_type": list(w.lam) if w is not None else None,
                           "member": _HOLE}, "\n")
        return head + _members_json(psi, [m], "\n  ", d0)[0] + tail

    def as_ascii() -> str:
        lines = [f"packet of {psi}",
                 f"contains a unitary lowest weight representation: {w is not None}"]
        if w is not None:
            lines.append(f"lowest K-type: {list(w.lam)}")
        if m.nonzero:
            lines.append("holomorphic member invariants:")
            lines.append(render_pair_ascii(*m.invariants))
        else:
            lines.append("holomorphic member vanishes")
        return "\n".join(lines)

    return 0, _dump(args.output, as_json, as_ascii)


def cmd_classify_lambda(args: argparse.Namespace) -> tuple[int, str]:
    sig = _parse_sig(args)
    w = _parse_lambda(args, sig)
    try:
        psis = packets_containing(w)
    except ValueError as exc:
        raise InputError(str(exc)) from exc

    def as_json() -> str:
        return _json_dumps({"lambda": list(w.lam), "p": sig.p, "q": sig.q,
                            "packets": [psi.to_json() for psi in psis]})

    def as_ascii() -> str:
        lines = [f"lambda = {list(w.lam)} on U({sig.p},{sig.q})"]
        lines += [f"  {psi}" for psi in psis] or ["  (no packet contains it)"]
        return "\n".join(lines)

    return 0, _dump(args.output, as_json, as_ascii)


def cmd_packet(args: argparse.Namespace) -> tuple[int, str]:
    sig = _parse_sig(args)
    psi = _parse_psi(args, sig)
    try:
        members = packet(psi)
    except ValueError as exc:
        raise InputError(str(exc)) from exc

    def as_json() -> str:
        head, tail = _cut({"psi": psi.to_json(), "inf_char": inf_char(psi).to_json(),
                           "members": [_HOLE]}, "\n")
        return head + ",\n    ".join(_members_json(psi, members, "\n    ")) + tail

    def as_ascii() -> str:
        lines = [f"packet of {psi}: {len(members)} members"]
        for m in members:
            tag = "nonzero" if m.nonzero else "zero"
            lines.append(f"d = {[list(b) for b in m.d.blocks]}  epsilon = "
                         f"{list(epsilon(psi, m.d))}  ({tag})")
            if m.nonzero:
                lines.append(render_pair_ascii(*m.invariants))
        return "\n".join(lines)

    return 0, _dump(args.output, as_json, as_ascii)


def cmd_tableau(args: argparse.Namespace) -> tuple[int, str]:
    sig = _parse_sig(args)
    what = "--blocks must be a JSON list of [p_i, q_i] integer pairs"
    raw_blocks = _load_json(args.blocks, "--blocks")
    if not isinstance(raw_blocks, list):
        raise InputError(what)
    blocks = tuple(_int_list(b, what) for b in raw_blocks)
    if any(len(b) != 2 for b in blocks):
        raise InputError(what)
    values = _int_list(_load_json(args.values, "--values"),
                       "--values must be a JSON integer list")
    try:
        desc = InductionDescriptor(ThetaData(sig, blocks), values)
        out = tableau_pair(desc)
    except ValueError as exc:
        raise InputError(str(exc)) from exc

    def as_json() -> str:
        obj = {"descriptor": desc.to_json(), "zero": out.is_zero}
        if not out.is_zero:
            ann, as_tab = out.invariants
            obj.update({"ann": ann.to_json(), "as": as_tab.to_json(),
                        "stack": out.stack.to_json()})
        return _json_dumps(obj)

    def as_ascii() -> str:
        return "formal zero tableau" if out.is_zero else render_pair_ascii(*out.invariants)

    return 0, _dump(args.output, as_json, as_ascii)


def cmd_verify(args: argparse.Namespace) -> tuple[int, str]:
    try:
        if args.jobs < 1:
            raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
        cfg = SweepConfig(args.max_n, args.window,
                          HalfInt.whole(args.char_window) if args.char_window is not None
                          else HalfInt.whole(args.window + 1))
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    report = sweep_verify(cfg, jobs=args.jobs)
    return 0 if report.ok else 3, report.dumps()


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it.

    Building it costs about as much as a small query, and parse_args keeps
    no state between calls, so main reuses one parser per process.  It is
    not built at import."""
    parser = argparse.ArgumentParser(
        prog="upq-packets",
        description="Arthur packets of U(p,q) and unitary lowest weight "
                    "representations")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--p", type=int, required=True)
        sp.add_argument("--q", type=int, required=True)
        sp.add_argument("--output", choices=("json", "ascii"), default="json")

    sp = sub.add_parser("classify-psi", help="lowest weight content of a packet")
    add_common(sp)
    sp.add_argument("--psi", required=True,
                    help='JSON list of summands, e.g. [{"t":0,"a":2}]')
    sp.set_defaults(func=cmd_classify_psi)

    sp = sub.add_parser("classify-lambda", help="packets containing a lowest "
                                                "weight representation")
    add_common(sp)
    sp.add_argument("--lambda", dest="lam", required=True,
                    help="JSON integer list, e.g. [1,-1]")
    sp.set_defaults(func=cmd_classify_lambda)

    sp = sub.add_parser("packet", help="dump every member of a packet")
    add_common(sp)
    sp.add_argument("--psi", required=True)
    sp.set_defaults(func=cmd_packet)

    sp = sub.add_parser("tableau", help="invariants of an explicit induction")
    add_common(sp)
    sp.add_argument("--blocks", required=True,
                    help="JSON list of [p_i, q_i] pairs")
    sp.add_argument("--values", required=True, help="JSON integer list")
    sp.set_defaults(func=cmd_tableau)

    sp = sub.add_parser("verify", help="run the verification sweep")
    sp.add_argument("--max-n", type=int, required=True)
    sp.add_argument("--window", type=int, required=True,
                    help="bound on |lambda_i| for swept weights")
    sp.add_argument("--char-window", type=int, default=None,
                    help="bound on |chi| entries (default: window + 1)")
    sp.add_argument("--jobs", type=int, default=1)
    sp.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and return its exit status.

    Each subcommand returns its status and its text, and main writes the
    text.  A reader that closes stdout early (`| head`) gets no traceback:
    stdout is pointed at the null device, so the flush at shutdown cannot
    raise again, and the command's own status is returned."""
    args = build_parser().parse_args(argv)
    try:
        code, text = args.func(args)
    except InputError as exc:
        print(json.dumps({"error": "invalid-input", "message": str(exc)},
                         sort_keys=True), file=sys.stderr)
        return 2
    except InternalInconsistencyError as exc:
        print(json.dumps({"error": "internal-inconsistency", "message": str(exc)},
                         sort_keys=True), file=sys.stderr)
        return 3
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
