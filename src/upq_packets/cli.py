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
from collections import Counter
from typing import Callable, Iterable

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


# The JSON writers below write what `_json_dumps` writes of the payload's
# tree, byte for byte, without building the tree.  The text that does not
# depend on the query is rendered once per process, per indent and flag,
# from a tree with `_HOLE` leaves: `_cut` splits that text at the holes, and
# `_fill` puts the query's values back in.  A hole in a list stands for the
# list's items, joined by "," and the items' indent (none of the lists
# filled this way is empty); any other hole stands for a whole value.
# Holes follow the order of the sorted keys.

# A string leaf that no output holds; _cut splits a rendered tree at it.
_HOLE = "\0"
_HOLE_JSON = json.dumps(_HOLE)


def _cut(tree: object, indent: str) -> list[str]:
    """`_json_dumps(tree, indent)` cut at each `_HOLE` leaf: the fixed text
    between the values that vary."""
    return _json_dumps(tree, indent).split(_HOLE_JSON)


def _fill(pieces: list[str], *values: object) -> str:
    """The text that `pieces` was cut from, with the values in its holes."""
    return "".join([f"{piece}{value}" for piece, value in zip(pieces, values)]) + pieces[-1]


def _items(shape: list[str], pairs: Iterable[tuple[object, object]], indent: str) -> str:
    """The items of a list, each `shape` (two holes) filled with one pair,
    on their own lines at this indent."""
    head, mid, tail = shape
    return ("," + indent).join([f"{head}{x}{mid}{y}{tail}" for x, y in pairs])


@functools.cache
def _shapes(indent: str) -> dict[object, list[str]]:
    """The fixed text of each object of the payloads that needs no flag,
    whose own line has this indent: a block's [p_i, q_i], an `ann` column
    (its entries go between the pieces), an `as` row by its first sign
    (PLUS, MINUS), a member's descriptor (holes: blocks, p, q, segments,
    values) and one of its segments, an A-parameter (holes: p, q,
    summands) and one of its summands, and an entry of a multiset."""
    return {"pair": _cut([_HOLE, _HOLE], indent),
            "column": _cut([{"twice": _HOLE}, {"twice": _HOLE}], indent),
            PLUS: _cut({"first_sign": "+", "len": _HOLE}, indent),
            MINUS: _cut({"first_sign": "-", "len": _HOLE}, indent),
            "descriptor": _cut({"blocks": [_HOLE], "p": _HOLE, "q": _HOLE,
                                "segments": [_HOLE], "values": [_HOLE]}, indent),
            "segment": _cut({"len": _HOLE, "start_twice": _HOLE}, indent),
            "psi": _cut({"p": _HOLE, "q": _HOLE, "summands": [_HOLE]}, indent),
            "summand": _cut({"a": _HOLE, "t": _HOLE}, indent),
            "entry": _cut({"mult": _HOLE, "twice": _HOLE}, indent)}


@functools.cache
def _member_skeletons(indent: str, with_d0: bool) -> tuple[list[str], list[str]]:
    """The fixed text of a packet member whose own line has this indent,
    when it vanishes (holes: d0 when with_d0, descriptor, epsilon) and when
    it does not (holes: ann columns, p, q, as rows, d0 when with_d0,
    descriptor, epsilon)."""
    tail = {"descriptor": _HOLE, "epsilon": [_HOLE]}
    if with_d0:
        tail["d0"] = [_HOLE]
    return (_cut({**tail, "nonzero": False}, indent),
            _cut({**tail, "nonzero": True, "ann": {"columns": [_HOLE]},
                  "as": {"p": _HOLE, "q": _HOLE, "rows": [_HOLE]}}, indent))


def _psi_json(psi: AParameter, indent: str) -> str:
    """`_json_dumps(psi.to_json(), indent)`."""
    inner = indent + "    "
    return _fill(_shapes(indent)["psi"], psi.sig.p, psi.sig.q,
                 _items(_shapes(inner)["summand"], [(a, t) for t, a in psi.summands], inner))


@functools.cache
def _payload_skeleton(command: str, flag: bool) -> list[str]:
    """The fixed text of a subcommand's JSON payload:
    - classify-psi (holes: inf_char, lowest_k_type when flag, member, psi),
      where flag says whether the packet contains a lowest weight module;
    - packet (holes: inf_char, members, psi; flag is unused);
    - classify-lambda (holes: lambda, p, packets when flag, q), where flag
      says whether any packet contains the module."""
    return _cut({
        "classify-psi": {"contains": flag, "inf_char": [_HOLE], "member": _HOLE, "psi": _HOLE,
                         "lowest_k_type": [_HOLE] if flag else None},
        "packet": {"inf_char": [_HOLE], "members": [_HOLE], "psi": _HOLE},
        "classify-lambda": {"lambda": [_HOLE], "p": _HOLE, "q": _HOLE,
                            "packets": [_HOLE] if flag else []},
    }[command], "\n")


def _psi_payload(command: str, flag: bool, psi: AParameter, *values: str) -> str:
    """The classify-psi or packet payload of psi, with `values` in the holes
    between its inf_char and psi."""
    entries = _items(_shapes("\n    ")["entry"],
                     [(m, t) for t, m in Counter(inf_char(psi).twice).items()], "\n    ")
    return _fill(_payload_skeleton(command, flag), entries, *values, _psi_json(psi, "\n  "))


def _members_json(psi: AParameter, members: list[PacketMember], indent: str,
                  d0: ThetaData | None = None) -> list[str]:
    """Each member as `_json_dumps(obj, indent)` writes it, byte for byte,
    where obj holds the member's `descriptor`
    (`InductionDescriptor(m.d, psi._values).to_json()`), its `epsilon`
    (`epsilon(psi, m.d)`) and `nonzero`, and its `ann` and `as` when
    nonzero, each as its own `to_json` writes it, plus, when d0 is given, a
    `d0` key holding d0's blocks.  The members are any number of members of
    psi's packet.

    The members of a packet share their signature, values and segments (a
    member's segments are psi's: `psi._values` checks that), so the text
    around a member's own values is filled in once per call, for the zero
    and for the nonzero members.  Per member only the blocks, epsilon,
    `ann` columns and `as` rows are written, the last two from their fixed
    shapes ({"twice": v} per entry, {"first_sign", "len"} per row), with no
    dict per entry."""
    i1 = indent + "  "
    i2, i3 = i1 + "  ", i1 + "    "
    sig = psi.sig
    zero, live = _member_skeletons(indent, d0 is not None)
    shapes = _shapes(i3)
    segments = [(length, start) for start, length in psi._segments]
    desc = _fill(_shapes(i1)["descriptor"], _HOLE, sig.p, sig.q,
                 _items(shapes["segment"], segments, i3), ("," + i3).join(map(str, psi._values)))
    d0_blocks = [] if d0 is None else [_items(_shapes(i2)["pair"], d0.blocks, i2)]
    zero = _fill(zero, *d0_blocks, desc, _HOLE).split(_HOLE)
    live = _fill(live, _HOLE, sig.p, sig.q, _HOLE, *d0_blocks, desc, _HOLE).split(_HOLE)
    pair, column = shapes["pair"], shapes["column"]
    sep2, sep3 = "," + i2, "," + i3
    out = []
    for m in members:
        blocks = _items(pair, m.d.blocks, i3)
        signs = sep2.join(map(str, epsilon(psi, m.d)))
        if m.invariants is None:
            out.append(f"{zero[0]}{blocks}{zero[1]}{signs}{zero[2]}")
            continue
        ann, as_tab = m.invariants
        columns = sep3.join([column[0] + column[1].join(map(str, entries)) + column[2]
                             for entries in ann.columns])
        rows = sep3.join([f"{shapes[first][0]}{length}{shapes[first][1]}"
                          for length, first in as_tab.rows])
        out.append(f"{live[0]}{columns}{live[1]}{rows}{live[2]}{blocks}{live[3]}{signs}"
                   f"{live[4]}")
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
    # A summand holds exactly the keys t and a: any other key is refused,
    # never dropped.
    if not isinstance(summands, list) or not all(
            isinstance(s, dict) and s.keys() == {"t", "a"} for s in summands):
        raise InputError(what)
    pairs = [_int_list([s["t"], s["a"]], what) for s in summands]
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
        lowest = [] if w is None else [",\n    ".join(map(str, w.lam))]
        return _psi_payload("classify-psi", w is not None, psi, *lowest,
                            _members_json(psi, [m], "\n  ", d0)[0])

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
        listed = [",\n    ".join([_psi_json(psi, "\n    ") for psi in psis])] if psis else []
        return _fill(_payload_skeleton("classify-lambda", bool(psis)),
                     ",\n    ".join(map(str, w.lam)), sig.p, *listed, sig.q)

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
        return _psi_payload("packet", False, psi,
                            ",\n    ".join(_members_json(psi, members, "\n    ")))

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
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level argument parser and each subcommand's parser by name
    (the subparsers action's `choices`), built on the first call and shared
    after it.

    Building them costs about as much as a small query, and parse_args
    keeps no state between calls, so main reuses them in every call of a
    process.  They are not built at import."""
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
    return parser, sub.choices


def parse_args(argv: list[str]) -> argparse.Namespace:
    """`build_parser()[0].parse_args(argv)`, in one parser pass when argv
    names a subcommand.

    The top-level parser hands everything after the subcommand's name to
    that subcommand's parser and adds `command`; here the subcommand's
    parser is called directly.  Any other argv (empty, -h, an unknown
    name), and one that the subcommand's parser leaves arguments of, goes
    to the top-level parser, which answers or refuses it in its own words
    and under its own prog."""
    parser, commands = build_parser()
    if argv and argv[0] in commands:
        args, extra = commands[argv[0]].parse_known_args(argv[1:])
        if not extra:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and return its exit status.

    Each subcommand returns its status and its text, and main writes the
    text.  A reader that closes stdout early (`| head`) gets no traceback:
    stdout is pointed at the null device, so the flush at shutdown cannot
    raise again, and the command's own status is returned."""
    args = parse_args(sys.argv[1:] if argv is None else argv)
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
