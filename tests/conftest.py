"""Every test starts and ends with the package's functools memos empty.

A memo entry left by an earlier test would hide a fault a later test
plants (a patched `tableaux._place` or `cohind._segment_starts` is never
called on a key already held), and an entry made under a planted fault
would reach the next module's fixtures, which are set up before this
fixture's next run.  The memos are found once, before any test rebinds a
name, as `tools/bench_packet_pairs.py` finds them.
"""

import importlib
import pkgutil

import pytest

import upq_packets


def _package_memos() -> list:
    memos = {}
    for info in pkgutil.iter_modules(upq_packets.__path__):
        module = importlib.import_module(f"upq_packets.{info.name}")
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                memos[id(value)] = value
    return list(memos.values())


MEMOS = _package_memos()


@pytest.fixture(autouse=True)
def _empty_memos():
    for memo in MEMOS:
        memo.cache_clear()
    yield
    for memo in MEMOS:
        memo.cache_clear()
