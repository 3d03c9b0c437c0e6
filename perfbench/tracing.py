"""Spans and counters around the package's public functions, from outside.

`Tracer.installed()` replaces each traced function by a wrapper in every
module of the package that holds a reference to it, so calls made through
`from .x import f` bindings are seen too, and restores the originals on
exit.  Spans stay in memory: (name, start, end, parent span, request ID).

Functions too small to time without the wrapper swamping them are only
counted.  Sweeps that run signatures in a process pool (fork start method)
carry each task's spans back to the parent on the task's report.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# Functions timed with a span, as "<module>.<function>".
SPANNED = (
    "halfint.partition_into_segments",
    "tableaux.build_initial", "tableaux.trapa_normalize", "tableaux.as_pair_equal",
    "cohind.range_class", "cohind.tableau_pair", "cohind.lowest_weight_invariants",
    "packets.member", "packets.packet", "packets.contains_lowest_weight",
    "packets.lowest_weight_of_packet", "packets.oracle_contains",
    "packets.good_parameters_with_inf_char",
    "oracle.oracle_lowest_weights", "oracle.good_parameters_in_window",
    "oracle.sweep_signature", "oracle.sweep_verify",
    "cli.main",
)
# Functions only counted.
COUNTED = ("packets.enumerate_D", "weights.kweight_from_pq")
# HalfIntMultiset methods, counted together under one name.
MULTISET = "halfint.HalfIntMultiset"
MULTISET_METHODS = ("from_values", "union", "intersection", "difference", "contains")
# Functions whose first argument is recorded to count distinct inputs.
DISTINCT = ("cohind.tableau_pair", "cohind.lowest_weight_invariants")
# Functions whose result is recorded as zero or not.
ZERO = "tableaux.trapa_normalize"
TRACE_ATTR = "_perfbench_trace"


class Tracer:
    def __init__(self) -> None:
        self.reset()
        self.pool_wait_s = 0.0
        self.query_ids = itertools.count()

    def reset(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, request]
        self.stack: list[int] = []
        self.calls: Counter = Counter()
        self.zeros: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)
        self.request: str | None = None

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn):
        keep_arg = name in DISTINCT
        zero = name == ZERO
        # A signature of a sweep, or one CLI query, is a request.
        new_request = {
            "oracle.sweep_signature": lambda args: f"sig:{args[0].p},{args[0].q}",
            "cli.main": lambda args: f"query:{next(self.query_ids)}",
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if keep_arg:
                self.distinct[name].add(args[0])
            outer_request = self.request
            if new_request:
                self.request = new_request(args)
            record = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.request]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self.stack.pop()
                self.request = outer_request
            if zero and result.is_zero:
                self.zeros[name] += 1
            return result

        return wrapper

    def _counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _pool_factory(self, make_pool):
        tracer = self

        class TimedPool:
            """Times the parent's wait in `map` and takes the workers' spans
            off the returned reports."""

            def __init__(self, *args, **kwargs):
                self._pool = make_pool(*args, **kwargs)

            def __enter__(self):
                self._pool.__enter__()
                return self

            def __exit__(self, *exc):
                return self._pool.__exit__(*exc)

            def map(self, func, iterable):
                start = time.perf_counter()
                parts = self._pool.map(func, iterable)
                tracer.pool_wait_s += time.perf_counter() - start
                for part in parts:
                    tracer.absorb(part.__dict__.pop(TRACE_ATTR))
                return parts

        return TimedPool

    def _pool_task(self, fn):
        @functools.wraps(fn)
        def wrapper(args):
            # Runs in a forked worker, whose tracer is a copy of the parent's.
            self.reset()
            report = fn(args)
            setattr(report, TRACE_ATTR, self.export())
            return report
        return wrapper

    # -- worker hand-off ----------------------------------------------------

    def export(self) -> dict:
        return {"spans": self.spans, "calls": self.calls, "zeros": self.zeros,
                "distinct": dict(self.distinct)}

    def absorb(self, part: dict) -> None:
        """Append a worker's spans; its root spans become children of the
        span open in this process."""
        offset = len(self.spans)
        here = self.stack[-1] if self.stack else -1
        for name, start, end, parent, request in part["spans"]:
            self.spans.append([name, start, end,
                               here if parent < 0 else parent + offset, request])
        self.calls.update(part["calls"])
        self.zeros.update(part["zeros"])
        for name, keys in part["distinct"].items():
            self.distinct[name] |= keys

    # -- installation -------------------------------------------------------

    @contextmanager
    def installed(self):
        """Rebind every traced function throughout the package."""
        import upq_packets
        # cli is imported here so that its bindings exist to be replaced.
        from upq_packets import cli, halfint, oracle  # noqa: F401

        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "upq_packets" or name.startswith("upq_packets."))]
        undo: list[tuple[object, str, object]] = []

        def rebind(original, replacement) -> None:
            bound = 0
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, attr, value))
                        setattr(mod, attr, replacement)
                        bound += 1
            if not bound:
                raise RuntimeError(f"{original!r} is bound nowhere in the package")

        def target(qualified: str):
            module, func = qualified.split(".")
            return getattr(getattr(upq_packets, module), func)

        try:
            for name in SPANNED:
                rebind(target(name), self._span(name, target(name)))
            for name in COUNTED:
                rebind(target(name), self._counter(name, target(name)))
            cls = halfint.HalfIntMultiset
            for method in MULTISET_METHODS:
                raw = cls.__dict__[method]
                undo.append((cls, method, raw))
                if isinstance(raw, classmethod):
                    setattr(cls, method, classmethod(self._counter(MULTISET, raw.__func__)))
                else:
                    setattr(cls, method, self._counter(MULTISET, raw))
            rebind(oracle.Pool, self._pool_factory(oracle.Pool))
            rebind(oracle._sweep_signature_task, self._pool_task(oracle._sweep_signature_task))
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it covered by its children.

    Children from pool workers may overlap one another; their union is
    subtracted, clipped to the parent's interval."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(end - start - covered)
    return out
