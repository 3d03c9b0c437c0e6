"""Recompute perfbench/pins.json, the outputs every benchmark run is
checked against: each sweep's report (instance count, counts per kind and
the sha256 of its canonical JSON) and the digest of each query stream's
fixed prefix at the default seed.

    python3 perfbench/pin.py [WORKLOAD ...]   (default: every workload)

Re-pin only for a change that alters the program's output on purpose, and
say why in that change.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from workloads import WORKLOADS, SweepWorkload
    pins = json.loads(run.PINS.read_text()) if run.PINS.exists() else {}
    for name in sys.argv[1:] or WORKLOADS:
        wl = WORKLOADS[name]
        if isinstance(wl, SweepWorkload):
            report = run.Sweeps(wl, None).sweep()
            pins[name] = {"instances_checked": report.instances_checked,
                          "counts": dict(sorted(report.counts.items())),
                          "sha256": run.sha256(report.dumps())}
        else:
            queries = run.Queries(wl, run.DEFAULT_SEED, 0.001, None)
            answers = queries.loop(0.0, limit=wl.digest_queries)["answers"]
            pins[name] = {"seed": run.DEFAULT_SEED, "queries": wl.digest_queries,
                          "sha256": run.outputs_digest(answers)}
        print(name, pins[name], file=sys.stderr)
    run.PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
