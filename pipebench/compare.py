"""Compare two suite records: python3 pipebench/compare.py A.json B.json

A is the base (parent commit), B the change; both are ``suite.json``
files written by run.py.  For every (end-to-end metric, workload) pair it
prints both medians, the ratio B/A, the bound from BENCHMARK.json and a
verdict:

* ``ok``          B is no worse than A by more than the bound;
* ``regressed``   B is worse than A by more than the bound;
* ``unresolved``  the run-to-run spread (interquartile range of the
  pipeline runs inside either record, as a share of their median) is
  wider than the bound, so the medians cannot settle it - unless every
  run of B reads better than every run of A, which is ``ok``.

Exits 1 if any pair regressed or any operation failed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from statistics import median, quantiles

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def spread(metric: dict) -> float | None:
    samples = metric.get("samples", [])
    if len(samples) < 4:
        return None
    q1, _, q3 = quantiles(samples, n=4)
    return (q3 - q1) / median(samples)


def verdict(a: dict, b: dict, wider: float | None, bound: float,
            lower_is_better: bool) -> str:
    """``wider`` is the wider of the two records' spreads, if any."""
    sign = 1 if lower_is_better else -1
    sa, sb = a.get("samples"), b.get("samples")
    if sa and sb and max(sign * x for x in sb) < min(sign * x for x in sa):
        return "ok"
    if wider is not None and wider > bound:
        return "unresolved"
    worse = sign * (b["value"] - a["value"]) / a["value"]
    return "regressed" if worse > bound else "ok"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    A, B = (json.loads(Path(p).read_text())["records"] for p in argv)
    print(f"{'workload':14s} {'metric':13s} {'A (base)':>10s} {'B':>10s} "
          f"{'B/A':>7s} {'spread':>7s} {'bound':>6s}  verdict")
    bad = False
    for name in A:
        for m in SPEC["end_to_end"]:
            a, b = (side[name]["end_to_end"][m["name"]] for side in (A, B))
            wider = max((s for s in (spread(a), spread(b)) if s is not None), default=None)
            v = verdict(a, b, wider, m["bound"], m["better"] == "lower")
            sp = f"{'-':>7s}" if wider is None else f"{wider:7.3f}"
            print(f"{name:14s} {m['name']:13s} {a['value']:10.4f} {b['value']:10.4f} "
                  f"{b['value'] / a['value']:7.3f} {sp} {m['bound']:6.2f}  {v}")
            bad |= v == "regressed"
        for side, records in (("A", A), ("B", B)):
            failed, attempted = records[name]["failed"], records[name]["attempted"]
            print(f"{name:14s} failed_frac {side}: {failed}/{attempted}")
            bad |= failed > 0
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
