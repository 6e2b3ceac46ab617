"""Compare two sets of benchmark result records.

    python3 bench/compare.py bench/results/base bench/results/change

Each directory holds the `<workload>-seed<n>-trace0.json` records that
bench/run.py wrote (one per seed).  For every workload and end-to-end
metric of BENCHMARK.json this prints each set's median, quartiles and
spread (quartile distance over the median), and whether the second set
agrees with the first: its median is no worse by more than the metric's
bound, and, except for setup_s, both spreads are within the bound.  The
share of failed operations must be equal.  Exit code 0 when everything
agrees, 1 otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict[str, list[dict]]:
    """Untraced records by workload."""
    out: dict[str, list[dict]] = defaultdict(list)
    for path in sorted(directory.glob("*-trace0.json")):
        rec = json.loads(path.read_text())
        out[rec["workload"]].append(rec)
    return out


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, spread over the median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def compare(a_dir: Path, b_dir: Path) -> bool:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a, b = load(a_dir), load(b_dir)
    ok = True
    for wl in [w["name"] for w in spec["workloads"]]:
        if not a.get(wl) or not b.get(wl):
            print(f"{wl}: no records in {'first' if not a.get(wl) else 'second'} set")
            ok = False
            continue
        share = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in (a[wl], b[wl])]
        same_share = share[0] == share[1]
        ok &= same_share
        print(f"\n{wl}: {len(a[wl])} vs {len(b[wl])} runs, failed share "
              f"{share[0]:.4g} vs {share[1]:.4g}{'' if same_share else '  DIFFERS'}")
        print(f"  {'metric':<12} {'median A':>11} {'q1..q3 A':>23} {'spr A':>7}"
              f" {'median B':>11} {'q1..q3 B':>23} {'spr B':>7} {'B/A':>7} {'bound':>6}  verdict")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sa = summary([r["metrics"][name]["value"] for r in a[wl]])
            sb = summary([r["metrics"][name]["value"] for r in b[wl]])
            ratio = sb[0] / sa[0]
            worse = ratio - 1.0 if m["better"] == "lower" else 1.0 - ratio
            verdict = []
            if worse > bound:
                verdict.append("B worse")
            if name != "setup_s" and max(sa[3], sb[3]) > bound:
                verdict.append("spread")
            ok &= not verdict
            print(f"  {name:<12} {sa[0]:>11.5g} {sa[1]:>11.5g}..{sa[2]:<11.5g} {sa[3]:>7.3f}"
                  f" {sb[0]:>11.5g} {sb[1]:>11.5g}..{sb[2]:<11.5g} {sb[3]:>7.3f}"
                  f" {ratio:>7.3f} {bound:>6.3f}  {', '.join(verdict) or 'agree'}")
    print("\nagree" if ok else "\nDISAGREE")
    return ok


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        sys.stderr.write(__doc__)
        return 2
    return 0 if compare(Path(args[0]), Path(args[1])) else 1


if __name__ == "__main__":
    sys.exit(main())
