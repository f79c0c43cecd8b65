"""Compare two sets of ``gmine-e2e`` results, cell by cell.

    python3 benchmarks/e2e/compare.py --a parent/*.txt --b change/*.txt
    python3 benchmarks/e2e/compare.py --a ... --b ... --pairs \
        --claim ops_per_s@mine_cold
    python3 benchmarks/e2e/compare.py --spread runs/*.txt

A result file is either what ``run.py`` wrote under ``out/`` or a capture of
its standard output (the header line names the workload, the last line is
the result object).  A *cell* is one (metric, workload) pair.  For each
cell the report gives each side's median and quartiles, the ratio **with
its base**, and a verdict from the bounds in ``BENCHMARK.json``:

* ``unresolved`` — the base side's own quartile spread is wider than the
  bound, so nothing can be said;
* ``regressed`` — the other side's median is worse by more than the bound;
* ``improved`` — better by more than the base side's quartile spread (with
  ``--pairs``: and it won at least 9 of every 10 pairs, ties for neither);
* ``within bound`` — anything else.

``--pairs`` reads ``--a`` and ``--b`` as alternating A/B pairs per
workload, in the order given.  ``--spread`` takes one set and prints each
cell's quartile spread as a share of its median next to the bound — the
check the benchmark itself must pass before it can judge anything.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]
HEADER = re.compile(r"^gmine-e2e (\w+):", re.MULTILINE)

Cell = Tuple[str, str]  # (metric, workload)


def load(path: Path) -> Tuple[str, Dict[str, float]]:
    """``(workload, {metric: value})`` of one result file."""
    text = path.read_text(encoding="utf-8").strip()
    try:
        document = json.loads(text)
        workload = document["workload"]
    except (json.JSONDecodeError, KeyError):
        header = HEADER.search(text)
        if header is None:
            raise SystemExit(f"{path}: no 'gmine-e2e <workload>:' header line")
        workload = header.group(1)
        document = json.loads(text.splitlines()[-1])
    if not document.get("correct") or document.get("failed"):
        raise SystemExit(f"{path}: the run was not correct or had failures")
    return workload, {
        name: row["value"] for name, row in document["metrics"].items()
    }


def collect(paths: Sequence[Path]) -> Dict[Cell, List[float]]:
    cells: Dict[Cell, List[float]] = defaultdict(list)
    for path in paths:
        workload, metrics = load(path)
        for metric, value in metrics.items():
            cells[(metric, workload)].append(value)
    return cells


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def worse_by(base: float, other: float, better: str) -> float:
    """How much worse ``other`` is than ``base``, as a share of ``base``."""
    change = (other - base) / abs(base) if base else 0.0
    return change if better == "lower" else -change


def wins(a: Sequence[float], b: Sequence[float], better: str) -> Tuple[int, int]:
    """``(pairs B won, pairs A won)``; ties count for neither."""
    b_wins = a_wins = 0
    for left, right in zip(a, b):
        if left == right:
            continue
        if (right < left) == (better == "lower"):
            b_wins += 1
        else:
            a_wins += 1
    return b_wins, a_wins


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: Optional[float], paired: bool) -> str:
    if bound is None:
        return "-"
    base_spread = spread(a)
    if base_spread > bound:
        return "unresolved"
    worse = worse_by(statistics.median(a), statistics.median(b), better)
    if worse > bound:
        return "regressed"
    if -worse > base_spread:
        if not paired:
            return "improved"
        b_wins, _ = wins(a, b, better)
        if b_wins >= 0.9 * min(len(a), len(b)):
            return "improved"
    return "within bound"


def specs() -> Dict[str, Dict]:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        spec["name"]: spec
        for spec in contract["end_to_end"] + contract["per_layer"]
    }


def fmt(value: float) -> str:
    return f"{value:.4g}"


def report_compare(a: Dict[Cell, List[float]], b: Dict[Cell, List[float]],
                   paired: bool, claim: Optional[str]) -> int:
    table = specs()
    regressed = []
    print(f"{'metric @ workload':48} {'A q1/med/q3':30} {'B q1/med/q3':30} "
          f"{'B/A (base A)':20} verdict")
    for cell in sorted(a.keys() & b.keys(), key=lambda c: (c[1], c[0])):
        metric, workload = cell
        spec = table.get(metric, {"better": "lower"})
        qa, qb = quartiles(a[cell]), quartiles(b[cell])
        ratio = qb[1] / qa[1] if qa[1] else float("nan")
        result = verdict(a[cell], b[cell], spec["better"], spec.get("bound"),
                         paired)
        line = (f"{metric + ' @ ' + workload:48} "
                f"{'/'.join(map(fmt, qa)):30} {'/'.join(map(fmt, qb)):30} "
                f"{ratio:.3f} of {fmt(qa[1]):12} {result}")
        if paired and spec.get("bound") is not None:
            b_wins, a_wins = wins(a[cell], b[cell], spec["better"])
            line += f" (B won {b_wins}, A won {a_wins} of {len(a[cell])} pairs)"
        print(line)
        if result == "regressed":
            regressed.append(cell)
    code = 1 if regressed else 0
    if claim is not None:
        metric, _, workload = claim.partition("@")
        cell = (metric, workload)
        if cell not in a or cell not in b:
            raise SystemExit(f"claimed cell {claim} is not in both sets")
        spec = table[metric]
        met = verdict(a[cell], b[cell], spec["better"],
                      spec.get("bound", 0.0), paired=True) == "improved"
        print(f"claim {claim}: {'met' if met else 'NOT met'} "
              "(needs >= 9/10 pairs and a median gap wider than A's quartiles)")
        code = code or (0 if met else 1)
    return code


def report_spread(cells: Dict[Cell, List[float]]) -> int:
    table = specs()
    wide = []
    print(f"{'metric @ workload':48} {'n':>3} {'median':>12} {'spread':>8} "
          f"{'bound':>6}")
    for cell in sorted(cells, key=lambda c: (c[1], c[0])):
        metric, workload = cell
        bound = table.get(metric, {}).get("bound")
        if bound is None:
            continue
        share = spread(cells[cell])
        flag = ""
        if metric != "setup_s" and share > bound:
            flag = "  <-- wider than the bound"
            wide.append(cell)
        elif share > bound / 3:
            flag = "  (above a third of the bound)"
        print(f"{metric + ' @ ' + workload:48} {len(cells[cell]):3d} "
              f"{fmt(statistics.median(cells[cell])):>12} {share:8.3f} "
              f"{bound:6.2f}{flag}")
    return 1 if wide else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--a", nargs="+", type=Path, default=[],
                        help="result files of the base side")
    parser.add_argument("--b", nargs="+", type=Path, default=[],
                        help="result files of the other side")
    parser.add_argument("--pairs", action="store_true",
                        help="--a and --b are aligned A/B pairs")
    parser.add_argument("--claim", metavar="METRIC@WORKLOAD",
                        help="a cell claimed to improve; checked by the pair rule")
    parser.add_argument("--spread", nargs="+", type=Path,
                        help="one set: quartile spread of every bounded cell")
    args = parser.parse_args()
    if args.spread:
        return report_spread(collect(args.spread))
    if not args.a or not args.b:
        parser.error("give --a and --b, or --spread")
    a, b = collect(args.a), collect(args.b)
    if args.pairs or args.claim:
        uneven = [cell for cell in a.keys() & b.keys()
                  if len(a[cell]) != len(b[cell])]
        if uneven:
            raise SystemExit(f"--pairs needs as many A as B runs: {uneven[:3]}")
    return report_compare(a, b, args.pairs, args.claim)


if __name__ == "__main__":
    sys.exit(main())
