"""Compare two traced runs layer by layer: where did the time go, or come from?

Usage, from the root of the repository::

    python3 cosearch_bench/run.py --workload vqe_pshift --seed 0 \\
        --seconds 25 --trace 1 > parent/vqe_pshift.txt    # on the parent
    python3 cosearch_bench/run.py --workload vqe_pshift --seed 0 \\
        --seconds 25 --trace 1 > change/vqe_pshift.txt    # on the change
    python3 cosearch_bench/ledger_diff.py parent change

``PARENT`` and ``CHANGE`` are two directories holding one saved ``--trace 1``
output per workload (files with the same name are paired), or two such files.
For each pair it prints every ledger row's exclusive seconds, then every
other per-layer metric, for both runs side by side with the change's ratio
to the parent.  Counters that do not repeat exactly are marked ``*``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

from ledger import PER_LAYER


def load(path: Path) -> Dict[str, dict]:
    """The ``metrics`` object of a saved run's last output line."""
    lines = path.read_text().strip().splitlines()
    if not lines:
        raise ValueError(f"{path} is empty")
    return json.loads(lines[-1])["metrics"]


def pairs(parent: Path, change: Path) -> List[Tuple[str, Path, Path]]:
    if parent.is_dir() and change.is_dir():
        names = sorted(
            p.name for p in parent.iterdir()
            if p.is_file() and (change / p.name).is_file()
        )
        return [(Path(n).stem, parent / n, change / n) for n in names]
    return [(change.stem, parent, change)]


def diff_rows(parent: Dict[str, dict], change: Dict[str, dict]) -> List[str]:
    ledger = [name for name, _unit in PER_LAYER if name.startswith("ledger.")]
    others = [name for name, _unit in PER_LAYER if not name.startswith("ledger.")]
    lines = [f"  {'metric':<44s} {'parent':>12s} {'change':>12s} {'ratio':>7s}"]
    for group in (ledger, others):
        for name in group:
            if name not in parent or name not in change:
                continue
            old = parent[name]["value"]
            new = change[name]["value"]
            unit = parent[name]["unit"]
            ratio = f"{new / old:7.3f}" if old else "      -"
            mark = "*" if unit == "count" and old != new else " "
            lines.append(
                f"{mark} {name:<44s} {old:12.5g} {new:12.5g} {ratio} {unit}"
            )
        lines.append("")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args()
    found = pairs(args.parent, args.change)
    if not found:
        print("no saved runs to pair", file=sys.stderr)
        return 2
    for workload, parent, change in found:
        print(f"== {workload}: {parent} -> {change}")
        print("\n".join(diff_rows(load(parent), load(change))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
