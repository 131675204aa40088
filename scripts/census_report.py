#!/usr/bin/env python3
"""Measure disjoint repair-group counts for unrolled UM simplex codes.

Reports the exact maximum packing per node (the replicated first block,
then each interior time block) for helper-set caps 1..5, next to the
guaranteed minimums, which are half = 2^(k-1) and whole = 2^k per item.
Maxima can exceed the guarantees; the exact packer tells us by how much.
Without --time-index every interior block 1..s-1 is reported.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from simplexor.metrics import um_census


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--base-k", type=int, default=2, choices=(2, 3))
    parser.add_argument("--s", type=int, default=4)
    parser.add_argument("--time-index", type=int, help="one interior block (default: all)")
    args = parser.parse_args()
    if args.s < 2:
        parser.error("--s must be at least 2, so that block 1 is interior")
    if args.time_index is not None and not 1 <= args.time_index <= args.s - 1:
        parser.error(f"--time-index must name an interior block, 1..{args.s - 1}")

    k = args.base_k
    half, whole = 1 << (k - 1), 1 << k
    blocks = range(1, args.s) if args.time_index is None else (args.time_index,)
    guarantees = {
        (2, 0): half, (2, 1): half + 1,
        (3, 0): whole - 1, (3, 1): whole,
        (4, 0): whole, (4, 1): whole + half - 1,
        (5, 0): whole + half - 1, (5, 1): whole + half - 1,
    }
    print(f"UM simplex base_k={k} s={args.s}")
    for block in blocks:
        started = time.perf_counter()
        census = um_census(k, args.s, block)
        elapsed = time.perf_counter() - started
        if block == blocks[0]:
            print(f"  block-0 nodes, cap 1 (replication): measured {set(census.time0_cap1)}, guaranteed >= 1")
            print(f"  block-0 nodes, cap 2: measured {set(census.time0_cap2)}, guaranteed >= {whole - 1}")
        print(f"  census at time block {block}")
        for cap, first, second in census.by_cap:
            for name, counts, key in (("first", first, (cap, 0)), ("second", second, (cap, 1))):
                print(
                    f"    cap {cap}, {name} half: measured {set(counts)},"
                    f" guaranteed >= {guarantees[key]}"
                )
        print(f"    ({elapsed:.1f}s)")


if __name__ == "__main__":
    main()
