#!/usr/bin/env python3
"""Recover a planted temporal dependency from data alone: scan lagged mutual
information and emit the tapping the data supports.

Run: python scripts/lag_recovery.py [--lag 3 --samples 10000 --noise 0.1]
"""

import argparse
import sys

from tapkit import ChannelRef, planted_lag_series
from tapkit.analysis import lag_scan, tapping_from_scans
from tapkit.cli import _exit_status
from tapkit.tapdsl import format_tapping


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lag", type=int, default=3)
    ap.add_argument("--samples", type=int, default=10_000)
    ap.add_argument("--noise", type=float, default=0.1)
    ap.add_argument("--max-lag", type=int, default=6)
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--threshold", type=float, default=0.5)
    args = ap.parse_args()

    matrix = planted_lag_series(args.lag, args.samples, seed=args.seed,
                                noise_std=args.noise)
    target = ChannelRef("y", 0)
    scans = {ref: lag_scan(matrix, ref, target, args.max_lag)
             for ref in matrix.space.channel_refs()}
    tapping = tapping_from_scans(matrix.space, target, list(scans.values()),
                                 args.threshold)
    print(f"planted y_t = tanh(x_(t-{args.lag})) + noise({args.noise}), "
          f"{args.samples} samples\n")
    print("lag   MI(x@lag; y@0) bits")
    for res in scans[ChannelRef("x", 0)]:
        bar = "#" * int(40 * res.mi_bits / 2.0)
        print(f"{res.lag:>4}  {res.mi_bits:8.4f}  {bar}")

    print("\nrecovered tapping:")
    print(format_tapping(tapping))


if __name__ == "__main__":
    sys.exit(_exit_status(main))
