#!/usr/bin/env python3
"""Reaching experiment: explore a planar arm, fit a forward model on the
forward tapping, then reach for goals by sampling the model.

Run: python scripts/nao_reaching.py [--seeds 0 1 2] [--steps 500]
"""

import argparse
import sys

from tapkit.cli import _exit_status, demo_nao


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0])
    ap.add_argument("--steps", type=int, default=500)
    ap.add_argument("--goals", type=int, default=100)
    ap.add_argument("--candidates", type=int, default=256)
    args = ap.parse_args()
    for seed in args.seeds:
        print(demo_nao(seed=seed, steps=args.steps, goals=args.goals,
                       candidates=args.candidates))
        print()


if __name__ == "__main__":
    sys.exit(_exit_status(main))
