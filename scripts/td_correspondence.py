#!/usr/bin/env python3
"""Show that TD(0) driven by tapped trajectory rows equals direct TD(0),
and that both converge to the exact policy-evaluation values.

Run: python scripts/td_correspondence.py [--states 5 --gamma 0.9]
"""

import argparse
import sys

import numpy as np

from tapkit import ChainEnv, bellman_v
from tapkit.cli import _exit_status
from tapkit.rlbridge import direct_td_run, tapped_td_run, td0_sweeps


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--states", type=int, default=5)
    ap.add_argument("--gamma", type=float, default=0.9)
    ap.add_argument("--alpha", type=float, default=0.1)
    ap.add_argument("--episodes", type=int, default=50)
    ap.add_argument("--sweeps", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    env = ChainEnv(args.states, args.gamma)
    tapped = tapped_td_run(env, args.episodes, args.seed, args.alpha)
    direct = direct_td_run(env, args.episodes, args.seed, args.alpha)
    table = td0_sweeps(env, args.sweeps, args.alpha)
    oracle = bellman_v(env)
    print(f"{args.episodes} random episodes, alpha={args.alpha}:")
    print("  tapped v:", np.array_str(tapped.v, precision=6))
    print("  direct v:", np.array_str(direct.v, precision=6))
    print("  bit-identical:", np.array_equal(tapped.v, direct.v))

    print(f"\n{args.sweeps} sweeps of the right policy:")
    print("  learned v:", np.array_str(table.v, precision=6))
    print("  oracle  v:", np.array_str(oracle, precision=6))
    print(f"  max abs error: {np.max(np.abs(table.v - oracle)):.2e}")


if __name__ == "__main__":
    sys.exit(_exit_status(main))
