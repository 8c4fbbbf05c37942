#!/usr/bin/env python3
"""Write the full template gallery as a .tap file plus DOT renders, then
report each tapping's causality class.

Run: python scripts/make_gallery.py [--out-dir gallery/]
"""

import argparse
import pathlib
import sys

from tapkit import define_space, to_dot, validate
from tapkit import tapdsl
from tapkit.cli import _exit_status


def gallery_space():
    return define_space(
        [("motor", "m", 4), ("proprio", "q", 4), ("extero", "vision", 2),
         ("intero", "i", 1)],
        name="nao4",
    )


def build_gallery(space):
    return [
        tapdsl.temporal_predictor(space, "vision"),
        tapdsl.intermodal_predictor(space, "q", "vision"),
        tapdsl.forward(space, "m", "vision"),
        tapdsl.inverse(space, "m", "vision"),
        tapdsl.multi_step(space, "vision", 3),
        tapdsl.multi_step(space, "vision", 3, symmetric=True, name="multi_sym"),
        tapdsl.autoencoder(space, ["vision", "q"]),
        tapdsl.ape(space, ["vision"]),
        tapdsl.conditioning(space, "q", "vision", 2),
        tapdsl.td0(space, "i", "q"),
    ]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="gallery")
    args = ap.parse_args()

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    space = gallery_space()
    tappings = build_gallery(space)
    (out / "gallery.tap").write_text(tapdsl.to_text(space, tappings))
    for tapping in tappings:
        (out / f"{tapping.name}.dot").write_text(to_dot(tapping))
        report = validate(tapping)
        print(f"{tapping.name:>24}: {report.kind:<8} span {tapping.span}, "
              f"buffer delay {report.buffer_delay}")
    print(f"\nwrote {out / 'gallery.tap'} and {len(tappings)} DOT files")


if __name__ == "__main__":
    sys.exit(_exit_status(main))
