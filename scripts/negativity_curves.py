"""Emit mean-photon vs negativity curves for every resource family.

Writes one CSV per family into --outdir by running `wigsim sweep-states`
once per family, on [-16, 16]^2 with 1025 points per axis, and on the
taller p-range [-40, 40] with 2561 points for the cubic family's p-tails.
"""

import argparse
import pathlib
import sys

from wigsim import cli

SQUARE = ["--pmax", "16", "--np", "1025"]
TALL = ["--pmax", "40", "--np", "2561"]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="curves")
    parser.add_argument("--steps", type=int, default=25)
    parser.add_argument("--gamma", type=float, default=0.05)
    args = parser.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    steps = ["--steps", str(args.steps)]
    s_range = ["--s-min", "0.1", "--s-max", "1.2"] + steps
    runs = {"number.csv": ["--family", "number", "--n-max", "6"] + SQUARE}
    for N in (1, 2, 3):
        runs[f"on_{N}.csv"] = (
            ["--family", "on", "--N", str(N), "--a-min", "0.05", "--a-max", "1.0"]
            + steps
            + SQUARE
        )
    runs["cubic.csv"] = ["--family", "cubic", "--gamma", repr(args.gamma)] + s_range + TALL
    runs["subtract.csv"] = ["--family", "pmod", "--sign", "-1"] + s_range + SQUARE
    runs["add.csv"] = ["--family", "pmod", "--sign", "1"] + s_range + SQUARE

    for name, argv in runs.items():
        rc = cli.main(["sweep-states"] + argv + ["--out", str(outdir / name)])
        if rc != 0:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
