#!/usr/bin/env python3
"""Regenerate every figure-data CSV into an output directory.

Each preset is one plot-ready table; see the README for what each one
contains. Heavier presets (fig2/fig3c Monte Carlo columns) honour
--samples so a quick pass is possible. --samples and --threads go only to
the presets that read them, as the CLI's preset table says.
"""

import argparse
import os
import sys

from qnetfid.cli import PRESET_TABLE, main as cli_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=None,
                        help="override Monte Carlo sample counts")
    parser.add_argument("--threads", type=int, default=None)
    args = parser.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    for preset, (_, reads) in PRESET_TABLE.items():
        argv = ["sweep", "--preset", preset, "--seed", str(args.seed),
                "-o", os.path.join(args.out_dir, f"{preset}.csv")]
        for option in ("samples", "threads"):
            value = getattr(args, option)
            if value is not None and option in reads:
                argv += [f"--{option}", str(value)]
        print(f"== {preset}")
        code = cli_main(argv)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
