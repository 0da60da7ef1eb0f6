"""Run the full estimator-comparison study and write plot-ready CSVs.

Four sweeps, each through the command-line front end so the emitted files
carry the resolved configuration in their headers:

  * mean KS-distance difference vs sigma (mu fixed at 0), time censoring
  * the same sweep under random censoring
  * mean KS-distance difference vs mu (sigma fixed at 1), time censoring
  * the same sweep under random censoring

Each CSV has columns param,mean_diff,n_pairs,n_degenerate. Note that with
continuous lifetimes and thresholds the two estimators coincide on every
replication, so mean_diff is identically zero; the sweep output documents
that behaviour rather than a separation between the estimators.
"""

import argparse
import sys
from pathlib import Path

from lodcdf.cli import main as cli_main

SWEEPS = (
    ("sigma_sweep_time.csv", "time", ["--fix", "mu=0", "--grid", "sigma=0.25:4:16"]),
    ("sigma_sweep_random.csv", "random", ["--fix", "mu=0", "--grid", "sigma=0.25:4:16"]),
    ("mu_sweep_time.csv", "time", ["--fix", "sigma=1", "--grid", "mu=-2:4:13"]),
    ("mu_sweep_random.csv", "random", ["--fix", "sigma=1", "--grid", "mu=-2:4:13"]),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", type=Path, default=Path("results"),
                        help="directory for the four sweep CSVs (default: results/)")
    parser.add_argument("--n", type=int, default=50, help="sample size per replication")
    parser.add_argument("--m", type=int, default=1000, help="replications per grid point")
    parser.add_argument("--seed", type=int, default=0, help="study seed")
    parser.add_argument("--jobs", type=int, default=1, help="passed to sweep --jobs, accepted for compatibility (no effect on output)")
    args = parser.parse_args(argv)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    common = ["--n", str(args.n), "--m", str(args.m), "--seed", str(args.seed),
              "--jobs", str(args.jobs)]
    for filename, scheme, grid in SWEEPS:
        target = args.out_dir / filename
        status = cli_main(["sweep", "--scheme", scheme, *grid, *common,
                           "--output", str(target)])
        if status != 0:
            print(f"sweep failed with exit status {status}", file=sys.stderr)
            return status
        print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
