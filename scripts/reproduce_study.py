"""Reproduce the paper's real-data application table and write a manifest.

One ``lodcdf estimate --method all`` call at the twelve published points,
on data/copper.csv when present, else on the reconstructed fixture
tests/fixtures/groundwater_reconstructed.csv, writes <out-dir>/application.csv.
<out-dir>/manifest.txt gives each file's sha256 and the arguments that wrote
it, input paths relative to the repository root and output paths relative
to the manifest's directory. A simulation sweep is one ``lodcdf sweep`` call.
"""

import argparse
import hashlib
import shlex
import sys
from pathlib import Path

from lodcdf.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
DATA = (Path("data/copper.csv"), Path("tests/fixtures/groundwater_reconstructed.csv"))
NAME = "application.csv"


def command(data, output) -> list[str]:
    return ["estimate", str(data), "--method", "all",
            "--eval-points", "1,2,3,4,5,6,8,9,12,14,15,17", "--output", str(output)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", type=Path, default=Path("results"),
                        help="directory for application.csv and manifest.txt (default: results/)")
    out_dir = parser.parse_args(argv).out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    data = next(path for path in DATA if (ROOT / path).exists())
    status = cli_main(command(ROOT / data, out_dir / NAME))
    if status != 0:
        return status
    digest = hashlib.sha256((out_dir / NAME).read_bytes()).hexdigest()
    (out_dir / "manifest.txt").write_text(
        f"file\tsha256\targv\n{NAME}\t{digest}\t{shlex.join(command(data, NAME))}\n")
    print(f"wrote {out_dir / NAME} from {data}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
