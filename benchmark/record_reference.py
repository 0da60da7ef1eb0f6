"""Record the reference outputs the benchmark checks compare against.

    python3 benchmark/record_reference.py

Writes benchmark/reference.json from the program in this checkout at the
default seed: the `compare` output on the groundwater fixture, the row count
and evenly spaced sample rows of both fit workloads' tables, and the mean KS
distances of both study schemes. Re-record only when a change to the
program's output is intended.
"""

import json
import shutil
import sys

import numpy as np

import checks
import run


def main() -> int:
    run.import_program()
    tmp = run.ROOT / ".bench_run" / "record"
    tmp.mkdir(parents=True, exist_ok=True)
    seed = run.DEFAULT_SEED
    try:
        proc = run.run_child([sys.executable, "-m", "lodcdf.cli", *run.CLI_COMMANDS[1]])[0]
        if proc.returncode != 0:
            sys.exit(f"compare failed: {proc.stderr}")
        reference = {"cli_small": {"compare": proc.stdout}}
        for name in ("fit_continuous", "fit_tied"):
            workload = run.Fit(seed, tmp, {name: None}, tied=name == "fit_tied")
            workload.prepare()
            rc, path = workload.op(0)
            if rc != 0:
                sys.exit(f"{name} failed with exit code {rc}")
            _, cols = checks.read_fit(path)
            index = np.unique(np.linspace(0, len(cols) - 1, 25).round().astype(int))
            reference[name] = {"rows": len(cols), "sample_index": index.tolist(),
                               "sample_rows": cols[index].tolist()}
        study = run.Study(seed, tmp, {"study": None})
        reference["study"] = {}
        for i, scheme in enumerate(study.schemes):
            summary = checks.study_summary(study.op(i))
            reference["study"][scheme] = {key: summary[key] for key in
                                          ("mean_ks_product_limit", "mean_ks_rhr_mle")}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    (run.BENCH / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
