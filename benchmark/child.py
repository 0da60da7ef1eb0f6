"""Child process for cold-start measurements.

    python3 benchmark/child.py REPORT.json [lodcdf CLI arguments...]

Records when the interpreter reached this script, how long `import
lodcdf.cli` took, how many modules it loaded and whether scipy was among
them. Given CLI arguments, it then runs `lodcdf.cli.main` with spans around
calls into lodcdf (see tracer.py) and exits with main's code. Everything
goes to REPORT.json, so the command's own stdout stays untouched.
"""

import sys
from time import perf_counter

started = perf_counter()

import gc  # noqa: E402
import json  # noqa: E402

before = len(sys.modules)
start = perf_counter()
import lodcdf.cli  # noqa: E402

report = {
    "started": started,
    "import_s": perf_counter() - start,
    "modules_loaded": len(sys.modules) - before,
    "scipy_imported": int("scipy" in sys.modules),
    "spans": [],
    "counts": {},
}
rc = 0
if len(sys.argv) > 2:
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    gen2 = gc.get_stats()[2]["collections"]
    rc = tracer.call("cli.main", lodcdf.cli.main, sys.argv[2:])
    tracer.add("gc.gen2_per_op", gc.get_stats()[2]["collections"] - gen2)
    report["spans"], report["counts"] = tracer.spans, tracer.counts
with open(sys.argv[1], "w") as fh:
    json.dump(report, fh)
sys.exit(rc)
