"""lodcdf benchmark: four seeded workloads, one client, closed loop.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --workload all        # every workload in turn

Run from the root of a source checkout; the program is imported from
``src/`` (and child processes get ``src`` on PYTHONPATH), never from an
installed copy. Workloads, metrics and bounds are declared in the root
``BENCHMARK.json``; ``benchmark/README.md`` says why each workload exists
and which layer metric should move which end-to-end metric.

--trace 0 times operations with nothing wrapped and reports the end-to-end
metrics. --trace 1 runs half its time untraced and half with spans around
calls into lodcdf's public functions, and reports the per-layer metrics.
Every operation's output is checked, and each run ends with a self-test
that feeds the checker wrong outputs and requires each to be caught. The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
The line before it is the full record of the run (machine, versions,
commit, seed, tail percentile, self-test).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("cli_small", "fit_continuous", "fit_tied", "study")
DEFAULT_SEED = 0
SETUP_REPS = 3
TAIL_BEYOND = 10
FIT_ROWS = 200_000
FIT_LODS = (0.5, 1.0, 2.0)
STUDY_N, STUDY_M = 50, 1000
FIXTURE = "tests/fixtures/groundwater_reconstructed.csv"
CLI_COMMANDS = (
    ["estimate", FIXTURE, "--method", "all", "--eval-points", ",".join(map(str, checks.EVAL_POINTS))],
    ["compare", FIXTURE],
)
CHILD_TIMEOUT_S = 60
# What calibrate() takes on the reference host: a 2-vCPU Xeon VM, typical load.
REFERENCE_CALIBRATION_S = 0.030


def calibrate() -> float:
    """Time a fixed kernel of Python object churn, string formatting, float
    parsing and sorting; it uses nothing of lodcdf.

    A shared host's speed drifts by a third within tens of seconds, moving
    every timing with it. Each operation's wall time is scaled by
    REFERENCE_CALIBRATION_S / calibrate() measured just before it, which
    cancels that drift and leaves changes in the program itself.
    """
    start = perf_counter()
    for _ in range(4):  # in small batches, so it adds little to peak memory
        rows = [(k * 0.37, k & 1) for k in range(5_000)]
        text = "\n".join(f"{v!r},{d}" for v, d in rows)
        sorted(float(line.split(",")[0]) for line in text.split("\n"))
    return perf_counter() - start


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def import_program() -> None:
    """Import lodcdf from this checkout's src/."""
    sys.path.insert(0, str(ROOT / "src"))
    import lodcdf.cli  # noqa: F401  (also imports data, estimators, simulation)
    if Path(lodcdf.cli.__file__).resolve().parent != ROOT / "src" / "lodcdf":
        sys.exit(f"lodcdf imported from {lodcdf.cli.__file__}, not from {ROOT / 'src'}")


def run_child(cmd: list[str]) -> tuple[subprocess.CompletedProcess, float]:
    """Run a child to completion; return it and the perf_counter at spawn."""
    spawned = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    return proc, spawned


# ------------------------------------------------------------- workloads
#
# A workload prepares seeded inputs, runs operation i (variants alternate
# with period `cycle`), checks an output, says how much work an operation
# did, and builds wrong outputs for the self-test. `op` takes the tracer of
# a traced run, or None.


class CliSmall:
    """A cold `python -m lodcdf.cli` per operation on the groundwater fixture."""

    cycle = 2
    in_process = False

    def __init__(self, seed: int, tmp: Path, reference: dict):
        self.tmp = tmp
        self.compare_text = reference["cli_small"]["compare"]

    def prepare(self) -> None:
        pass  # the input is the checked-in fixture; the seed does not change it

    def op(self, i: int, tracer: Tracer | None = None) -> subprocess.CompletedProcess:
        args = CLI_COMMANDS[i % 2]
        if tracer is None:
            return run_child([sys.executable, "-m", "lodcdf.cli", *args])[0]
        report = self.tmp / f"child-{i}.json"
        proc, spawned = run_child([sys.executable, str(BENCH / "child.py"), str(report), *args])
        doc = json.loads(report.read_text())
        tracer.merge(doc["spans"], doc["counts"], i)
        tracer.add("cli.output_bytes", len(proc.stdout.encode()))
        return proc

    def check(self, i: int, proc: subprocess.CompletedProcess) -> list[str]:
        problems = checks.check_process(proc.returncode, proc.stderr)
        if i % 2 == 0:
            return problems + checks.check_golden(proc.stdout)
        return problems + checks.check_compare(proc.stdout, self.compare_text)

    def work(self, i: int) -> int:
        return 1

    def wrong_outputs(self, i: int, proc: subprocess.CompletedProcess):
        def variant(returncode=proc.returncode, stdout=proc.stdout):
            return subprocess.CompletedProcess(proc.args, returncode, stdout, proc.stderr)
        if i % 2 == 0:
            changed = proc.stdout.replace("0.2981959", "0.2981859", 1)
            yield "estimate: one golden digit changed", variant(stdout=changed)
        else:
            yield "compare: one row dropped", variant(stdout=proc.stdout.rsplit("\n", 2)[0] + "\n")
        yield "non-zero exit code", variant(returncode=1)


class Fit:
    """In-process `estimate --method all --output FILE` on a seeded 200k-row CSV.

    Lifetimes are log-normal(0, 1), each censored at an LOD drawn from
    {0.5, 1, 2}. With `tied`, lifetimes are first rounded to 0.1, so exact
    values coincide with each other and with the LODs.
    """

    cycle = 1
    in_process = True

    def __init__(self, seed: int, tmp: Path, reference: dict, *, tied: bool):
        self.seed, self.tmp, self.tied = seed, tmp, tied
        name = "fit_tied" if tied else "fit_continuous"
        self.reference = reference[name] if seed == DEFAULT_SEED else None
        self.input = tmp / "input.csv"
        self.output = tmp / "output.csv"

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        lifetimes = np.exp(rng.standard_normal(FIT_ROWS))
        if self.tied:
            lifetimes = np.round(lifetimes, 1)
        lods = np.array(FIT_LODS)[rng.integers(0, len(FIT_LODS), FIT_ROWS)]
        values = np.maximum(lifetimes, lods)
        detected = lifetimes >= lods
        fmt = "{:.1f},{:d}" if self.tied else "{!r},{:d}"
        rows = (fmt.format(v, d) for v, d in zip(values.tolist(), detected.tolist()))
        self.input.write_text("value,detected\n" + "\n".join(rows) + "\n")
        self.expected_rows = int(np.unique(values[detected]).size)

    def argv(self) -> list[str]:
        return ["estimate", str(self.input), "--method", "all", "--output", str(self.output)]

    def op(self, i: int, tracer: Tracer | None = None) -> tuple[int, Path]:
        from lodcdf.cli import main
        self.output.unlink(missing_ok=True)
        if tracer is None:
            return main(self.argv()), self.output
        rc = tracer.call("cli.main", main, self.argv())
        tracer.add("cli.output_bytes", self.output.stat().st_size)
        return rc, self.output

    def check(self, i: int, out: tuple[int, Path]) -> list[str]:
        rc, path = out
        if rc != 0:
            return [f"exit code {rc}"]
        return checks.check_fit(path, rows=FIT_ROWS, expected_rows=self.expected_rows,
                                tied=self.tied, reference=self.reference)

    def work(self, i: int) -> int:
        return FIT_ROWS

    def wrong_outputs(self, i: int, out: tuple[int, Path]):
        lines = out[1].read_text().splitlines()
        head, body = lines[:4], lines[4:]

        def variant(label: str, rows: list[str]):
            path = self.tmp / "wrong.csv"
            path.write_text("\n".join(head + rows) + "\n")
            return label, (0, path)

        yield variant("truncated output", body[:-5])
        cells = [row.split(",") for row in body]
        if self.tied:
            for c in cells:
                c[2] = c[1]
            yield variant("no product-limit/rhr-mle gap", [",".join(c) for c in cells])
        else:
            k = next(k for k in range(len(cells) // 2, len(cells)) if cells[k][1] != cells[k - 1][1])
            cells[k][2] = cells[k - 1][2]  # still monotone, but off product-limit
            yield variant("rhr-mle differs from product-limit", [",".join(c) for c in cells])
        yield "non-zero exit code", (3, out[1])


class Study:
    """In-process `run_study(n=50, m=1000, jobs=1)`, time and random censoring alternating."""

    cycle = 2
    in_process = True
    schemes = ("time", "random")

    def __init__(self, seed: int, tmp: Path, reference: dict):
        self.seed = seed
        self.reference = reference["study"] if seed == DEFAULT_SEED else None

    def prepare(self) -> None:
        pass  # run_study draws its own replications from the seed

    def config(self, i: int):
        from lodcdf.simulation import SimConfig
        return SimConfig(mu=0.0, sigma=1.0, scheme=self.schemes[i % 2],
                         n=STUDY_N, m=STUDY_M, seed=self.seed)

    def op(self, i: int, tracer: Tracer | None = None):
        from lodcdf.simulation import run_study
        cfg = self.config(i)
        if tracer is None:
            return run_study(cfg, jobs=1)
        result = tracer.call("simulation.run_study", run_study, cfg, jobs=1)
        tracer.add("simulation.pairs_ratio", result.n_pairs / cfg.m)
        return result

    def summary(self, out) -> dict:
        return out if isinstance(out, dict) else checks.study_summary(out)

    def check(self, i: int, out) -> list[str]:
        reference = self.reference[self.schemes[i % 2]] if self.reference else None
        return checks.check_study(self.summary(out), reference)

    def work(self, i: int) -> int:
        return STUDY_M

    def wrong_outputs(self, i: int, out):
        good = self.summary(out)
        yield "non-zero mean_diff", {**good, "mean_diff": 1e-3}
        yield "pairs + degenerate != m", {**good, "n_degenerate": good["n_degenerate"] + 1}

    def jobs_speedup(self) -> float:
        """Wall time of one study at jobs=1 over the same study at jobs=nproc."""
        from lodcdf.simulation import run_study
        nproc = os.cpu_count() or 1
        times = []
        for jobs in (1, nproc):
            gc.collect()
            start = perf_counter()
            run_study(self.config(0), jobs=jobs)
            times.append(perf_counter() - start)
        return times[0] / times[1]


def make_workload(name: str, seed: int, tmp: Path, reference: dict):
    if name == "cli_small":
        return CliSmall(seed, tmp, reference)
    if name in ("fit_continuous", "fit_tied"):
        return Fit(seed, tmp, reference, tied=name == "fit_tied")
    return Study(seed, tmp, reference)


# ------------------------------------------------------------- measuring


class Loop:
    """Operations run back to back by one client, in whole cycles, until a
    deadline. Before each, outside its timed region: calibrate(), then
    gc.collect(). Operation ids keep counting across calls to run()."""

    def __init__(self):
        self.latencies: list[float] = []  # wall seconds
        self.scales: list[float] = []     # REFERENCE_CALIBRATION_S / calibrate()
        self.gen2: list[int] = []
        self.work = 0
        self.failures: list[str] = []
        self.good: dict[int, tuple[int, object]] = {}

    def run(self, workload, seconds: float, tracer: Tracer | None = None) -> None:
        """At least one whole cycle; seconds=0 runs exactly one."""
        deadline = perf_counter() + seconds
        first = i = len(self.latencies)
        while i == first or perf_counter() < deadline or i % workload.cycle:
            self.scales.append(REFERENCE_CALIBRATION_S / calibrate())
            gc.collect()
            if tracer is not None:
                tracer.op = i
            gen2 = gc.get_stats()[2]["collections"]
            start = perf_counter()
            try:
                out = workload.op(i, tracer)
            except Exception as exc:  # a failed operation is counted, not fatal
                out, problems = None, [f"raised {exc!r}"]
            else:
                problems = None
            self.latencies.append(perf_counter() - start)
            self.gen2.append(gc.get_stats()[2]["collections"] - gen2)
            if problems is None:
                problems = workload.check(i, out)
            if problems:
                self.failures.append(f"op {i}: " + "; ".join(problems))
            else:
                self.work += workload.work(i)
                self.good[i % workload.cycle] = (i, out)
            i += 1

    def scaled(self) -> list[float]:
        """Latencies in seconds at the reference host speed."""
        return [t * k for t, k in zip(self.latencies, self.scales)]


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics. A single order statistic jumps from one cluster to
    the other when the host's speed drifts between two states during a run;
    this estimate moves smoothly with the share of time in each."""
    from scipy.special import betainc

    x = np.sort(values)
    n = x.size
    weights = np.diff(betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ x)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it:
    (value, percentile, samples beyond). With too few samples, the maximum."""
    n = len(latencies)
    if n <= TAIL_BEYOND:
        return max(latencies), 100.0, 0
    p = (n - TAIL_BEYOND) / n
    return quantile(latencies, p), 100.0 * p, TAIL_BEYOND


def self_test(workload, loops: list[Loop]) -> tuple[list[str], bool]:
    """Feed the checker wrong outputs; each must be reported as a failure."""
    good = {k: v for loop in loops for k, v in loop.good.items()}
    lines, ok = [], len(good) == workload.cycle
    for i, out in good.values():
        for label, wrong in workload.wrong_outputs(i, out):
            problems = workload.check(i, wrong)
            ok = ok and bool(problems)
            lines.append(f"{label}: {'caught' if problems else 'NOT CAUGHT'}"
                         + (f" ({problems[0]})" if problems else ""))
    return lines, ok


def set_up(workload) -> tuple[float, list[str]]:
    """Median over SETUP_REPS of what a fresh process pays before its first
    steady operation: start an interpreter and import lodcdf (timed in a
    child; for cli_small every operation is such a child), make the inputs,
    run one warm-up operation."""
    times, problems = [], []
    for _ in range(SETUP_REPS):
        scale = REFERENCE_CALIBRATION_S / calibrate()
        gc.collect()
        start = perf_counter()
        if workload.in_process:
            child = run_child([sys.executable, "-c", "import lodcdf.cli"])[0]
            problems += checks.check_process(child.returncode, child.stderr)
        workload.prepare()
        out = workload.op(0)
        times.append((perf_counter() - start) * scale)
        problems += workload.check(0, out)
    return statistics.median(times), problems


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def startup_probe(tmp: Path) -> dict[str, float]:
    """Median over three cold children of interpreter start and lodcdf import."""
    samples = []
    for k in range(3):
        report = tmp / f"probe-{k}.json"
        proc, spawned = run_child([sys.executable, str(BENCH / "child.py"), str(report)])
        if proc.returncode != 0:
            raise RuntimeError(f"start-up probe failed: {proc.stderr.strip()[:200]}")
        doc = json.loads(report.read_text())
        samples.append({
            "cli.interpreter_s": doc["started"] - spawned,
            "cli.import_s": doc["import_s"],
            "cli.modules_loaded": doc["modules_loaded"],
            "cli.scipy_imported": doc["scipy_imported"],
        })
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def timed_run(workload, seconds: float) -> tuple[dict, dict, list[Loop]]:
    setup_s, setup_problems = set_up(workload)
    loop = Loop()
    loop.run(workload, seconds)

    def timings(latencies: list[float]) -> dict[str, float]:
        return {
            # The median of each variant, averaged: a two-variant mix can
            # have two clusters, and its overall median would jump between them.
            "latency_p50_s": statistics.mean(quantile(latencies[v::workload.cycle], 0.5)
                                             for v in range(workload.cycle)),
            "latency_tail_s": tail(latencies)[0],
            "throughput_per_s": loop.work / sum(latencies),
        }

    _, tail_pct, beyond = tail(loop.latencies)
    values = {"setup_s": setup_s, **timings(loop.scaled()), "peak_rss_mb": peak_rss_mb(workload)}
    extra = {
        "wall": timings(loop.latencies),
        "calibration_s": statistics.median(REFERENCE_CALIBRATION_S / k for k in loop.scales),
        "error_rate": len(loop.failures) / len(loop.latencies),
        "warm_up_failures": setup_problems,
        "latency_tail_percentile": round(tail_pct, 2),
        "latency_tail_beyond": beyond,
        "samples": len(loop.latencies),
    }
    return values, extra, [loop]


def traced_run(workload, seconds: float, tmp: Path, name: str, seed: int):
    """Untraced and traced cycles interleaved, so drift hits both alike."""
    workload.prepare()
    workload.op(0)
    plain, traced, tracer = Loop(), Loop(), Tracer()
    deadline = perf_counter() + seconds
    while not traced.latencies or perf_counter() < deadline:
        plain.run(workload, 0)
        if workload.in_process:
            tracer.install()
        try:
            traced.run(workload, 0, tracer)
        finally:
            tracer.restore()
    values = tracer.summary(len(traced.latencies))
    values.update(startup_probe(tmp))
    values.setdefault("gc.gen2_per_op", statistics.mean(plain.gen2))
    values["trace.overhead_ratio"] = statistics.median(traced.latencies) / statistics.median(plain.latencies)
    if isinstance(workload, Study):
        values["simulation.jobs_speedup"] = workload.jobs_speedup()
    spans_file = ROOT / ".bench_run" / f"trace-{name}-seed{seed}.json"
    spans_file.write_text(json.dumps(tracer.spans))
    extra = {"traced_ops": len(traced.latencies), "untraced_ops": len(plain.latencies),
             "spans": len(tracer.spans), "spans_file": str(spans_file.relative_to(ROOT))}
    return values, extra, [plain, traced]


# ------------------------------------------------------------- reporting


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "commit": git_commit(),
        "seed": seed,
    }


def declared_metrics() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    reference = json.loads((BENCH / "reference.json").read_text())
    declared = declared_metrics()
    tmp = ROOT / ".bench_run" / f"{name}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        workload = make_workload(name, seed, tmp, reference)
        if workload.in_process:
            import_program()
        if trace:
            values, extra, loops = traced_run(workload, seconds, tmp, name, seed)
            wanted = declared["per_layer"]
        else:
            values, extra, loops = timed_run(workload, seconds)
            wanted = declared["end_to_end"]
        selftest_lines, selftest_ok = self_test(workload, loops)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in wanted}
    failures = [line for loop in loops for line in loop.failures]
    attempted, failed = sum(len(loop.latencies) for loop in loops), len(failures)
    print(f"# workload {name}  seed {seed}  trace {int(trace)}  ops {attempted}  failed {failed}")
    for key, m in metrics.items():
        print(f"#   {key:42s} {m['value']:14.6g} {m['unit']}")
    for key, value in extra.items():
        print(f"#   {key:42s} {value}")
    for line in selftest_lines:
        print(f"#   self-test {line}")
    for line in failures[:5]:
        print(f"#   FAILED {line}")
    record = {"workload": name, "trace": int(trace), "seconds": seconds, "env": environment(seed),
              "metrics": metrics, **extra, "attempted": attempted, "failed": failed,
              "self_test": selftest_lines,
              "latencies_s": [round(t, 6) for loop in loops for t in loop.latencies]}
    print(json.dumps({"record": record}))
    correct = failed == 0 and selftest_ok and not extra.get("warm_up_failures")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, output passed through."""
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else {}
        if not result.get("correct"):
            worst = 1
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in ("src/lodcdf/__init__.py", FIXTURE, "BENCHMARK.json") if not (ROOT / p).is_file()]
    if missing:
        print(f"benchmark: not a lodcdf source checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 1 << 64:
        parser.error("--seed must be a 64-bit unsigned integer")
    if args.seconds is None:
        args.seconds = declared_metrics()["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
