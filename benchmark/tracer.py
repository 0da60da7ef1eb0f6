"""In-memory spans around calls into lodcdf's public functions.

The tracer wraps functions at the module attributes their callers look up
(``lodcdf.cli.ingest``, ``lodcdf.simulation.substream``,
``lodcdf.data.Dataset.from_pairs``, ...) and restores them afterwards, so
the program itself is never edited. Each span records its name, start,
end, parent span and operation id; spans stay in memory until the
benchmark writes its summary. A wrapped attribute that no longer exists is
skipped, so a function the program stops calling reports 0 calls.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter


def _count_tally(tracer, table):
    tracer.add("data.distinct_values", int(table.values.size))
    tracer.add("data.tied_values", int(((table.exact >= 1) & (table.censored >= 1)).sum()))


def _count_rows(tracer, dataset):
    tracer.add("data.rows", dataset.n)


def _count_jumps(tracer, f):
    tracer.add("estimators.jumps", f.jump_count)


ESTIMATORS = ("product_limit_cdf", "rhr_mle_cdf", "crhf_exp_cdf",
              "greenwood_variance", "rhr_variance", "eval_cdf")
SIMULATION = ("substream", "sample_lognormal", "apply_time_censoring",
              "apply_random_censoring", "ks_distance")

# (module, attribute path, span name, observer of the return value)
PATCHES = (
    [("lodcdf.cli", "ingest", "data.ingest", None),
     ("lodcdf.data", "Dataset.from_pairs", "data.dataset_build", _count_rows),
     ("lodcdf.cli", "tally", "data.tally", _count_tally),
     ("lodcdf.simulation", "tally", "data.tally", _count_tally)]
    + [("lodcdf.cli", fn, f"estimators.{fn}",
        _count_jumps if fn == "product_limit_cdf" else None) for fn in ESTIMATORS]
    + [("lodcdf.simulation", fn, f"estimators.{fn}",
        _count_jumps if fn == "product_limit_cdf" else None)
       for fn in ("product_limit_cdf", "rhr_mle_cdf")]
    + [("lodcdf.simulation", fn, f"simulation.{fn}", None) for fn in SIMULATION]
)


class Tracer:
    def __init__(self):
        self.spans: list = []            # (name, start, end, parent index, op id)
        self.counts: dict = defaultdict(int)
        self.op = 0
        self._stack: list[int] = []
        self._undo: list = []

    def add(self, name: str, amount: int) -> None:
        self.counts[name] += amount

    def call(self, name: str, fn, *args, observe=None, **kwargs):
        """Run fn inside a span; nested spans get this one as parent."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op)
        if observe is not None:
            observe(self, result)
        return result

    def _wrap(self, name, fn, observe):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, observe=observe, **kwargs)
        return wrapper

    def install(self) -> None:
        """Wrap every function in PATCHES that the program still has."""
        for module_name, path, name, observe in PATCHES:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = vars(owner).get(attr)
            if original is None:
                continue
            if isinstance(original, classmethod):
                patched = classmethod(self._wrap(name, original.__func__, observe))
            else:
                patched = self._wrap(name, original, observe)
            setattr(owner, attr, patched)
            self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def merge(self, spans: list, counts: dict, op: int) -> None:
        """Adopt spans and counts recorded by another process for one op."""
        offset = len(self.spans)
        for name, start, end, parent, _ in spans:
            self.spans.append((name, start, end, None if parent is None else parent + offset, op))
        for name, amount in counts.items():
            self.add(name, amount)

    def summary(self, ops: int) -> dict[str, float]:
        """Per-operation totals: '<name>_s', '<name>_self_s' and
        '<name>.calls' for every span name, plus every count."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        times: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for (name, start, end, _, _), child in zip(self.spans, covered):
            times[f"{name}_s"] += end - start
            times[f"{name}_self_s"] += end - start - child
            calls[f"{name}.calls"] += 1
        totals = {**times, **calls, **self.counts}
        return {name: total / ops for name, total in totals.items()}
