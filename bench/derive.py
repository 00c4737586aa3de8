"""Pure derivations behind the benchmark's metrics: no clocks, no I/O.

Everything here takes recorded values (spans, fit records, counts) and
returns numbers, so ``test_derive.py`` can check each rule on hand-made
inputs.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field


@dataclass
class Span:
    """One timed call: ``[start, end]`` on ``perf_counter``, the span that
    caused it, and the operation (study cell, estimate call, ...) it
    belongs to. ``model_s`` is time spent inside the log-density callables
    a ``run_chains`` span was handed; those calls are counted, not spanned."""

    id: int
    name: str
    start: float
    end: float = math.nan
    parent: int | None = None
    op: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def median(values) -> float:
    vals = list(values)
    if not vals:
        raise ValueError("median of no values")
    return float(statistics.median(vals))


def tail_percentile(values, min_tail: int = 10, candidates=(99, 95, 90, 75)):
    """The highest percentile with at least ``min_tail`` samples beyond it,
    as ``(p, value)``, or None when there are too few samples for any."""
    vals = sorted(values)
    n = len(vals)
    for p in candidates:
        if n * (100 - p) / 100 >= min_tail:
            cuts = statistics.quantiles(vals, n=100, method="inclusive")
            return p, float(cuts[p - 1])
    return None


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the time its direct children cover and
    the time spent in counted model callables."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    return {
        s.id: s.duration - child_time.get(s.id, 0.0) - s.attrs.get("model_s", 0.0)
        for s in spans
    }


def layer_self_times(spans: list[Span], keep=lambda s: True,
                     model_layers=("survival", "longitudinal")) -> dict[str, float]:
    """Self time summed per layer (the span-name prefix) over the spans
    ``keep`` selects. Model callable time goes to the nearest enclosing
    span of a model layer, since the callables are that layer's log
    density."""
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    out: dict[str, float] = {}
    for s in filter(keep, spans):
        out[s.layer] = out.get(s.layer, 0.0) + own[s.id]
        model_s = s.attrs.get("model_s", 0.0)
        if model_s:
            anc = s
            while anc is not None and anc.layer not in model_layers:
                anc = by_id.get(anc.parent)
            layer = anc.layer if anc is not None else "model"
            out[layer] = out.get(layer, 0.0) + model_s
    return out


def attributed_frac(cell_spans: list[Span], spans: list[Span]) -> float:
    """Share of cell time covered by child spans, i.e. one minus the cells'
    own (unattributed) self time over their total time."""
    own = self_times(spans)
    total = sum(c.duration for c in cell_spans)
    return 1.0 - sum(own[c.id] for c in cell_spans) / total


def final_attempts(fit_spans: list[Span]) -> tuple[list[Span], int]:
    """The last attempt of every fit, and the number of attempts.

    A fit is keyed by its operation and ``attrs["fit_key"]`` (the layer and
    visit time); a retry repeats the key within the operation, so the last
    span per key is the attempt the cell kept."""
    last: dict[tuple, Span] = {}
    for s in sorted(fit_spans, key=lambda s: s.start):
        if "fit_key" in s.attrs:  # absent when the attempt raised
            last[(s.op, s.attrs["fit_key"])] = s
    return list(last.values()), len(fit_spans)


def retry_frac(attempts: int, fits: int) -> float:
    """Attempts beyond the first, over fits."""
    return (attempts - fits) / fits if fits else 0.0


def fail_frac(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("no operations attempted")
    return failed / attempted


def min_ess_per_cpu_s(ops: list[tuple[float, list[float]]]) -> float:
    """Median over operations of (mean over the fits behind the operation's
    estimates of each fit's minimum coordinate ESS) / (operation CPU time).

    ``ops`` holds ``(cpu_s, [min ess per fit])`` with the fits that passed
    diagnostics; an operation with none has no ESS to report and is
    skipped. The mean over fits, not their minimum, keeps one fit's noisy
    ESS estimate from setting the figure: a sampler that mixes worse lowers
    it through every fit. CPU time, not wall time, is the divisor because
    this figure guards the sampler's efficiency per unit of work: on a
    shared host a cell's wall time also counts time the host gave to other
    tenants, and a run of one cell has no median to take that out."""
    rates = [statistics.fmean(ess) / cpu for cpu, ess in ops if ess]
    return median(rates) if rates else math.nan
