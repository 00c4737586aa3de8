"""Spans around calls into tbd's layers, recorded from outside the package.

``tbd.study`` binds its collaborators with ``from .x import y`` and the CLI
calls them as ``module.y``, so each function is patched where its caller
looks it up. ``Recorder.boundary`` installs the few hooks the end-to-end run
needs: one span per study cell and per fit, with the fit's ESS, and the
guard that turns a crashing cell into a failed one. ``Recorder.full`` adds
a span at every layer boundary and counts the log-density calls
``run_chains`` makes. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
import sys
import time
import traceback
import warnings
from contextlib import contextmanager

from derive import Span


def cpu_s() -> float:
    """CPU seconds used so far by this process, its threads and the child
    processes it has waited for."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _min_ess(post) -> float:
    vals = [d["ess"] for d in post.diagnostics.values() if not math.isnan(d["ess"])]
    return min(vals) if vals else math.nan


def _fit_attrs(key):
    def after(span, args, kwargs, post):
        span.attrs.update(fit_key=key(args, kwargs), converged=bool(post.converged),
                          min_ess=_min_ess(post))
    return after


def _long_key(args, kwargs):
    t = args[1] if len(args) > 1 else kwargs["t"]
    return f"longitudinal@{float(t):g}"


def _draws_k(span, args, kwargs, result):
    span.attrs["draws"] = len(result.sace)


class Recorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- spans -------------------------------------------------------------

    @contextmanager
    def span(self, name: str, op: bool = False, **attrs):
        """Time the enclosed block; ``op=True`` starts a new operation that
        nested spans are charged to, and records the process CPU seconds it
        took (see ``cpu_s``) as ``attrs["cpu_s"]``."""
        parent = self._stack[-1] if self._stack else None
        s = Span(id=len(self.spans), name=name, start=time.perf_counter(),
                 parent=parent.id if parent else None, attrs=attrs)
        s.op = s.id if op else (parent.op if parent else None)
        self.spans.append(s)
        self._stack.append(s)
        cpu0 = cpu_s() if op else 0.0
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            if op:
                s.attrs["cpu_s"] = cpu_s() - cpu0
            self._stack.pop()

    def named(self, *names: str) -> list[Span]:
        return [s for s in self.spans if s.name in names]

    # --- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _wrap(self, owner, attr: str, name: str, after=None) -> None:
        raw = vars(owner)[attr]
        fn = raw.__func__ if isinstance(raw, classmethod) else raw

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(s, args, kwargs, result)
                return result

        self._set(owner, attr, classmethod(wrapper) if isinstance(raw, classmethod) else wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def boundary(self, tbd) -> None:
        """Hooks the end-to-end numbers need: a span per cell and per fit."""
        study = tbd.study
        run_cell = study.run_cell

        def guarded_run_cell(config, scenario, replicate):
            with self.span("study.run_cell", op=True, scenario=scenario.name,
                           visits=len(scenario.visit_times)) as s:
                try:
                    return run_cell(config, scenario, replicate)
                except Exception as exc:  # one crashing cell must not end the study
                    traceback.print_exc(file=sys.stderr)
                    s.attrs["crashed"] = f"{type(exc).__name__}: {exc}"
                    return study.CellResult(
                        scenario=scenario.name, replicate=replicate, times=[],
                        failed=True, failure=f"crashed: {s.attrs['crashed']}",
                    )

        self._set(study, "run_cell", guarded_run_cell)
        for owner in (study, tbd.survival):
            self._wrap(owner, "fit_survival", "survival.fit_survival",
                       _fit_attrs(lambda args, kwargs: "survival"))
        for owner in (study, tbd.longitudinal):
            self._wrap(owner, "fit_longitudinal", "longitudinal.fit_longitudinal",
                       _fit_attrs(_long_key))

    def full(self, tbd) -> None:
        """Every layer boundary, plus log-density counting in ``run_chains``."""
        self.boundary(tbd)
        study, mcmc = tbd.study, tbd.mcmc
        for owner in (study, tbd.simulate):
            for attr in ("simulate_science_table", "observe", "true_estimands"):
                self._wrap(owner, attr, f"simulate.{attr}")
        for owner in (study, tbd.estimators):
            self._wrap(owner, "estimand_draws", "estimators.estimand_draws", _draws_k)
            self._wrap(owner, "rmst_estimand_draws", "estimators.rmst_estimand_draws")
        self._wrap(study, "ibs", "metrics.ibs")
        self._wrap(study, "mae_reconstruction", "metrics.mae_reconstruction")
        for attr in ("load_json", "dump_json", "observed_from_json"):
            self._wrap(tbd.science, attr, f"science.{attr}")
        for cls, layer in ((tbd.survival.SurvivalPosterior, "survival"),
                           (tbd.longitudinal.LongitudinalPosterior, "longitudinal")):
            self._wrap(cls, "from_json", f"{layer}.from_json")
            self._wrap(cls, "to_json", f"{layer}.to_json")
        self._wrap(tbd.survival.SurvivalPosterior, "s_mis_matrix", "survival.s_mis_matrix")
        self._wrap(study.CellResult, "from_doc", "study.from_doc")
        self._wrap(mcmc, "rhat", "mcmc.rhat")
        self._wrap(mcmc, "ess", "mcmc.ess")

        cdauc = study.cdauc

        def counted_cdauc(*args, **kwargs):
            with self.span("metrics.cdauc") as s, warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    return cdauc(*args, **kwargs)
                finally:
                    s.attrs["skipped"] = sum("no comparable" in str(w.message) for w in caught)

        self._set(study, "cdauc", counted_cdauc)

        run_chains = mcmc.run_chains

        def counted_run_chains(model, cfg):
            calls = 0
            model_s = 0.0

            def timed(fn, counts: bool):
                def call(params):
                    nonlocal calls, model_s
                    t0 = time.perf_counter()
                    try:
                        return fn(params)
                    finally:
                        model_s += time.perf_counter() - t0
                        calls += counts
                return call

            counted = dataclasses.replace(
                model,
                log_prior=timed(model.log_prior, False),
                log_likelihood=timed(model.log_likelihood, True),
            )
            with self.span("mcmc.run_chains") as s:
                try:
                    result = run_chains(counted, cfg)
                finally:
                    s.attrs.update(logdens_calls=calls, model_s=model_s)
                s.attrs["accept_min"] = min(result.accept_rates.values())
            return result

        self._set(mcmc, "run_chains", counted_run_chains)
