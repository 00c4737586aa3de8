"""Potential-outcomes data model for longitudinal outcomes truncated by death.

A "science table" records, for every patient, the full set of potential
outcomes under both treatment arms: the longitudinal trajectory (change from
baseline) and the uncensored death time, as columns with one row per
patient. Observed datasets keep only the realized arm, one record per
patient. Death makes the longitudinal outcome undefined (not merely
missing), so comparisons across arms are expressed through a composite
outcome ordered with death as the worst state (``composite_metric``).

All times are in months; longitudinal values are in score units.
"""

from __future__ import annotations

import functools
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from itertools import chain
from pathlib import Path
from typing import Mapping

import numpy as np

from .codec import DecodeError, decode, encode


_MASS_TOL = 1e-12


class InvariantError(ValueError):
    """A value violates one of the data-model invariants."""


class OutputRefused(OSError):
    """An output file that could not be written: ``output <path> refused:
    <reason>``."""


def composite_metric(t0, t1, y0, y1, t):
    """Signed distance between the composite outcomes at horizon t, treated
    minus control, elementwise over death times ``t0``/``t1`` and scores
    ``y0``/``y1``.

    Death at or before t is the worst state. Two survivors differ by
    ``y1 - y0``; a survivor against a death is +/-inf, in the survivor's
    favour; two deaths are 0 at equal times and otherwise +/-inf, in favour
    of the later one. So the sign orders the two outcomes. A score is read
    only where both arms survive.
    """
    t0, t1, y0, y1 = (np.asarray(a, dtype=float) for a in (t0, t1, y0, y1))
    alive0, alive1 = t0 > t, t1 > t
    by_death = np.where(alive0 == alive1, np.sign(t1 - t0), alive1.astype(float) - alive0)
    infinite = np.array([-np.inf, 0.0, np.inf])[by_death.astype(int) + 1]
    return np.where(alive0 & alive1, y1 - y0, infinite)


def mass_median(values: np.ndarray, masses: np.ndarray, half: float,
                below: np.ndarray, above: np.ndarray) -> np.ndarray:
    """Mass median of every row of the atoms [-inf x a, ``values``, +inf x b]:
    the value where the cumulative mass first reaches ``half``, or, at a
    boundary exactly between two atoms, their mean, where an infinity wins
    and opposite infinities give NaN. ``values`` and ``masses`` (rows, f) are
    the finite atoms, sorted by value; ``below`` (rows, a) and ``above``
    (rows, b) are the masses of the atoms at -inf and at +inf, in their
    order. Each row's masses add up to 2 * ``half``. Unit masses give the
    order-statistic median over the extended reals.

    The cumulative masses are one running sum over ``below`` and then
    ``masses``, so each has the bits of a running sum over the whole row. A
    half point past the finite atoms is +inf: no mass of ``above`` is
    summed, and ``above > 0`` is read only for a boundary with no later
    finite atom of positive mass. Zero-mass atoms may stay in the rows:
    adding 0.0 leaves each cumulative sum as it was, and such an atom is
    never the one picked nor the neighbour at a boundary."""
    a, f = below.shape[1], values.shape[1]
    mass = np.concatenate([below, masses], axis=1)
    cum = np.cumsum(mass, axis=1)
    # the first atom reaching half; past the finite atoms, one at +inf
    idx = (cum < half - _MASS_TOL).sum(axis=1)
    rows = np.flatnonzero(idx < a + f)
    at = idx[rows]
    finite = at >= a
    lo = np.full(len(values), np.inf)
    lo[rows] = -np.inf
    lo[rows[finite]] = values[rows[finite], at[finite] - a]
    boundary = np.abs(cum[rows, at] - half) <= _MASS_TOL  # half the mass is later
    rows, at = rows[boundary], at[boundary]
    if not len(rows):
        return lo
    # the next atom of positive mass: at -inf, finite, else at +inf; with
    # none at all, the row's first atom
    later = (mass[rows] > 0) & (np.arange(a + f) > at[:, None])
    nxt, has = np.argmax(later, axis=1), later.any(axis=1)
    hi = np.full(len(rows), -np.inf)
    fin = has & (nxt >= a)
    hi[fin] = values[rows[fin], nxt[fin] - a]
    none = np.flatnonzero(~has)
    first = -np.inf if a else values[rows[none], 0]  # a row reached has an atom
    hi[none] = np.where((above[rows[none]] > 0).any(axis=1), np.inf, first)
    low = lo[rows]
    with np.errstate(invalid="ignore"):
        mid = np.where(np.isinf(low), low, np.where(np.isinf(hi), hi, 0.5 * (low + hi)))
    mid[np.isinf(low) & np.isinf(hi) & (low != hi)] = np.nan
    lo[rows] = mid
    return lo


def check_visit_times(visit_times, follow_up: float, error: type[ValueError]) -> None:
    """Raise ``error`` unless the visit times are finite, strictly
    increasing and within (0, follow_up]."""
    for before, v in zip((0.0, *visit_times), visit_times):
        if not (before < v <= follow_up and math.isfinite(v)):
            raise error(f"visit times must be finite, strictly increasing and within "
                        f"(0, {follow_up}], got {list(visit_times)}")


@dataclass(frozen=True)
class ObservedPatient:
    """A patient as seen in the trial: assigned arm only.

    ``t_obs`` is min(death time, the trial's follow-up); ``d_obs`` is 1 iff
    the death was observed at ``t_obs`` and 0 for administrative censoring.
    """

    id: int
    x: tuple[float, ...]
    w: int
    t_obs: float
    d_obs: int
    y_obs: dict[float, float]

    def __post_init__(self) -> None:
        if self.w not in (0, 1):
            raise InvariantError(f"treatment w must be 0 or 1, got {self.w}")
        if self.d_obs not in (0, 1):
            raise InvariantError(f"d_obs must be 0 or 1, got {self.d_obs}")
        if not (self.t_obs > 0 and math.isfinite(self.t_obs)):
            raise InvariantError(f"t_obs must be positive and finite, got {self.t_obs}")
        for visit, value in self.y_obs.items():
            if visit > self.t_obs:
                raise InvariantError(f"y_obs has a value at month {visit} after death at {self.t_obs}")
            if not math.isfinite(value):
                raise InvariantError(f"y_obs has a non-finite value at month {visit}")

    def alive_at(self, t: float) -> bool:
        """True iff the patient is known alive at horizon t (death time > t)."""
        return self.d_obs == 0 or self.t_obs > t


@dataclass(frozen=True, eq=False)
class ScienceTable:
    """Full potential-outcomes table for a simulated trial, as read-only
    columns with one row per patient: covariates ``x`` (patients, p), arm
    ``w``, death times ``t0``/``t1`` and scores ``y0``/``y1`` (patients,
    visits), finite exactly while alive under that arm, NaN from death on."""

    x: np.ndarray
    w: np.ndarray
    t0: np.ndarray
    t1: np.ndarray
    y0: np.ndarray
    y1: np.ndarray
    follow_up: float
    visit_times: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.follow_up <= 0:
            raise InvariantError("follow_up must be positive")
        check_visit_times(self.visit_times, self.follow_up, InvariantError)
        cols = {c: np.array(getattr(self, c), dtype=None if c == "w" else float)
                for c in ("x", "w", "t0", "t1", "y0", "y1")}
        n, k = len(cols["w"]), len(self.visit_times)
        got = {c: a.shape for c, a in cols.items()}
        want = {"x": (n, *got["x"][1:]), "w": (n,), "t0": (n,), "t1": (n,), "y0": (n, k), "y1": (n, k)}
        if len(got["x"]) != 2 or got != want:
            raise InvariantError(f"columns must be x (n, p), w, t0 and t1 (n,), y0 and y1 (n, {k} "
                                 f"visits); got {got}")
        if arms := np.setdiff1d(cols["w"], (0, 1)).tolist():
            raise InvariantError(f"treatment w must be 0 or 1, got {arms[0]}")
        for arm in "01":
            t, y = cols["t" + arm], cols["y" + arm]
            if bad := np.flatnonzero(~((t > 0) & np.isfinite(t))).tolist():
                raise InvariantError(f"t{arm} must be positive and finite, got {t[bad[0]]}")
            alive = t[:, None] > np.array(self.visit_times)
            if bad := np.argwhere(np.where(alive, ~np.isfinite(y), ~np.isnan(y))).tolist():
                (i, j), what = bad[0], "no finite value" if alive[tuple(bad[0])] else "a value"
                raise InvariantError(f"y{arm} of patient {i} has {what} at month "
                                     f"{self.visit_times[j]}, death at {t[i]}")
        for c, a in cols.items():
            object.__setattr__(self, c, _frozen(a.astype(int) if c == "w" else a))

    def __len__(self) -> int:
        return len(self.w)

    def at(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Both arms' scores ``y0``/``y1`` at visit t, NaN where dead at t."""
        if t not in self.visit_times:
            raise ValueError(f"t={t} is not a visit time of this table")
        j = self.visit_times.index(t)
        return self.y0[:, j], self.y1[:, j]


@dataclass(frozen=True)
class VisitColumns:
    """Per-patient status at one visit time, in patient order."""

    alive: np.ndarray  # bool: known alive at t (``ObservedPatient.alive_at``)
    measured: np.ndarray  # bool: alive with a measurement at t
    y: np.ndarray  # float: outcome at t, NaN where there is none


class ObservedColumns:
    """Read-only array view of an ``ObservedDataset``, one entry per patient
    in patient order: arm ``w``, covariates ``x`` (patients, p), ``t_obs``
    and ``d_obs``, plus ``at(t)`` for each visit, built once per time. The
    outcomes are one (patients, months) matrix over every month at which
    some patient has a value, NaN where a patient has none."""

    def __init__(self, patients: tuple[ObservedPatient, ...]) -> None:
        self.w = _frozen(np.array([p.w for p in patients]))
        # an empty dataset still has one covariate column
        x = np.array([p.x for p in patients], dtype=float) if patients else np.zeros((0, 1))
        self.x = _frozen(x)
        self.t_obs = _frozen(np.array([p.t_obs for p in patients]))
        self.d_obs = _frozen(np.array([p.d_obs for p in patients]))
        month = np.fromiter(chain.from_iterable(p.y_obs for p in patients), float)
        value = np.fromiter(chain.from_iterable(p.y_obs.values() for p in patients), float)
        row = np.repeat(np.arange(len(patients)), [len(p.y_obs) for p in patients])
        months, col = np.unique(month, return_inverse=True)
        # column-major: each month's column is contiguous; the all-NaN last one is for other months
        self._y = np.full((len(patients), len(months) + 1), np.nan, order="F")
        self._y[row, col] = value
        _frozen(self._y)
        self._column = {m: j for j, m in enumerate(months.tolist())}
        self._visits: dict[float, VisitColumns] = {}

    def at(self, t: float) -> VisitColumns:
        if t not in self._visits:
            # alive_at, vectorised; measured values are finite (checked on
            # construction), so NaN marks exactly the missing ones
            alive = (self.d_obs == 0) | (self.t_obs > t)
            y = self._y[:, self._column.get(t, -1)]
            self._visits[t] = VisitColumns(
                alive=_frozen(alive), measured=_frozen(alive & ~np.isnan(y)), y=y
            )
        return self._visits[t]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ObservedDataset:
    """Observed trial data: one realized arm per patient."""

    patients: tuple[ObservedPatient, ...]
    follow_up: float
    visit_times: tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        if not (self.follow_up > 0 and math.isfinite(self.follow_up)):
            raise InvariantError(f"follow_up must be positive and finite, got {self.follow_up}")
        check_visit_times(self.visit_times, self.follow_up, InvariantError)
        for p in self.patients:
            if p.d_obs == 1 and p.t_obs > self.follow_up:
                raise InvariantError(f"death at t_obs {p.t_obs} after follow-up {self.follow_up}")
            if p.d_obs == 0 and p.t_obs != self.follow_up:
                raise InvariantError("censored patients must carry t_obs = follow_up")
        if len(lengths := {len(p.x) for p in self.patients}) > 1:
            raise InvariantError(f"covariate vectors must share one length, got {sorted(lengths)}")

    def __len__(self) -> int:
        return len(self.patients)

    def check_measured(self, t: float) -> None:
        """Raise ``ValueError`` naming the first patient known alive at t without a value there."""
        at = self.columns.at(t)
        if gaps := np.flatnonzero(at.alive & ~at.measured).tolist():
            raise ValueError(
                f"patient {self.patients[gaps[0]].id} alive at month {t} without a measurement")

    @functools.cached_property
    def columns(self) -> ObservedColumns:
        """The patients as arrays; not a field, so not serialized or compared."""
        return ObservedColumns(self.patients)


# --- files: the JSON layouts, the one reader and the one writer -------------


def observed_to_json(data: ObservedDataset) -> dict:
    """``codec.encode`` of the dataset (visit-time keys read "3", "4.5"), but
    with the trial's follow-up written as ``follow_up_months``."""
    doc = encode(data)
    doc["follow_up_months"] = doc.pop("follow_up")
    return doc


def observed_from_json(doc: Mapping) -> ObservedDataset:
    """Inverse of ``observed_to_json``; ``KeyError`` for a missing follow-up
    or patient list. The file's own keys are checked first, then each
    patient on its own, so a misfit reads ``ObservedPatient.x: ...`` and a
    broken invariant as raised, then the patients against the follow-up."""
    rest = {k: v for k, v in decode(dict[str, object], doc).items() if k != "follow_up_months"}
    if "follow_up" in rest:
        raise DecodeError("ObservedDataset: unknown keys ['follow_up']")
    shell = decode(ObservedDataset, {**rest, "patients": [], "follow_up": doc["follow_up_months"]})
    return replace(shell, patients=decode(tuple[ObservedPatient, ...], doc["patients"]))


def science_to_json(table: ScienceTable) -> dict:
    """The table as per-patient records, ids the row indices, with the
    finite scores keyed by visit month, as ``observed_to_json`` writes them."""
    visits = table.visit_times
    rows = zip(table.x.tolist(), table.w.tolist(), table.t0.tolist(), table.t1.tolist(),
               table.y0.tolist(), table.y1.tolist())
    patients = [{"id": i, "x": x, "w": w, "t0": t0, "t1": t1,
                 "y0": {v: y for v, y in zip(visits, y0) if y == y},  # y == y: not NaN
                 "y1": {v: y for v, y in zip(visits, y1) if y == y}}
                for i, (x, w, t0, t1, y0, y1) in enumerate(rows)]
    return encode({"patients": patients, "follow_up_months": table.follow_up, "visit_times": visits})


@contextmanager
def replacing(path):
    """A text file that replaces ``path`` when the block ends cleanly: it is
    written beside ``path``, its directory created, then renamed over it, so
    a reader finds the old file or the new one. Every file is written here;
    an ``OSError`` while writing is raised as ``OutputRefused``."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except OSError as exc:
        # name the path that failed if not the file; a failed rename (two names) is the file's
        failed = None if exc.filename2 is not None else exc.filename
        at = "" if failed in (None, str(path)) else f": {failed}"
        raise OutputRefused(f"output {path} refused: {exc.strerror or exc}{at}") from exc
    finally:
        if tmp.is_file():
            tmp.unlink()


def dump_json(doc: dict, path, indent: int | None = None) -> None:
    """Write ``doc`` as JSON with sorted keys, one line unless ``indent`` is given."""
    with replacing(path) as fh:
        json.dump(doc, fh, sort_keys=True, indent=indent)
        fh.write("\n")


def load_json(path):
    with open(path) as fh:
        return json.load(fh)
