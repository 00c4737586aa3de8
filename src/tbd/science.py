"""Potential-outcomes data model for longitudinal outcomes truncated by death.

A "science table" records, for every patient, the full set of potential
outcomes under both treatment arms: the longitudinal trajectory (change from
baseline) and the uncensored death time, as columns with one row per
patient. An observed dataset keeps only the realized arm, as columns too;
only the files hold one record per patient. Death makes the longitudinal
outcome undefined (not merely missing), so comparisons across arms are
expressed through a composite outcome ordered with death as the worst state
(``composite_metric``).

All times are in months; longitudinal values are in score units.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, make_dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .codec import decode, encode


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


_INTEGER = ("id", "w", "d_obs")


def _columns(obj, vectors: tuple[str, ...], scores: tuple[str, ...]) -> dict[str, np.ndarray]:
    """``obj``'s columns as fresh arrays, float but for ``_INTEGER``, once its
    trial and their shapes are checked: a positive, finite ``follow_up``, the
    ``visit_times``, and ``x`` (n, p), ``vectors`` (n,) and ``scores`` (n, visits)."""
    fu, k = obj.follow_up, len(obj.visit_times)
    if not (fu > 0 and math.isfinite(fu)):
        raise InvariantError(f"follow_up must be positive and finite, got {fu}")
    check_visit_times(obj.visit_times, fu, InvariantError)
    names = ("x", *vectors, *scores)
    cols = {c: np.array(getattr(obj, c), dtype=None if c in _INTEGER else float) for c in names}
    n, got = len(cols["w"]), {c: a.shape for c, a in cols.items()}
    want = {c: (n, *got["x"][1:]) if c == "x" else (n, k) if c in scores else (n,) for c in names}
    if len(got["x"]) != 2 or got != want:
        raise InvariantError(f"columns must be x (n, p), {', '.join(vectors)} (n,) and "
                             f"{', '.join(scores)} (n, {k} visits); got {got}")
    return cols


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


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
        cols = _columns(self, ("w", "t0", "t1"), ("y0", "y1"))
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
            object.__setattr__(self, c, _frozen(a.astype(int) if c in _INTEGER else a))

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

    alive: np.ndarray  # bool: known alive at t, no death observed at or before t
    measured: np.ndarray  # bool: alive with a measurement at t
    y: np.ndarray  # float: outcome at t, NaN where there is none


@dataclass(frozen=True, eq=False)
class ObservedDataset:
    """Observed trial data, the assigned arm only, as read-only columns with
    one row per patient: ``id``, covariates ``x`` (patients, p >= 1), arm
    ``w``, ``t_obs`` = min(death time, follow-up), ``d_obs`` (1 for a death
    at ``t_obs``, 0 for administrative censoring) and scores ``y`` (patients,
    visits), NaN where there is none. A score at a death's own month is kept
    and read as not measured. ``at(t)`` is the view at one month."""

    id: np.ndarray
    x: np.ndarray
    w: np.ndarray
    t_obs: np.ndarray
    d_obs: np.ndarray
    y: np.ndarray
    follow_up: float
    visit_times: tuple[float, ...]

    def __post_init__(self) -> None:
        cols = _columns(self, ("id", "w", "t_obs", "d_obs"), ("y",))
        fu, visits = self.follow_up, self.visit_times
        if not cols["x"].shape[1]:
            raise InvariantError("covariate vectors must hold at least one covariate, got 0")
        w, t, d, y = cols["w"], cols["t_obs"], cols["d_obs"], cols["y"]
        late = ~np.isnan(y) & (np.array(visits) > t[:, None])
        # each check names its first offending row
        for bad, why in (
            ((w != 0) & (w != 1), lambda i: f"treatment w must be 0 or 1, got {w[i]}"),
            ((d != 0) & (d != 1), lambda i: f"d_obs must be 0 or 1, got {d[i]}"),
            (~(t > 0) | np.isinf(t), lambda i: f"t_obs must be positive and finite, got {t[i]}"),
            (late.any(axis=1), lambda i: f"y_obs has a value at month {visits[late[i].argmax()]} "
                                         f"after death at {t[i]}"),
            (np.isinf(y).any(axis=1), lambda i: "y_obs has a non-finite value at month "
                                                f"{visits[np.isinf(y[i]).argmax()]}"),
            ((d == 1) & (t > fu), lambda i: f"death at t_obs {t[i]} after follow-up {fu}"),
            ((d == 0) & (t != fu), lambda i: "censored patients must carry t_obs = follow_up"),
        ):
            if rows := np.flatnonzero(bad).tolist():
                raise InvariantError(why(rows[0]))
        for c, a in cols.items():
            object.__setattr__(self, c, _frozen(a.astype(int) if c in _INTEGER else a))
        object.__setattr__(self, "_visits", {})

    def __len__(self) -> int:
        return len(self.w)

    def at(self, t: float) -> VisitColumns:
        """Each patient's status at month t, built once per month; at a
        month that is not a visit, nobody is measured."""
        if t not in self._visits:
            alive = (self.d_obs == 0) | (self.t_obs > t)
            y = (self.y[:, self.visit_times.index(t)] if t in self.visit_times
                 else _frozen(np.full(len(self), np.nan)))
            self._visits[t] = VisitColumns(
                alive=_frozen(alive), measured=_frozen(alive & ~np.isnan(y)), y=y)
        return self._visits[t]

    def check_measured(self, t: float) -> None:
        """Raise ``ValueError`` naming the first patient known alive at t without a value there."""
        at = self.at(t)
        if gaps := np.flatnonzero(at.alive & ~at.measured).tolist():
            raise ValueError(f"patient {self.id[gaps[0]]} alive at month {t} without a measurement")


# --- files: the JSON layouts, the one reader and the one writer -------------


@dataclass(frozen=True)
class ObservedPatient:
    """A patient record of ``observed.json``, the file's row schema: it
    checks nothing, and ``observed_dataset`` turns the records into columns."""

    id: int
    x: tuple[float, ...]
    w: int
    t_obs: float
    d_obs: int
    y_obs: dict[float, float]


def observed_dataset(patients, follow_up: float, visit_times) -> ObservedDataset:
    """The dataset of the records ``patients`` (``ObservedPatient``), a row
    each in their order. Covariate vectors of different lengths, and a score
    that is not finite or at a month that is not a visit, are refused here."""
    visit_times = tuple(visit_times)
    if len(lengths := {len(p.x) for p in patients}) > 1:
        raise InvariantError(f"covariate vectors must share one length, got {sorted(lengths)}")
    column = {v: j for j, v in enumerate(visit_times)}
    y = np.full((len(patients), len(visit_times)), np.nan)
    for i, p in enumerate(patients):
        for month, value in p.y_obs.items():
            if month not in column:
                raise InvariantError(f"patient {p.id} has a value at month {month}, which is not "
                                     f"a visit time {list(visit_times)}")
            if not math.isfinite(value):
                raise InvariantError(f"y_obs has a non-finite value at month {month}")
            y[i, column[month]] = value
    cols = {c: [getattr(p, c) for p in patients] for c in ("id", "x", "w", "t_obs", "d_obs")}
    cols["x"] = cols["x"] or np.zeros((0, 1))  # an empty dataset still has one covariate column
    return ObservedDataset(**cols, y=y, follow_up=follow_up, visit_times=visit_times)


def _by_visit(scores: np.ndarray, visit_times) -> list[dict[float, float]]:
    """Each row of a (patients, visits) score matrix as ``{visit: score}``,
    NaN left out."""
    return [{v: y for v, y in zip(visit_times, row) if y == y}  # y == y: not NaN
            for row in scores.tolist()]


def _file(follow_up: float, visit_times, **columns: list) -> dict:
    """The document of a trial: one record per patient, of the ``columns``
    (lists in patient order) by name, and the trial's follow-up once, as
    ``follow_up_months``; visit-month keys read "3", "4.5"."""
    patients = [dict(zip(columns, row)) for row in zip(*columns.values())]
    return encode({"patients": patients, "follow_up_months": follow_up,
                   "visit_times": visit_times})


def observed_to_json(data: ObservedDataset) -> dict:
    """The dataset as ``observed.json``: a record per patient (``ObservedPatient``)."""
    return _file(data.follow_up, data.visit_times, id=data.id.tolist(), x=data.x.tolist(),
                 w=data.w.tolist(), t_obs=data.t_obs.tolist(), d_obs=data.d_obs.tolist(),
                 y_obs=_by_visit(data.y, data.visit_times))


# the file's own keys, named as its refusals name them: "ObservedDataset.visit_times: ..."
_ObservedFile = make_dataclass("ObservedDataset", [
    ("follow_up_months", float), ("patients", tuple[ObservedPatient, ...]),
    ("visit_times", tuple[float, ...], field(default=()))], frozen=True)


def observed_from_json(doc: Mapping) -> ObservedDataset:
    """Inverse of ``observed_to_json``; ``KeyError`` for a missing follow-up
    or patient list. The file's own keys are checked first, then each record's
    shape (``ObservedPatient.x: ...``), then the records and the columns."""
    top = decode(dict[str, object], doc)
    if missing := [k for k in ("follow_up_months", "patients") if k not in top]:
        raise KeyError(missing[0])
    file = decode(_ObservedFile, top)
    return observed_dataset(file.patients, file.follow_up_months, file.visit_times)


def science_to_json(table: ScienceTable) -> dict:
    """The table as ``science.json``: a record per patient, ids the row
    indices, each arm's scores by visit as ``observed_to_json`` writes them."""
    visits = table.visit_times
    return _file(table.follow_up, visits, id=list(range(len(table))), x=table.x.tolist(),
                 w=table.w.tolist(), t0=table.t0.tolist(), t1=table.t1.tolist(),
                 y0=_by_visit(table.y0, visits), y1=_by_visit(table.y1, visits))


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
    """Write ``doc`` as JSON with sorted keys, one line unless ``indent`` is
    given. ``json.dumps`` builds the text in one string: one line of it goes
    through CPython's C encoder, which ``json.dump`` never uses; an indented
    one takes the pure Python encoder either way. The bytes are
    ``json.dump``'s."""
    with replacing(path) as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=indent) + "\n")


def load_json(path):
    with open(path) as fh:
        return json.load(fh)
