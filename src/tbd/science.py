"""Potential-outcomes data model for longitudinal outcomes truncated by death.

A "science table" records, for every patient, the full set of potential
outcomes under both treatment arms: the longitudinal trajectory (change from
baseline), the uncensored death time, and the administrative follow-up
horizon. Observed datasets keep only the realized arm. Death makes the
longitudinal outcome undefined (not merely missing), so comparisons across
arms are expressed through a composite outcome ordered with death as the
worst state (``composite_metric``).

All times are in months; longitudinal values are in score units.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from .codec import DecodeError, decode, encode


class InvariantError(ValueError):
    """A value violates one of the data-model invariants."""


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


def _check_trajectory(y: Mapping[float, float], t_death: float, label: str) -> None:
    for visit, value in y.items():
        if visit > t_death:
            raise InvariantError(
                f"{label} has a value at month {visit} after death at {t_death}"
            )
        if not math.isfinite(value):
            raise InvariantError(f"{label} has a non-finite value at month {visit}")


def check_visit_times(visit_times, follow_up: float, error: type[ValueError]) -> None:
    """Raise ``error`` unless the visit times are finite, strictly
    increasing and within (0, follow_up]."""
    for before, v in zip((0.0, *visit_times), visit_times):
        if not (before < v <= follow_up and math.isfinite(v)):
            raise error(f"visit times must be finite, strictly increasing and within "
                        f"(0, {follow_up}], got {list(visit_times)}")


@dataclass(frozen=True)
class PatientTruth:
    """One row of the science table: both arms' potential outcomes.

    ``y0``/``y1`` map visit time to the change-from-baseline score and carry
    entries only while the patient is alive under that arm.
    """

    id: int
    x: tuple[float, ...]
    w: int
    y0: dict[float, float]
    y1: dict[float, float]
    t0: float
    t1: float

    def __post_init__(self) -> None:
        if self.w not in (0, 1):
            raise InvariantError(f"treatment w must be 0 or 1, got {self.w}")
        for name, td in (("t0", self.t0), ("t1", self.t1)):
            if not (td > 0 and math.isfinite(td)):
                raise InvariantError(f"{name} must be positive and finite, got {td}")
        _check_trajectory(self.y0, self.t0, "y0")
        _check_trajectory(self.y1, self.t1, "y1")

    def death_time(self, arm: int) -> float:
        return self.t1 if arm == 1 else self.t0

    def trajectory(self, arm: int) -> dict[float, float]:
        return self.y1 if arm == 1 else self.y0


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
        _check_trajectory(self.y_obs, self.t_obs, "y_obs")

    def alive_at(self, t: float) -> bool:
        """True iff the patient is known alive at horizon t (death time > t)."""
        return self.d_obs == 0 or self.t_obs > t


@dataclass(frozen=True)
class ScienceTable:
    """Full potential-outcomes table for a simulated trial."""

    patients: tuple[PatientTruth, ...]
    follow_up: float
    visit_times: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.follow_up <= 0:
            raise InvariantError("follow_up must be positive")

    def __len__(self) -> int:
        return len(self.patients)

    def at(self, t: float) -> ScienceVisit:
        """The records as arrays at visit t; ``KeyError`` for a patient alive
        at t under an arm whose trajectory has no value there."""
        ps = self.patients
        return ScienceVisit(
            w=np.array([p.w for p in ps]),
            t0=np.array([p.t0 for p in ps]),
            t1=np.array([p.t1 for p in ps]),
            y0=np.array([p.y0[t] if p.t0 > t else np.nan for p in ps]),
            y1=np.array([p.y1[t] if p.t1 > t else np.nan for p in ps]),
        )


@dataclass(frozen=True)
class ScienceVisit:
    """Both arms' potential outcomes at one visit, in patient order: arm
    ``w``, death times ``t0``/``t1`` and scores ``y0``/``y1``, NaN where
    dead at t under that arm."""

    w: np.ndarray
    t0: np.ndarray
    t1: np.ndarray
    y0: np.ndarray
    y1: np.ndarray


@dataclass(frozen=True)
class VisitColumns:
    """Per-patient status at one visit time, in patient order."""

    alive: np.ndarray  # bool: known alive at t (``ObservedPatient.alive_at``)
    measured: np.ndarray  # bool: alive with a measurement at t
    y: np.ndarray  # float: outcome at t, NaN where there is none


class ObservedColumns:
    """Read-only array view of an ``ObservedDataset``, one entry per patient
    in patient order: arm ``w``, covariates ``x`` (patients, p), ``t_obs``
    and ``d_obs``, plus ``at(t)`` for each visit, built once per time."""

    def __init__(self, patients: tuple[ObservedPatient, ...]) -> None:
        self._patients = patients
        self.w = _frozen(np.array([p.w for p in patients]))
        # an empty dataset still has one covariate column
        x = np.array([p.x for p in patients], dtype=float) if patients else np.zeros((0, 1))
        self.x = _frozen(x)
        self.t_obs = _frozen(np.array([p.t_obs for p in patients]))
        self.d_obs = _frozen(np.array([p.d_obs for p in patients]))
        self._visits: dict[float, VisitColumns] = {}

    def at(self, t: float) -> VisitColumns:
        if t not in self._visits:
            # alive_at, vectorised; measured values are finite (checked on
            # construction), so NaN marks exactly the missing ones
            alive = (self.d_obs == 0) | (self.t_obs > t)
            y = np.array([p.y_obs.get(t, np.nan) for p in self._patients])
            self._visits[t] = VisitColumns(
                alive=_frozen(alive), measured=_frozen(alive & ~np.isnan(y)), y=_frozen(y)
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

    @functools.cached_property
    def columns(self) -> ObservedColumns:
        """The patients as arrays; not a field, so not serialized or compared."""
        return ObservedColumns(self.patients)


# --- JSON round-trip -------------------------------------------------------
#
# Both files are ``codec.encode`` of the dataclass (visit-time keys read "3",
# "4.5"), except that the trial's follow-up is written as ``follow_up_months``;
# like every codec document they refuse unknown keys.


def _to_file(table: ObservedDataset | ScienceTable) -> dict:
    doc = encode(table)
    doc["follow_up_months"] = doc.pop("follow_up")
    return doc


def _from_file(cls, patient_cls, doc: Mapping):
    """Inverse of ``_to_file``; ``KeyError`` for a missing follow-up or
    patient list. A value that does not fit is named by its record and field
    (``ObservedPatient.x: ...``); each patient is decoded on its own, so an
    invariant it breaks reads as raised, not under ``ObservedDataset.patients``."""
    follow_up = doc["follow_up_months"]
    if "follow_up" in doc:
        raise DecodeError(f"{cls.__name__}: unknown keys ['follow_up']")
    rest = {k: v for k, v in doc.items() if k != "follow_up_months"}
    # the file's own keys and follow-up first, then each patient, then the
    # patients against the follow-up
    shell = decode(cls, {**rest, "patients": [], "follow_up": follow_up})
    patients = tuple(decode(patient_cls, p) for p in doc["patients"])
    return replace(shell, patients=patients)


def observed_to_json(data: ObservedDataset) -> dict:
    return _to_file(data)


def observed_from_json(doc: Mapping) -> ObservedDataset:
    return _from_file(ObservedDataset, ObservedPatient, doc)


def science_to_json(table: ScienceTable) -> dict:
    return _to_file(table)


def science_from_json(doc: Mapping) -> ScienceTable:
    return _from_file(ScienceTable, PatientTruth, doc)


def dump_json(doc: dict, path) -> None:
    """Write ``doc`` as one line of JSON with sorted keys."""
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
