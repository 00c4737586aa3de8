"""Potential-outcomes data model for longitudinal outcomes truncated by death.

A "science table" records, for every patient, the full set of potential
outcomes under both treatment arms: the longitudinal trajectory (change from
baseline), the uncensored death time, and the administrative follow-up
horizon. Observed datasets keep only the realized arm. Death makes the
longitudinal outcome undefined (not merely missing), so comparisons across
arms are expressed through principal strata and a composite outcome ordered
with death as the worst state.

All times are in months; longitudinal values are in score units.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Mapping

import numpy as np

from .codec import DecodeError, decode, encode


class InvariantError(ValueError):
    """A value violates one of the data-model invariants."""


class Stratum(Enum):
    """Principal stratum at a horizon t, from joint survival under both arms.

    LL always-survivor, DL protected (dies only under control), LD harmed
    (dies only under treatment), DD never-survivor.
    """

    LL = "LL"
    DL = "DL"
    LD = "LD"
    DD = "DD"


def classify_stratum(t0: float, t1: float, t: float) -> Stratum:
    """Classify a patient by survival status under both arms at horizon t.

    ``t0`` and ``t1`` are the uncensored death times under control and
    treatment. Death exactly at the horizon counts as dead at that horizon.
    """
    if t0 <= 0 or t1 <= 0 or t <= 0:
        raise ValueError(f"death times and horizon must be positive, got t0={t0}, t1={t1}, t={t}")
    alive0 = t0 > t
    alive1 = t1 > t
    if alive0 and alive1:
        return Stratum.LL
    if alive0:
        return Stratum.LD
    if alive1:
        return Stratum.DL
    return Stratum.DD


@dataclass(frozen=True)
class CompositeOutcome:
    """Composite outcome (y, t, d) at an evaluation horizon.

    ``y`` is the longitudinal value, present iff the patient is alive at the
    horizon (d = 0); ``t`` is the restricted event time min(death time,
    horizon); ``d`` is 1 iff dead at or before the horizon.
    """

    y: float | None
    t: float
    d: int

    def __post_init__(self) -> None:
        if self.d not in (0, 1):
            raise InvariantError(f"d must be 0 or 1, got {self.d}")
        if (self.y is None) != (self.d == 1):
            raise InvariantError("y must be present iff alive (d = 0) at the horizon")
        if self.y is not None and not math.isfinite(self.y):
            raise InvariantError("longitudinal value must be finite")


def composite_order(z1: CompositeOutcome, z0: CompositeOutcome) -> int:
    """Order two composite outcomes (treated arm first) with death as worst.

    Returns +1 if z1 is the better outcome, -1 if worse, 0 if equivalent.
    A survivor always beats a death; two deaths are ordered by event time;
    two survivors by the longitudinal value.
    """
    if z1.d == 0 and z0.d == 1:
        return 1
    if z1.d == 1 and z0.d == 0:
        return -1
    if z1.d == 1:  # both dead, later death is better
        if z1.t > z0.t:
            return 1
        if z1.t < z0.t:
            return -1
        return 0
    assert z1.y is not None and z0.y is not None
    if z1.y > z0.y:
        return 1
    if z1.y < z0.y:
        return -1
    return 0


def composite_metric(z1: CompositeOutcome, z0: CompositeOutcome) -> float:
    """Signed distance between composite outcomes (treated minus control).

    Finite (the plain longitudinal difference) when both survive, zero for
    deaths at identical times, and +/-inf whenever survival status or death
    timing differs, signed consistently with :func:`composite_order`.
    """
    if z1.d == 0 and z0.d == 0:
        assert z1.y is not None and z0.y is not None
        return z1.y - z0.y
    if z1.d == 1 and z0.d == 1:
        if z1.t == z0.t:
            return 0.0
        return math.inf if z1.t > z0.t else -math.inf
    return math.inf if z0.d == 1 else -math.inf


def _check_trajectory(y: Mapping[float, float], t_death: float, label: str) -> None:
    for visit, value in y.items():
        if visit > t_death:
            raise InvariantError(
                f"{label} has a value at month {visit} after death at {t_death}"
            )
        if not math.isfinite(value):
            raise InvariantError(f"{label} has a non-finite value at month {visit}")


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
    follow_up: float

    def __post_init__(self) -> None:
        if self.w not in (0, 1):
            raise InvariantError(f"treatment w must be 0 or 1, got {self.w}")
        for name, td in (("t0", self.t0), ("t1", self.t1)):
            if not (td > 0 and math.isfinite(td)):
                raise InvariantError(f"{name} must be positive and finite, got {td}")
        if self.follow_up <= 0:
            raise InvariantError("follow_up must be positive")
        _check_trajectory(self.y0, self.t0, "y0")
        _check_trajectory(self.y1, self.t1, "y1")

    def death_time(self, arm: int) -> float:
        return self.t1 if arm == 1 else self.t0

    def trajectory(self, arm: int) -> dict[float, float]:
        return self.y1 if arm == 1 else self.y0


@dataclass(frozen=True)
class ObservedPatient:
    """A patient as seen in the trial: assigned arm only.

    ``t_obs`` is min(death time, follow-up); ``d_obs`` is 1 iff the death was
    observed at ``t_obs`` and 0 for administrative censoring.
    """

    id: int
    x: tuple[float, ...]
    w: int
    t_obs: float
    d_obs: int
    y_obs: dict[float, float]
    follow_up: float

    def __post_init__(self) -> None:
        if self.w not in (0, 1):
            raise InvariantError(f"treatment w must be 0 or 1, got {self.w}")
        if self.d_obs not in (0, 1):
            raise InvariantError(f"d_obs must be 0 or 1, got {self.d_obs}")
        if self.d_obs == 0 and self.t_obs != self.follow_up:
            raise InvariantError("censored patients must carry t_obs = follow_up")
        _check_trajectory(self.y_obs, self.t_obs, "y_obs")

    def alive_at(self, t: float) -> bool:
        """True iff the patient is known alive at horizon t (death time > t)."""
        return self.d_obs == 0 or self.t_obs > t


def observed_composite(p: ObservedPatient, t: float) -> CompositeOutcome:
    """Observed composite outcome of a patient at horizon t."""
    if p.alive_at(t):
        if t not in p.y_obs:
            raise KeyError(f"patient {p.id} has no measurement at month {t}")
        return CompositeOutcome(y=p.y_obs[t], t=t, d=0)
    return CompositeOutcome(y=None, t=p.t_obs, d=1)


def potential_composite(p: PatientTruth, arm: int, t: float) -> CompositeOutcome:
    """Potential composite outcome of a science-table patient under ``arm``."""
    td = p.death_time(arm)
    if td > t:
        y = p.trajectory(arm).get(t)
        if y is None:
            raise KeyError(f"patient {p.id} has no arm-{arm} value at month {t}")
        return CompositeOutcome(y=y, t=t, d=0)
    return CompositeOutcome(y=None, t=min(td, t), d=1)


@dataclass(frozen=True)
class ScienceTable:
    """Full potential-outcomes table for a simulated trial."""

    patients: tuple[PatientTruth, ...]
    follow_up: float
    visit_times: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.patients)


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

    def __len__(self) -> int:
        return len(self.patients)

    @functools.cached_property
    def columns(self) -> ObservedColumns:
        """The patients as arrays; not a field, so not serialized or compared."""
        return ObservedColumns(self.patients)


# --- JSON round-trip -------------------------------------------------------
#
# Both files are ``codec.encode`` of the dataclass (visit-time keys read "3",
# "4.5"), except that the follow-up all patients share is written once, as
# ``follow_up_months``; like every codec document they refuse unknown keys.


def _to_file(table: ObservedDataset | ScienceTable) -> dict:
    doc = encode(table)
    doc["follow_up_months"] = doc.pop("follow_up")
    for p in doc["patients"]:
        del p["follow_up"]
    return doc


def _from_file(cls, patient_cls, doc: Mapping):
    """Inverse of ``_to_file``; ``KeyError`` for a missing follow-up or
    patient list. A value that does not fit is named by its record and field
    (``ObservedPatient.x: ...``); each patient is decoded on its own, so an
    invariant it breaks reads as raised, not under ``ObservedDataset.patients``."""
    follow_up = doc["follow_up_months"]
    patients = tuple(_with_follow_up(patient_cls, p, follow_up) for p in doc["patients"])
    rest = {k: v for k, v in doc.items() if k != "follow_up_months"}
    return replace(_with_follow_up(cls, {**rest, "patients": []}, follow_up), patients=patients)


def _with_follow_up(cls, record, follow_up):
    """``decode(cls, record)`` with the file's follow-up as the record's,
    which the record itself does not carry."""
    if isinstance(record, Mapping):
        if "follow_up" in record:
            raise DecodeError(f"{cls.__name__}: unknown keys ['follow_up']")
        record = {**record, "follow_up": follow_up}
    return decode(cls, record)


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
