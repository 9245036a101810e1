"""Typed job specifications: the exhibit registry.

A job names work the experiment engine already knows how to do — one
matrix cell, a (configs x kinds) grid, a whole figure, the headline
claims, an aged-device sweep or a lossy-fabric sweep — plus scheduling
attributes (priority, deadline).  Each spec is a frozen dataclass whose
fields *are* its exhibit's parameters, and :data:`JOB_TYPES` registers
every spec under its wire name.

A spec implements only what is particular to its exhibit: value checks
(:meth:`JobSpec.validate`), :meth:`JobSpec.run` and
:meth:`JobSpec.describe`.  Everything else derives from the dataclass
fields — the type checks, the flat JSON wire dict (:meth:`to_dict`,
:func:`job_from_dict`) and the deterministic coalescing key
(:meth:`JobSpec.key`, aligned with the :mod:`repro.experiments.cache`
key schema so identical in-flight jobs coalesce).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional

from ..experiments import figures
from ..experiments.cache import SCHEMA_VERSION, cell_key, cell_payload, key_digest
from ..experiments.configs import TABLE2_CONFIGS
from ..experiments.headline import compute_headline
from ..experiments.runner import DEFAULT_WORKLOAD, Workload
from ..lifetime.wear import WEAR_POLICIES, WearPolicy
from ..nvm.kinds import KINDS

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..experiments.parallel import MatrixEngine
    from ..lifetime.sweep import LifetimeSweepReport
    from ..netfault.exhibit import NetfaultReport
    from ..netfault.stats import NetStatsRecorder

__all__ = [
    "ServiceError",
    "JobValidationError",
    "JobReport",
    "JobSpec",
    "CellJob",
    "MatrixJob",
    "FigureJob",
    "HeadlineJob",
    "LifetimeJob",
    "NetfaultJob",
    "JOB_TYPES",
    "SCHEDULING_FIELDS",
    "job_from_dict",
    "FIGURE_NAMES",
]

VALID_LABELS = tuple(sorted(c.label for c in TABLE2_CONFIGS))
VALID_KINDS = tuple(sorted(k.name for k in KINDS))
FIGURE_NAMES = ("figure7", "figure8", "figure9", "figure10")

#: fields whose values must be known names, wherever a spec declares
#: them: field -> (what the error calls a value, the valid names)
_NAMED_FIELDS: dict[str, tuple[str, tuple[str, ...]]] = {
    "label": ("config label", VALID_LABELS),
    "labels": ("config label", VALID_LABELS),
    "kind": ("NVM kind", VALID_KINDS),
    "kinds": ("NVM kind", VALID_KINDS),
    "figure": ("figure", FIGURE_NAMES),
    "wear_policy": ("wear policy", WEAR_POLICIES),
}

#: fields that say *when* a job runs, not *what* it computes: they stay
#: out of coalescing/cache keys, and all but ``priority`` are left out
#: of the wire dict while at their defaults
SCHEDULING_FIELDS = (
    "priority", "deadline_s", "timeout_s", "trace_id", "arrival_offset_s",
)


class ServiceError(Exception):
    """Base service error carrying a machine-readable code + detail."""

    code = "service_error"

    def __init__(self, detail: str, code: Optional[str] = None):
        super().__init__(detail)
        if code is not None:
            self.code = code
        self.detail = detail

    def to_dict(self) -> dict:
        return {"error": self.code, "detail": self.detail}


class JobValidationError(ServiceError):
    """The job spec itself is malformed (unknown label/kind/figure...)."""

    code = "invalid_job"


# -- field-driven typing -------------------------------------------------
def _is_int(v: Any) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_list_of(check: Callable[[Any], bool]) -> Callable[[Any], bool]:
    return lambda v: isinstance(v, (tuple, list)) and all(check(x) for x in v)


#: field annotation -> (value check, what the error says it must be)
_FIELD_TYPES: dict[str, tuple[Callable[[Any], bool], str]] = {
    "int": (_is_int, "an int"),
    "float": (_is_number, "a number"),
    "bool": (lambda v: isinstance(v, bool), "a bool"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "Optional[float]": (lambda v: v is None or _is_number(v), "a number or null"),
    "Optional[str]": (lambda v: v is None or isinstance(v, str), "a string or null"),
    "tuple[str, ...]": (_is_list_of(lambda v: isinstance(v, str)), "a list of strings"),
    "tuple[float, ...]": (_is_list_of(_is_number), "a list of numbers"),
    "Workload": (lambda v: isinstance(v, Workload), "a workload object"),
}


def _check_types(obj: Any, prefix: str = "") -> None:
    """Reject any dataclass field whose value does not match its annotation."""
    for f in dataclasses.fields(obj):
        check, what = _FIELD_TYPES[str(f.type)]
        value = getattr(obj, f.name)
        if not check(value):
            raise JobValidationError(
                f"{prefix}{f.name} must be {what}, got {value!r}"
            )
        if isinstance(value, Workload):
            _check_types(value, prefix=f"{f.name}.")


def _check_names(spec: "JobSpec") -> None:
    """Reject unknown config labels, NVM kinds, figures, wear policies."""
    for f in dataclasses.fields(spec):
        if f.name not in _NAMED_FIELDS:
            continue
        what, valid = _NAMED_FIELDS[f.name]
        value = getattr(spec, f.name)
        for name in value if isinstance(value, (tuple, list)) else [value]:
            if name not in valid:
                raise JobValidationError(
                    f"unknown {what} {name!r}; have {list(valid)}"
                )


def _to_wire(annotation: str, value: Any) -> Any:
    if annotation == "Workload":
        return dataclasses.asdict(value)
    if annotation == "tuple[float, ...]":
        return [float(x) for x in value]
    if annotation == "tuple[str, ...]":
        return list(value)
    return value


def _from_wire(annotation: str, value: Any) -> Any:
    """Shape one wire value for its field; types are checked later."""
    if annotation == "Workload":
        if not isinstance(value, Mapping):
            raise JobValidationError("workload must be an object")
        known = {f.name for f in dataclasses.fields(Workload)}
        bad = set(value) - known
        if bad:
            raise JobValidationError(
                f"unknown workload field(s) {sorted(bad)}; have {sorted(known)}"
            )
        return Workload(**value)
    if annotation.startswith("tuple[") and isinstance(value, list):
        return tuple(value)
    return value


@dataclass(frozen=True)
class JobReport:
    """What running a cell/matrix/figure/headline spec produced: the
    wire payload and, for exhibits, the rendered text."""

    payload: dict
    text: str = ""

    def to_payload(self) -> dict:
        return self.payload


@dataclass(frozen=True)
class JobSpec:
    """Common scheduling attributes; subclasses add the work payload.

    ``priority``: higher values dispatch first (FIFO within a level).
    ``deadline_s``: wall-clock budget from admission; a job still
    queued when it lapses fails with ``deadline_expired`` instead of
    occupying an executor slot.
    ``timeout_s``: wall-clock budget for the *execution* itself; a pass
    that outlives it fails with the typed ``timeout`` code (overrides
    the service-wide ``job_timeout_s`` default).
    ``trace_id``: opaque client correlation id stamped onto the obs
    spans this job produces.  Deliberately **not** part of the
    coalescing key: two identical jobs with different trace ids still
    compute once.
    ``arrival_offset_s``: seconds after replay start at which this job
    arrives when driven from a recorded trace
    (:mod:`repro.netfault.replay`).  Like ``trace_id`` it describes
    *when* the job was observed, not *what* it computes, so it is
    excluded from coalescing/cache keys.
    """

    workload: Workload = DEFAULT_WORKLOAD
    seed: int = 1013
    with_remaining: bool = True
    priority: int = 0
    deadline_s: Optional[float] = None
    timeout_s: Optional[float] = None
    trace_id: Optional[str] = None
    arrival_offset_s: float = 0.0

    job_type = "abstract"

    # -- validation -----------------------------------------------------
    def validate(self) -> None:
        """Type-check every field, check the names and the values every
        job shares; subclasses add their exhibit's own value checks."""
        _check_types(self)
        _check_names(self)
        if self.workload.panels < 1 or self.workload.panel_bytes < 1:
            raise JobValidationError(
                f"workload must stream at least one panel byte, got "
                f"panels={self.workload.panels} panel_bytes={self.workload.panel_bytes}"
            )
        for name in ("deadline_s", "timeout_s"):
            budget = getattr(self, name)
            if budget is not None and budget <= 0:
                raise JobValidationError(f"{name} must be positive, got {budget!r}")
        if self.arrival_offset_s < 0:
            raise JobValidationError(
                f"arrival_offset_s must be a non-negative number, "
                f"got {self.arrival_offset_s!r}"
            )

    # -- execution ------------------------------------------------------
    def run(self, engine: "MatrixEngine") -> Any:
        """Compute the job on ``engine``; returns a report with
        ``.text`` and ``to_payload()`` (sweeps also ``publish``)."""
        raise NotImplementedError

    # -- identity -------------------------------------------------------
    def key(self) -> str:
        """Coalescing identity: equal keys -> field-for-field equal results."""
        parts = {
            name: value
            for name, value in self.to_dict().items()
            if name not in SCHEDULING_FIELDS
        }
        return key_digest({"schema": SCHEMA_VERSION, **parts})

    # -- wire format ----------------------------------------------------
    def to_dict(self) -> dict:
        d = {"job": self.job_type}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if (
                f.name in SCHEDULING_FIELDS
                and f.name != "priority"
                and value == f.default
            ):
                continue
            d[f.name] = _to_wire(str(f.type), value)
        return d

    def describe(self) -> str:
        return self.job_type


@dataclass(frozen=True)
class CellJob(JobSpec):
    """One Table-2 matrix cell: ``(config label, NVM kind)``."""

    label: str = ""
    kind: str = ""

    job_type = "cell"

    def run(self, engine: "MatrixEngine") -> JobReport:
        cell = (self.label, self.kind)
        results = engine.run_cells(
            [cell], self.workload, self.seed, self.with_remaining
        )
        return JobReport({"kind": "cell", "result": cell_payload(results[cell])})

    def key(self) -> str:
        # exactly the ResultCache cell key: the service coalesces on the
        # same identity the cache stores under
        return cell_key(
            self.label, self.kind, self.workload, self.seed, self.with_remaining
        )

    def describe(self) -> str:
        return f"cell({self.label}, {self.kind})"


@dataclass(frozen=True)
class MatrixJob(JobSpec):
    """A (config labels x NVM kinds) grid, one engine pass."""

    labels: tuple[str, ...] = ()
    kinds: tuple[str, ...] = ()

    job_type = "matrix"

    def validate(self) -> None:
        super().validate()
        if not self.labels or not self.kinds:
            raise JobValidationError("matrix job needs at least one label and kind")

    def run(self, engine: "MatrixEngine") -> JobReport:
        results = engine.run_matrix(
            self.labels, self.kinds, self.workload, self.seed, self.with_remaining
        )
        return JobReport({
            "kind": "matrix",
            "results": {
                f"{label}|{kind}": cell_payload(res)
                for (label, kind), res in results.items()
            },
        })

    def describe(self) -> str:
        return f"matrix({len(self.labels)}x{len(self.kinds)})"


@dataclass(frozen=True)
class FigureJob(JobSpec):
    """One full paper exhibit (figure7..figure10), rendered as text."""

    figure: str = ""

    job_type = "figure"

    def run(self, engine: "MatrixEngine") -> JobReport:
        text = getattr(figures, self.figure)(self.workload, engine=engine).text
        return JobReport(
            {"kind": "figure", "figure": self.figure, "text": text}, text
        )

    def describe(self) -> str:
        return self.figure


@dataclass(frozen=True)
class HeadlineJob(JobSpec):
    """The paper's headline claims (Section 1 numbers)."""

    job_type = "headline"

    def run(self, engine: "MatrixEngine") -> JobReport:
        text = compute_headline(self.workload, engine=engine).render()
        return JobReport({"kind": "headline", "text": text}, text)


@dataclass(frozen=True)
class LifetimeJob(JobSpec):
    """An aged-device capacity sweep: labels x kinds x age fractions.

    ``ages`` are fractions of rated lifetime in ``[0, 1)``;
    ``wear_policy`` is one of :data:`repro.lifetime.WEAR_POLICIES`.
    The engine's fault regime, if any, is the base the age-coupled
    rates overlay.
    """

    labels: tuple[str, ...] = ()
    kinds: tuple[str, ...] = ()
    ages: tuple[float, ...] = (0.0, 0.5, 0.9)
    wear_policy: str = "dynamic"

    job_type = "lifetime"

    def validate(self) -> None:
        super().validate()
        if not self.labels or not self.kinds or not self.ages:
            raise JobValidationError(
                "lifetime job needs at least one label, kind and age"
            )
        for age in self.ages:
            if not 0.0 <= age < 1.0:
                raise JobValidationError(
                    f"ages must be fractions in [0, 1), got {age!r}"
                )

    def run(self, engine: "MatrixEngine") -> "LifetimeSweepReport":
        from ..lifetime.sweep import lifetime_sweep

        return lifetime_sweep(
            self.labels,
            kinds=self.kinds,
            ages=self.ages,
            policy=WearPolicy(kind=self.wear_policy),
            workload=self.workload,
            seed=self.seed,
            base_faults=engine.faults,
            engine=engine,
        )

    def describe(self) -> str:
        return (
            f"lifetime({len(self.labels)}x{len(self.kinds)}"
            f"x{len(self.ages)}, {self.wear_policy})"
        )


@dataclass(frozen=True)
class NetfaultJob(JobSpec):
    """A lossy-fabric sweep: loss rates x labels x kinds.

    Re-plots the CNL-vs-ION gap under fabric degradation (see
    :mod:`repro.netfault`); ``net_seed`` seeds the per-packet loss
    oracle, ``mtu_bytes`` sets the frame size.  Empty ``labels`` /
    ``kinds`` mean every Table-2 row / every NVM kind.
    """

    loss_rates: tuple[float, ...] = (0.0, 0.01, 0.05)
    labels: tuple[str, ...] = ()
    kinds: tuple[str, ...] = ()
    net_seed: int = 0
    mtu_bytes: int = 4096

    job_type = "netfault"

    def validate(self) -> None:
        super().validate()
        if not self.loss_rates:
            raise JobValidationError("netfault job needs at least one loss rate")
        for rate in self.loss_rates:
            if not 0.0 <= rate <= 1.0:
                raise JobValidationError(
                    f"loss rates must be fractions in [0, 1], got {rate!r}"
                )
        if self.mtu_bytes < 1:
            raise JobValidationError(
                f"mtu_bytes must be a positive int, got {self.mtu_bytes!r}"
            )

    def run(
        self, engine: "MatrixEngine", stats: Optional["NetStatsRecorder"] = None
    ) -> "NetfaultReport":
        """``stats`` records every packet of the calibration runs."""
        from ..netfault.exhibit import netfault_exhibit

        return netfault_exhibit(
            self.workload,
            engine=engine,
            loss_rates=self.loss_rates,
            labels=self.labels or None,
            kinds=self.kinds or None,
            net_seed=self.net_seed,
            mtu_bytes=self.mtu_bytes,
            seed=self.seed,
            stats=stats,
        )

    def describe(self) -> str:
        return (
            f"netfault({len(self.loss_rates)} rates, "
            f"{len(self.labels) or 'all'}x{len(self.kinds) or 'all'})"
        )


#: the registry: wire job name -> spec class
JOB_TYPES: dict[str, type[JobSpec]] = {
    cls.job_type: cls
    for cls in (CellJob, MatrixJob, FigureJob, HeadlineJob, LifetimeJob, NetfaultJob)
}


def job_from_dict(data: Mapping[str, Any]) -> JobSpec:
    """Parse + validate a wire-format job dict; raises JobValidationError.

    Fields the spec does not declare are ignored; declared fields that
    are missing take their defaults.
    """
    if not isinstance(data, Mapping):
        raise JobValidationError(f"job must be an object, got {type(data).__name__}")
    job_type = data.get("job")
    cls = JOB_TYPES.get(job_type) if isinstance(job_type, str) else None
    if cls is None:
        raise JobValidationError(
            f"unknown job type {job_type!r}; have {sorted(JOB_TYPES)}"
        )
    try:
        spec = cls(**{
            f.name: _from_wire(str(f.type), data[f.name])
            for f in dataclasses.fields(cls)
            if f.name in data
        })
    except JobValidationError:
        raise
    except (TypeError, ValueError) as exc:
        raise JobValidationError(f"malformed job: {exc}") from None
    spec.validate()
    return spec
