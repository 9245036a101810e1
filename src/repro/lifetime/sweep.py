"""Aged-device capacity sweeps: config x media kind x lifetime age.

Turns the one-shot Table-2 matrix into the capacity-planning question
fleet operators actually ask: *what do these configurations deliver at
50% and 90% of rated device lifetime?*  Each cell replays the same OoC
eigensolver workload as the Table-2 cells through the same storage
path, but on a device whose FTL has been fast-forwarded by the aging
model (:mod:`repro.lifetime.aging`) and runs a wear-leveling policy
(:mod:`repro.lifetime.wear`), reporting per cell:

* **bandwidth** (per-client MB/s, the Figure-7/8 metric),
* **p99 command latency** (ms, via :class:`repro.obs.hist
  .LatencyRecorder` attached to the device controller),
* **WAF** — media page writes per host page write, GC + wear-leveling
  relocations included,
* **wear spread / gini** and retired-block count,
* the age-coupled effective read-fault probability and injected-fault
  roll-up.

At age 0 with ``policy="none"`` the cell is bit-identical to
``run_config``'s scalar path — golden-tested against all 52 Table-2
cells — so the sweep's baseline row *is* today's exhibit.

Everything here is deterministic in ``(labels, kinds, ages, policy,
workload, seed)``; cells are independent, so the sweep fans out over a
:class:`~repro.experiments.parallel.MatrixEngine` process pool with
bit-identical results at any worker count.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from ..faults.plan import FaultSpec
from ..nvm.endurance import wear_report
from ..nvm.kinds import KINDS, NVMKind, kind_by_name
from ..obs import trace as obs
from ..obs.hist import LatencyRecorder
from ..trace.replay import replay
from .aging import AgingSpec, aged_faults, install_age
from .wear import WearFTL, WearPolicy

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..experiments.cache import ResultCache
    from ..experiments.parallel import MatrixEngine
    from ..experiments.runner import Workload
    from ..obs.registry import MetricsRegistry

__all__ = [
    "DEFAULT_AGES",
    "LifetimeCellResult",
    "LifetimeSweepReport",
    "run_lifetime_cell",
    "lifetime_sweep",
    "publish_lifetime_metrics",
]

#: the exhibit's age axis: fresh, half-life, near end-of-life
DEFAULT_AGES = (0.0, 0.5, 0.9)

#: LatencyRecorder window per cell: large enough that p99 over the
#: window reflects the whole replay at exhibit scale, small enough that
#: the incrementally-sorted insert stays cheap
LATENCY_WINDOW = 4096

_NS_PER_MS = 1e6


@dataclass(frozen=True)
class LifetimeCellResult:
    """Every reported quantity of one (config, kind, age) cell."""

    label: str
    kind: str
    age_fraction: float
    wear_policy: str
    bandwidth_mb: float  # per-client, the Fig-7/8 metric
    aggregate_mb: float
    p50_latency_ms: float
    p99_latency_ms: float
    max_latency_ms: float
    waf: float
    wear_spread: int
    wear_gini: float
    mean_wear: float
    total_erases: int
    retired_blocks: int
    gc_runs: int
    gc_moved_pages: int
    wl_moved_pages: int
    host_writes_pages: int
    read_fault_p: float  # effective (media-scaled) per-command rate
    faults_injected: int
    fault_penalty_ns: int
    backend: str = "scalar"


def _emit_cell_spans(tr, result: LifetimeCellResult, metrics) -> None:
    """Sim-domain span tree for one lifetime cell, tiled like a Table-2
    replay's, so the ``obs report`` coverage gate holds for lifetime
    traces too.  Site ids derive from the full cell identity (label,
    kind, age, policy) so traces stay stable across worker counts and
    no two ages of the same cell collide.
    """
    from ..experiments.runner import tile_makespan_spans

    age = f"{result.age_fraction:.2f}"
    ident = (result.label, result.kind, age, result.wear_policy)
    tile_makespan_spans(
        tr, metrics, "lifetime", f"{result.label}|{result.kind}|age={age}",
        ("lifetime", *ident), ("lifetime-attrib", *ident),
    )


def run_lifetime_cell(
    label: str,
    kind: NVMKind | str,
    age_fraction: float,
    policy: WearPolicy = WearPolicy(),
    workload: Optional["Workload"] = None,
    seed: int = 1013,
    base_faults: Optional[FaultSpec] = None,
    cache: Optional["ResultCache"] = None,
) -> LifetimeCellResult:
    """Replay one Table-2 cell on a device aged to ``age_fraction``.

    Builds the config's storage path, swaps the device's stock FTL for
    a :class:`WearFTL` running ``policy``, installs the seeded wear
    history (retiring over-budget blocks), ages the fault regime, and
    replays the standard workload with a latency recorder attached.
    ``base_faults`` is the healthy-device regime the age increments add
    to (``None`` = faults only from aging).  Deterministic in all
    arguments; ``cache`` serves identical prior cells.
    """
    from ..experiments.configs import config_by_label
    from ..experiments.runner import DEFAULT_WORKLOAD

    if workload is None:
        workload = DEFAULT_WORKLOAD
    if isinstance(kind, str):
        kind = kind_by_name(kind)
    aging = AgingSpec(age_fraction=age_fraction, seed=seed)
    faults = aged_faults(base_faults, aging)
    if faults is not None and not faults.injects_device_faults:
        faults = None  # nothing to inject: identical to the healthy path
    if cache is not None:
        hit = cache.get_lifetime(
            label, kind.name, workload, seed, aging, policy, faults
        )
        if hit is not None:
            return hit

    config = config_by_label(label)
    path = config.build(kind, workload.bytes_per_client, seed=seed)
    device = path.device
    ftl = WearFTL.adopt(device.ftl, policy)
    device.ftl = ftl
    install_age(ftl, aging)
    fault_model = None
    if faults is not None:
        fault_model = faults.plan().device_model(kind, device.geom)
        device.attach_faults(fault_model)
    recorder = LatencyRecorder(window=LATENCY_WINDOW, unit="ns")
    device.latency_recorder = recorder

    traces = workload.traces(path.clients)
    summary = replay(path, traces, posix_window=workload.posix_window)
    rep = wear_report(ftl)
    fstats = fault_model.snapshot() if fault_model is not None else {}
    result = LifetimeCellResult(
        label=label,
        kind=kind.name,
        age_fraction=age_fraction,
        wear_policy=policy.kind,
        bandwidth_mb=summary.bandwidth_mb,
        aggregate_mb=summary.aggregate_mb,
        p50_latency_ms=recorder.percentile(0.50) / _NS_PER_MS,
        p99_latency_ms=recorder.percentile(0.99) / _NS_PER_MS,
        max_latency_ms=recorder.maximum / _NS_PER_MS,
        waf=rep.waf,
        wear_spread=rep.spread,
        wear_gini=rep.gini,
        mean_wear=rep.mean_wear,
        total_erases=rep.total_erases,
        retired_blocks=rep.retired_blocks,
        gc_runs=ftl.stats["gc_runs"],
        gc_moved_pages=rep.gc_moved_pages,
        wl_moved_pages=rep.wl_moved_pages,
        host_writes_pages=rep.host_writes_pages,
        read_fault_p=(
            fault_model.read_fault_p if fault_model is not None else 0.0
        ),
        faults_injected=fstats.get("faults_injected", 0),
        fault_penalty_ns=fstats.get("penalty_ns", 0),
    )
    tr = obs.tracer()
    if tr is not None:
        _emit_cell_spans(tr, result, summary.metrics)
    if cache is not None:
        cache.put_lifetime(result, workload, seed, aging, policy, faults)
    return result


def _sweep_case(case: tuple) -> LifetimeCellResult:
    """Pool-worker entry point: one pickled case -> one cell result."""
    label, kind_name, age, policy, workload, seed, base_faults = case
    return run_lifetime_cell(
        label,
        kind_name,
        age,
        policy=policy,
        workload=workload,
        seed=seed,
        base_faults=base_faults,
    )


@dataclass
class LifetimeSweepReport:
    """All cells of one sweep plus rendering / metrics export."""

    results: dict[tuple[str, str, float], LifetimeCellResult]
    ages: tuple[float, ...]
    policy: WearPolicy

    @property
    def text(self) -> str:
        lines = [
            "Device lifetime sweep — bandwidth / p99 / WAF / wear vs. age",
            f"(wear policy: {self.policy.kind}; age = fraction of rated "
            "lifetime consumed; Table-1 endurance budgets)",
            "",
            f"{'config':<16} {'kind':<5} {'age':>4}  {'MB/s':>8} "
            f"{'p99 ms':>8} {'WAF':>6} {'spread':>6} {'retired':>7} "
            f"{'faults':>6}",
        ]
        for (label, kind_name, age), r in self.results.items():
            lines.append(
                f"{label:<16} {kind_name:<5} {age:>4.0%}  "
                f"{r.bandwidth_mb:>8.1f} {r.p99_latency_ms:>8.3f} "
                f"{r.waf:>6.3f} {r.wear_spread:>6d} {r.retired_blocks:>7d} "
                f"{r.faults_injected:>6d}"
            )
        return "\n".join(lines)

    def publish(self, registry: "MetricsRegistry") -> None:
        publish_lifetime_metrics(registry, self.results.values())

    def to_payload(self) -> dict:
        """The service's JSON result payload."""
        return {
            "kind": "lifetime",
            "results": {
                f"{label}|{kind}|{age:g}": result_to_dict(res)
                for (label, kind, age), res in self.results.items()
            },
            "text": self.text,
        }


def lifetime_sweep(
    labels: Sequence[str],
    kinds: Sequence[NVMKind | str] = KINDS,
    ages: Sequence[float] = DEFAULT_AGES,
    policy: WearPolicy = WearPolicy(kind="dynamic"),
    workload: Optional["Workload"] = None,
    seed: int = 1013,
    base_faults: Optional[FaultSpec] = None,
    engine: Optional["MatrixEngine"] = None,
    cache: Optional["ResultCache"] = None,
) -> LifetimeSweepReport:
    """Run the full config x kind x age grid.

    ``engine`` supplies the process pool (its ``map``) and, when it
    carries a cache, the result cache; cells are independent and the
    grid is bit-identical at any worker count.  Results are keyed
    ``(label, kind_name, age)`` in deterministic grid order.
    """
    from ..experiments.runner import DEFAULT_WORKLOAD

    if workload is None:
        workload = DEFAULT_WORKLOAD
    if engine is not None and cache is None:
        cache = engine.cache
    kind_names = [k if isinstance(k, str) else k.name for k in kinds]
    grid = [
        (label, kind_name, float(age))
        for label in labels
        for kind_name in kind_names
        for age in ages
    ]
    results: dict[tuple[str, str, float], Optional[LifetimeCellResult]] = {
        cell: None for cell in grid
    }
    if cache is not None:
        for label, kind_name, age in grid:
            aging = AgingSpec(age_fraction=age, seed=seed)
            faults = aged_faults(base_faults, aging)
            if faults is not None and not faults.injects_device_faults:
                faults = None
            results[(label, kind_name, age)] = cache.get_lifetime(
                label, kind_name, workload, seed, aging, policy, faults
            )
    todo = [cell for cell, r in results.items() if r is None]
    cases = [
        (label, kind_name, age, policy, workload, seed, base_faults)
        for label, kind_name, age in todo
    ]
    if cases:
        if engine is not None:
            computed = engine.map(_sweep_case, cases)
        else:
            computed = [_sweep_case(c) for c in cases]
        for cell, result in zip(todo, computed):
            results[cell] = result
            if cache is not None:
                label, kind_name, age = cell
                aging = AgingSpec(age_fraction=age, seed=seed)
                faults = aged_faults(base_faults, aging)
                if faults is not None and not faults.injects_device_faults:
                    faults = None
                cache.put_lifetime(result, workload, seed, aging, policy, faults)
    final = {cell: r for cell, r in results.items() if r is not None}
    return LifetimeSweepReport(
        results=final, ages=tuple(float(a) for a in ages), policy=policy
    )


def publish_lifetime_metrics(registry: "MetricsRegistry", results) -> None:
    """Export one gauge family per reported quantity to a registry.

    Labelled by (config, kind, age, policy); rendered by
    :func:`repro.obs.export.prometheus_text` and served from the
    service's ``metrics`` endpoint.
    """
    gauges = (
        ("repro_lifetime_bandwidth_mb", "per-client bandwidth (MB/s)",
         lambda r: r.bandwidth_mb),
        ("repro_lifetime_p99_latency_ms", "p99 device command latency (ms)",
         lambda r: r.p99_latency_ms),
        ("repro_lifetime_waf", "write-amplification factor (media/host pages)",
         lambda r: r.waf),
        ("repro_lifetime_wear_spread", "erase-count spread (max - min)",
         lambda r: float(r.wear_spread)),
        ("repro_lifetime_retired_blocks", "blocks past the endurance budget",
         lambda r: float(r.retired_blocks)),
        ("repro_lifetime_read_fault_p", "effective per-command read-fault rate",
         lambda r: r.read_fault_p),
        ("repro_lifetime_faults_injected", "device faults injected in the run",
         lambda r: float(r.faults_injected)),
    )
    for r in results:
        labels = {
            "config": r.label,
            "kind": r.kind,
            "age": f"{r.age_fraction:.2f}",
            "policy": r.wear_policy,
        }
        for name, help_text, get in gauges:
            registry.gauge(name, help_text, labels).set(get(r))


def result_to_dict(result: LifetimeCellResult) -> dict:
    """JSON-safe payload of one cell (cache entries, service wire)."""
    return dataclasses.asdict(result)
