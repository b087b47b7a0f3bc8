"""The figure registry: every bench figure as one :class:`Figure` record.

A figure is data — a params preset (full scale, with ``--smoke``
overrides), its declared point list, where each point's result lands
in the artifact's ``simulated`` section, a ``render`` step for the
printed table, and named gate predicates — and :func:`run_figure` is
the one driver that runs any of them.  The CLI
(``python -m repro.bench.cli``), ``--refresh-baselines``, CI's
``bench-smoke`` job and the pytest modules in ``benchmarks/`` all go
through this registry, so a figure is spelled out exactly once.

Points run through :func:`repro.bench.parallel.run_points`: declared
order is the registry merge order, so artifacts are byte-identical at
any ``--jobs``.  Static figures (the tables and the cost/capacity
models) have a single in-process ``compute`` step instead.

A gate is a pure function of ``(simulated, params)`` returning
``{"pass", "observed", "bound"}``; :func:`run_figure` evaluates every
gate and the CLI stores the verdicts as the artifact's ``gates``
section (exit status 1 on any failure).
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.baselines import characteristics_table
from repro.bench.calibration import SMOKE_SCALE, BenchScale
from repro.bench.parallel import Point, run_points
from repro.bench.points import (
    RECOVERY_SWEEP_PARTITIONS,
    ablate_point,
    critpath_point,
    hotspot_point,
    latency_point,
    live_pool_point,
    memnode_failure_point,
    openloop_point,
    recovery_sweep_point,
    throughput_point,
)
from repro.bench.report import bar_table, kv_table, series_table, sparkline
from repro.cluster import relative_costs
from repro.cluster.backups import sweep_backup_pool
from repro.cluster.provision import TARGET_THROUGHPUT, machine_table
from repro.obs.critpath import STAGES
from repro.obs.export import write_chrome_trace
from repro.sim.units import MS, SEC
from repro.workloads import WORKLOADS

__all__ = ["BASELINE_FIGURES", "FIGURES", "Figure", "FigureRun", "run_figure", "verdict"]

#: A point declaration: (key, top-level point function, kwargs); the
#: driver adds ``scale`` and ``seed`` to the kwargs.
Cell = Tuple[str, Callable[..., Any], Dict[str, Any]]


def verdict(passed: bool, observed: Any, bound: Any) -> Dict[str, Any]:
    """One gate result, as stored in the artifact's ``gates`` section."""
    return {"pass": bool(passed), "observed": observed, "bound": bound}


def _above(observed, bound):
    return verdict(observed > bound, observed, bound)


def _below(observed, bound):
    return verdict(observed < bound, observed, bound)


def _at_least(observed, bound):
    return verdict(observed >= bound, observed, bound)


def _nested(key: str) -> Tuple[str, ...]:
    """``system/variant`` point keys nest as ``simulated[system][variant]``."""
    return tuple(key.split("/"))


def _table(title: str, row: Callable[[dict], str]):
    """Render a flat ``{key: cell}`` section as one table row per cell."""
    return lambda sim, _params: kv_table(title, [(k, row(c)) for k, c in sim.items()])


@dataclass(frozen=True)
class Figure:
    """One figure: params, points, placement, render and gates.

    Exactly one of *cells* (independent points, fanned out by
    :func:`run_points`) and *compute* (one in-process step on the
    params; None means "print only, no artifact") is set.  *path* maps
    a point key to its position in ``simulated`` (``()`` makes the
    single point the whole section).  *post* sees the raw point results
    and the output directory (or None) before they are collected.
    *options* names CLI arguments that override same-named params.
    """

    name: str
    full: Dict[str, Any]
    render: Callable[[Any, Dict[str, Any]], str]
    smoke: Dict[str, Any] = field(default_factory=dict)
    cells: Optional[Callable[[dict, BenchScale], Iterable[Cell]]] = None
    path: Callable[[str], Tuple[str, ...]] = lambda key: (key,)
    compute: Optional[Callable[[dict], Optional[dict]]] = None
    post: Optional[Callable[[dict, dict, Optional[str]], None]] = None
    gates: Dict[str, Callable[[dict, dict], dict]] = field(default_factory=dict)
    baseline: bool = False
    options: Tuple[str, ...] = ()

    def params(self, smoke: bool, overrides: Optional[dict] = None) -> dict:
        return {**self.full, **(self.smoke if smoke else {}), **(overrides or {})}

    def points(self, params: dict, scale: BenchScale, seed: int) -> List[Point]:
        """The declared point list, in merge order."""
        return [
            Point(key, fn, dict(kwargs, scale=scale, seed=seed))
            for key, fn, kwargs in self.cells(params, scale)
        ]

    def collect(self, results: Dict[str, Any]) -> dict:
        """Shape ``{point key: value}`` into the ``simulated`` section."""
        simulated: dict = {}
        for key, value in results.items():
            path = self.path(key)
            if not path:
                return value
            node = simulated
            for part in path[:-1]:
                node = node.setdefault(part, {})
            node[path[-1]] = value
        return simulated

    def check(self, simulated: dict, params: dict) -> Dict[str, dict]:
        """Evaluate every named gate."""
        return {name: gate(simulated, params) for name, gate in self.gates.items()}


class FigureRun(NamedTuple):
    simulated: Optional[dict]
    params: dict
    gates: Dict[str, dict]


def run_figure(
    figure: Figure,
    *,
    smoke: bool = False,
    scale: Optional[BenchScale] = None,
    seed: int = 1,
    jobs: int = 1,
    overrides: Optional[dict] = None,
    out_dir: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> FigureRun:
    """Run one figure and evaluate its gates.

    *scale* defaults to the pinned smoke scale with *smoke* and to the
    environment-driven :class:`BenchScale` otherwise.  Side files (the
    fig6path trace) are written into *out_dir* only when it is given.
    The returned params carry the ``scale`` knobs, as recorded.
    """
    params = figure.params(smoke, overrides)
    scale = scale or (SMOKE_SCALE if smoke else BenchScale())
    if figure.cells is None:
        simulated = figure.compute(params)
    else:
        points = figure.points(params, scale, seed)
        results = run_points(points, jobs=jobs, progress=progress)
        if figure.post is not None:
            figure.post(results, params, out_dir)
        simulated = figure.collect(results)
    params = dict(params, scale=dataclasses.asdict(scale))
    gates = figure.check(simulated, params) if simulated is not None else {}
    return FigureRun(simulated, params, gates)


# -- tables and cost/capacity models (static) ---------------------------------


def _table2(_sim, _params):
    rows = []
    for f in (1, 2):
        rows.append((f"-- F={f} (target {TARGET_THROUGHPUT[f]:,} ops/s) --", ""))
        for name, spec in machine_table(f):
            rows.append((name, f"{spec.cores} cores, {spec.memory_gb} GB"))
    return kv_table("Table 2: normalized machine configurations", rows)


TABLE1 = Figure("table1", {}, lambda s, p: characteristics_table(), compute=lambda p: None)
TABLE2 = Figure("table2", {}, _table2, compute=lambda p: None)

FIG8 = Figure(
    "fig8",
    {
        "groups": [10, 100, 500, 1000, 2000, 3000],
        "backups": [0, 2, 4, 6, 8, 12, 16, 20],
        "repetitions": 10,
    },
    lambda sim, p: series_table(
        "Figure 8: recovery time per fault", "backups", "s/fault", sim
    ),
    compute=lambda p: {
        f"{g} groups": [[c.backups, c.recovery_time_per_fault_s] for c in row]
        for g, row in sweep_backup_pool(
            p["groups"], p["backups"], repetitions=p["repetitions"]
        ).items()
    },
)


def _costs_render(sim, params):
    labels = list(sim["aws"])
    return bar_table(
        f"Figure {8 + params['f']}: cost vs Raft-R (%), F={params['f']}", labels,
        {p: [sim[p][l] for l in labels] for p in sim}, unit="%",
    )


def _costs(params):
    return {p: relative_costs(p, params["f"]) for p in ("aws", "gcp")}


FIG9 = Figure("fig9", {"f": 1}, _costs_render, compute=_costs)
FIG10 = Figure("fig10", {"f": 2}, _costs_render, compute=_costs)

# -- throughput: one ad-hoc (system, workload) cell -----------------------------

THROUGHPUT = Figure(
    "throughput",
    {"system": "sift", "workload": "read-heavy", "cores": None},
    lambda sim, p: kv_table(
        f"{p['system']} / {p['workload']}",
        [("throughput", f"{sim['ops_per_sec']:,.0f} ops/s"),
         ("completed", str(sim["completed"])),
         ("errors", str(sim["errors"]))],
    ),
    cells=lambda p, scale: [
        (p["system"], throughput_point,
         dict(p, clients=scale.clients)),
    ],
    path=lambda key: (),
    options=("system", "workload", "cores"),
)

# -- fig5 / fig5ablate: peak throughput ----------------------------------------

#: Fig. 5 system order (slowest first, matching the paper's bar groups).
FIG5_SYSTEMS = ("epaxos", "sift-ec", "sift", "raft-r")

FIG5 = Figure(
    "fig5",
    {"cores": 12, "workloads": list(WORKLOADS)},
    lambda sim, p: bar_table(
        "Figure 5: throughput by workload (F=1)", p["workloads"],
        {name: [sim[name][mix]["ops_per_sec"] for mix in p["workloads"]]
         for name in FIG5_SYSTEMS},
    ),
    # EPaxos spreads its clients over every replica (§6.3.1): 3x clients.
    cells=lambda p, scale: [
        (f"{system}/{mix}", throughput_point, {
            "system": system,
            "workload": mix,
            "clients": scale.clients * 3 if system == "epaxos" else scale.clients,
            "cores": p["cores"],
        })
        for system in FIG5_SYSTEMS
        for mix in p["workloads"]
    ],
    path=_nested,
    baseline=True,
)


def _fig5ablate_render(sim, params):
    plain = sim["plain"]["ops_per_sec"]
    rows = [
        (f"sift/{key}",
         f"{sim[key]['ops_per_sec']:12,.0f} ops/s  "
         f"({sim[key]['ops_per_sec'] / plain if plain else 0.0:.3f}x plain)")
        for key, _coalesce, _doorbell in params["grid"]
    ]
    return kv_table("Figure 5 (ablation): append coalescing x doorbell batching", rows)


# WAL append coalescing x doorbell batching, write-only: the full stack
# must beat the plain one.
FIG5ABLATE = Figure(
    "fig5ablate",
    {
        "cores": 12,
        "workload": "write-only",
        "clients": 24,
        "grid": [
            ["plain", False, False],
            ["doorbell", False, True],
            ["coalesce", True, False],
            ["coalesce+doorbell", True, True],
        ],
    },
    _fig5ablate_render,
    cells=lambda p, scale: [
        (f"sift/{key}", ablate_point, {
            "coalesce": coalesce,
            "doorbell": doorbell,
            "workload": p["workload"],
            "clients": p["clients"],
        })
        for key, coalesce, doorbell in p["grid"]
    ],
    path=lambda key: (key.split("/", 1)[1],),
    gates={
        "full_stack_beats_plain": lambda sim, p: _above(
            sim["coalesce+doorbell"]["ops_per_sec"], sim["plain"]["ops_per_sec"]
        ),
    },
    baseline=True,
)

# -- fig6 / fig6path: latency at 1 client and ~90% load --------------------------

#: Fig. 6 system order.
FIG6_SYSTEMS = ("raft-r", "sift", "sift-ec", "epaxos")

#: 28 clients is ~90% of the default 48-client saturation point.
_FIG6 = {"cores": 12, "high_load_clients": 28}


def _latency_cells(fn, **extra):
    def cells(params, _scale):
        for system in FIG6_SYSTEMS:
            for load, clients in (("low", 1), ("high", params["high_load_clients"])):
                key = f"{system}/{load}"
                kwargs = {"system": system, "workload": "mixed",
                          "clients": clients, "cores": params["cores"]}
                yield key, fn, dict(kwargs, **{k: v(params, key) for k, v in extra.items()})

    return cells


def _fig6_render(sim, _params):
    series = {
        f"{name}/{load}": [
            (i, sim[name][load][metric] or 0.0)
            for i, metric in enumerate(("read_p50", "read_p95", "write_p50", "write_p95"), 1)
        ]
        for name in FIG6_SYSTEMS
        for load in ("low", "high")
    }
    return series_table(
        "Figure 6: latency (us) at 1 client and ~90% load",
        "metric (1=read p50, 2=read p95, 3=write p50, 4=write p95)",
        "microseconds",
        series,
    )


FIG6 = Figure(
    "fig6",
    _FIG6,
    _fig6_render,
    smoke={"high_load_clients": 8},
    cells=_latency_cells(latency_point),
    path=_nested,
    baseline=True,
)


def _export_trace(results, params, out_dir):
    """Lift the trace cell's raw spans out; write them as Perfetto JSON."""
    spans = results[params["trace_cell"]].pop("spans")
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_chrome_trace(
            os.path.join(out_dir, "TRACE_fig6path.json"),
            spans,
            process_name=f"repro {params['trace_cell']}",
        )


def _fig6path_render(sim, _params):
    rows = []
    for name in FIG6_SYSTEMS:
        for load in ("low", "high"):
            for op, digest in sim[name][load]["critical_path"].items():
                agg = digest["aggregate"]
                shares = "  ".join(
                    f"{stage} {agg['stages'][stage]['share'] * 100.0:4.1f}%"
                    for stage in STAGES
                    if stage in agg["stages"]
                )
                rows.append((
                    f"{name}/{load} {op}",
                    f"mean {agg['duration_us']['mean']:8.1f}us "
                    f"({agg['count']} ops)  {shares}",
                ))
    return kv_table("Figure 6 (path): critical-path latency attribution", rows)


# fig6, traced: per-stage critical-path attribution.  The first
# trace_span_cap spans of trace_cell become TRACE_fig6path.json.
FIG6PATH = dataclasses.replace(
    FIG6,
    name="fig6path",
    full=dict(_FIG6, trace_cell="sift/low", trace_span_cap=2000),
    render=_fig6path_render,
    cells=_latency_cells(
        critpath_point,
        export_spans=lambda p, key: p["trace_span_cap"] if key == p["trace_cell"] else 0,
    ),
    post=_export_trace,
)

# -- fig8live: the shared backup pool, live ----------------------------------------

# Staggered coordinator crashes against a live sharded service vs the
# PoolAccountant replay of the same fault times.  The fault gap is
# shorter than the provisioning delay, so the pool's waiting path runs.
FIG8LIVE = Figure(
    "fig8live",
    {
        "backups": 1,
        "provisioning_delay_us": 5 * SEC,
        "fault_gap_us": 1.25 * SEC,
        "repetitions": 3,
        "shards": [2, 4],
    },
    _table(
        "Figure 8 (live): shared pool vs trace model",
        lambda cell: (
            f"live {cell['live_per_fault_us'] / 1e6:7.3f} s/fault  "
            f"model {cell['model_per_fault_us'] / 1e6:7.3f} s/fault  "
            f"{'agrees' if cell['agrees'] else 'DISAGREES'} "
            f"(tolerance {cell['tolerance_us'] / 1e6:.3f} s)"
        ),
    ),
    smoke={
        "provisioning_delay_us": 1.5 * SEC,
        "fault_gap_us": 0.4 * SEC,
        "repetitions": 2,
        "shards": [2, 3],
    },
    cells=lambda p, scale: [
        (f"sharded/{shards}", live_pool_point, {
            "shards": shards,
            "faults": shards + 1,
            **{k: p[k] for k in (
                "backups", "provisioning_delay_us", "fault_gap_us", "repetitions"
            )},
        })
        for shards in p["shards"]
    ],
    gates={
        "live_pool_agrees_with_model": lambda sim, p: verdict(
            all(cell["agrees"] for cell in sim.values()),
            {k: abs(c["live_per_fault_us"] - c["model_per_fault_us"]) for k, c in sim.items()},
            {k: c["tolerance_us"] for k, c in sim.items()},
        ),
    },
    baseline=True,
    options=("shards",),
)

# -- figMclients: open-loop offered-load sweep ----------------------------------


def _mclients_row(cell):
    p99s = "  ".join(
        f"{shard} p99 {ops.get('read', ops.get('write', {})).get('p99', 0.0):7.0f}us"
        for shard, ops in sorted(cell["slo"].items())
    )
    return (
        f"offered {cell['offered_ops_per_sec']:9,.0f}  "
        f"achieved {cell['achieved_ops_per_sec']:9,.0f} ops/s  "
        f"shed {sum(cell['shed'].values()):6d}  err {cell['errors']:4d}  {p99s}"
    )


def _level(sim, params, index):
    """(shed, achieved, offered) at one offered-load level."""
    cell = sim[f"sharded/{params['levels'][index][0]}"]
    return sum(cell["shed"].values()), cell["achieved_ops_per_sec"], cell["offered_ops_per_sec"]


def _underload_no_shed(sim, params):
    shed, achieved, offered = _level(sim, params, 0)
    return verdict(
        not shed and achieved >= 0.9 * offered,
        {"shed": shed, "achieved_ops_per_sec": achieved},
        {"shed": 0, "achieved_ops_per_sec": 0.9 * offered},
    )


def _overload_sheds(sim, params):
    # Admission control engaging: the overload point sheds and falls
    # short of its offered rate.
    shed, achieved, offered = _level(sim, params, -1)
    return verdict(
        shed > 0 and achieved < offered,
        {"shed": shed, "achieved_ops_per_sec": achieved},
        {"shed": 1, "achieved_ops_per_sec": offered},
    )


# base_ops_per_sec is the sharded smoke spec's saturation rate; the
# levels run from underload through the knee into overload.
FIGMCLIENTS = Figure(
    "figMclients",
    {
        "cores": 12,
        "shards": 2,
        "workload": "read-heavy",
        "n_clients": 2_000_000,
        "base_ops_per_sec": 600_000.0,
        "levels": [["x0.25", 0.25], ["x0.75", 0.75], ["x1.0", 1.0], ["x1.5", 1.5]],
        "max_inflight": 16,
        "queue_limit": 512,
        "throttle_ratio": 1.2,
        "window_us": 1 * MS,
    },
    _table("Figure Mclients: open-loop offered-load sweep", _mclients_row),
    smoke={"n_clients": 1_000_000},
    cells=lambda p, scale: [
        (f"sharded/{label}", openloop_point, {
            "offered_ops_per_sec": p["base_ops_per_sec"] * multiplier,
            "rate_ops_per_sec": p["base_ops_per_sec"] * p["throttle_ratio"],
            **{k: p[k] for k in (
                "shards", "workload", "n_clients", "max_inflight", "queue_limit", "window_us"
            )},
        })
        for label, multiplier in p["levels"]
    ],
    gates={
        "million_clients": lambda sim, p: _at_least(p["n_clients"], 1_000_000),
        "underload_no_shed": _underload_no_shed,
        "overload_sheds": _overload_sheds,
        "slo_recorded": lambda sim, p: _at_least(
            sum(1 for cell in sim.values() if cell["slo"]), len(sim)
        ),
    },
    baseline=True,
)

# -- figHotspot: elastic vs static under a load shift ------------------------------


_AUTO, _STATIC = "sharded/autoscaled", "sharded/static"

# Static peak-provisioned pool vs a lean pool plus Reconciler, under a
# warmup fault burst and a mid-run hotspot shift onto one shard.  At
# this offered rate the shard carrying the retargeted hot set (~85% of
# the mass) runs past its lane's capacity; the balanced layout does not.
FIGHOTSPOT = Figure(
    "figHotspot",
    {
        "cores": 12,
        "shards": 2,
        "workload": "mixed",
        "hot_span": 512,
        "max_inflight": 8,
        "queue_limit": 256,
        "window_us": 1 * MS,
        "warmup_us": 350 * MS,
        "static_backups": 3,
        "provisioning_delay_us": 150 * MS,
        "fault_at_us": (5 * MS, 70 * MS),
        "reconciler_interval_us": 25 * MS,
        "imbalance_factor": 1.5,
        "min_split_ops": 512,
        "forward_window_us": 50 * MS,
        "pool_max": 4,
        "offered_ops_per_sec": 200_000.0,
        "n_clients": 1_000_000,
        "before_us": 100 * MS,
        "settle_us": 80 * MS,
        "after_us": 400 * MS,
    },
    _table(
        "Figure Hotspot: elastic vs static under a load shift",
        lambda cell: (
            f"after p99.9 {cell['tails']['after']['p99.9']:8.0f}us  "
            f"pool {cell['pool']['vm_seconds']:5.2f} VM-s  "
            f"shards {cell['control']['shards']}  "
            f"splits {cell['control']['splits']}  "
            f"lost {cell['probe']['lost'] + cell['probe']['missing']}  "
            f"lincheck {'ok' if cell['probe']['lincheck_ok'] else 'FAIL'}"
        ),
    ),
    smoke={"n_clients": 200_000, "before_us": 50 * MS, "after_us": 200 * MS},
    cells=lambda p, scale: [
        (f"sharded/{label}", hotspot_point,
         dict({k: v for k, v in p.items() if k != "cores"}, autoscale=autoscale))
        for label, autoscale in (("static", False), ("autoscaled", True))
    ],
    gates={
        "autoscaled_tail_beats_static": lambda sim, p: _below(
            sim[_AUTO]["tails"]["after"]["p99.9"],
            sim[_STATIC]["tails"]["after"]["p99.9"],
        ),
        "autoscaled_pool_cheaper": lambda sim, p: _below(
            sim[_AUTO]["pool"]["vm_seconds"], sim[_STATIC]["pool"]["vm_seconds"]
        ),
        "reconciler_split": lambda sim, p: verdict(
            min(sim[_AUTO]["control"]["splits"], sim[_AUTO]["control"]["ring_version"]) >= 1,
            {k: sim[_AUTO]["control"][k] for k in ("splits", "ring_version")},
            {"splits": 1, "ring_version": 1},
        ),
        "reconciler_resized_pool": lambda sim, p: _at_least(
            sim[_AUTO]["control"]["pool_resizes"], 1
        ),
        "zero_acked_write_loss": lambda sim, p: verdict(
            not any(c["probe"]["lost"] or c["probe"]["missing"] for c in sim.values()),
            {k: c["probe"]["lost"] + c["probe"]["missing"] for k, c in sim.items()},
            0,
        ),
        "linearizable": lambda sim, p: verdict(
            all(c["probe"]["lincheck_ok"] for c in sim.values()),
            {k: c["probe"]["lincheck_ok"] for k, c in sim.items()},
            True,
        ),
    },
    baseline=True,
)

# -- fig11 / fig11sweep: memory-node failure and partitioned recovery ---------------

_FIG11 = {
    "cores": 12,
    "clients": 10,
    "kill_at_us": 0.6 * SEC,
    "restart_at_us": 0.9 * SEC,
    "duration_us": 3.0 * SEC,
    "workload": "read-heavy",
}
# Smoke compresses the schedule so CI sees the same three phases (dip,
# copy-back contention, recovery) in ~1.5 simulated seconds.
_FIG11_SMOKE = {
    "clients": 6,
    "kill_at_us": 0.3 * SEC,
    "restart_at_us": 0.45 * SEC,
    "duration_us": 1.5 * SEC,
}


def _fig11_cell(params):
    timings = tuple(params[k] for k in ("kill_at_us", "restart_at_us", "duration_us", "clients"))
    return "sift/memnode-failure", memnode_failure_point, {"timings": timings}


def _fig11_render(sim, _params):
    table = series_table(
        "Figure 11: read-heavy throughput during a memory node failure",
        "seconds", "ops/sec", {"sift": sim["series"]},
    )
    return (
        f"{table}\ntimeline: {sparkline([ops for _t, ops in sim['series']])}\n"
        f"events: {sim['events']} recovery completed: {sim['recovery_s'] is not None}"
    )


FIG11 = Figure(
    "fig11",
    _FIG11,
    _fig11_render,
    smoke=_FIG11_SMOKE,
    cells=lambda p, scale: [_fig11_cell(p)],
    path=lambda key: (),
    baseline=True,
)


def _sweep_times(sim, params):
    return [sim[f"sift/recovery-f2-p{n}"]["recovery_s"] for n in params["partitions"]]


def _fig11sweep_render(sim, params):
    rows = []
    for n in params["partitions"]:
        key = f"sift/recovery-f2-p{n}"
        cell = sim[key]
        rows.append((
            key,
            f"recovery {cell['recovery_s'] or float('nan'):7.3f} s   "
            f"copy {(cell['copy_us'] or 0) / 1e3:8.3f} ms   "
            f"sources {len(cell['sources'] or [])}",
        ))
    return kv_table("Figure 11 sweep: recovery time vs partitions (Fm=2)", rows)


def _strictly_decreasing(sim, params):
    times = [t for t in _sweep_times(sim, params) if t is not None]
    return verdict(all(a > b for a, b in zip(times, times[1:])), times, "strictly decreasing")


# The fig11 timeline at Fm = 2 per recovery_partitions width (each
# doubling doubles the source links streaming the image back), plus
# the fig11 point itself as an anchor that must match BENCH_fig11.
FIG11SWEEP = dataclasses.replace(
    FIG11,
    name="fig11sweep",
    full=dict(_FIG11, f=2, partitions=list(RECOVERY_SWEEP_PARTITIONS)),
    render=_fig11sweep_render,
    path=lambda key: (key,),
    cells=lambda p, scale: [_fig11_cell(p)] + [
        (f"sift/recovery-f2-p{n}", recovery_sweep_point,
         dict(_fig11_cell(p)[2], partitions=n))
        for n in p["partitions"]
    ],
    gates={
        "every_point_recovers": lambda sim, p: _at_least(
            sum(t is not None for t in _sweep_times(sim, p)), len(p["partitions"])
        ),
        "recovery_strictly_decreasing": _strictly_decreasing,
    },
)

#: Every figure, by CLI name.
FIGURES: Dict[str, Figure] = {
    figure.name: figure
    for figure in (
        TABLE1, TABLE2, FIG5, FIG5ABLATE, FIG6, FIG6PATH, FIG8, FIG8LIVE,
        FIGHOTSPOT, FIGMCLIENTS, FIG9, FIG10, FIG11, FIG11SWEEP, THROUGHPUT,
    )
}

#: Figures with a committed ``benchmarks/baselines/BENCH_<name>.json``.
BASELINE_FIGURES = tuple(name for name, figure in FIGURES.items() if figure.baseline)
