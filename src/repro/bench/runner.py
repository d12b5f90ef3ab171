"""The benchmark runner: one timing protocol for every experiment.

The runner executes registered :class:`~repro.bench.registry.BenchmarkSpec`
functions outside pytest.  It supplies, by signature-parameter name:

``benchmark``
    A :class:`BenchTimer` -- API-compatible with the pytest-benchmark
    fixture (``benchmark(fn)``, ``benchmark.pedantic(...)``,
    ``benchmark.extra_info``) so the suite runs identically under
    pytest and under ``repro bench run``.  The runner controls warmup
    and repeat counts centrally; per-round wall times feed the robust
    statistics (median + IQR) of the result document.
``results_dir``
    ``benchmarks/results/`` -- the same table/figure artifact
    directory the pytest path uses.
anything else
    A cached workload from :mod:`repro.bench.workloads`.

Profiling is opt-in per run: each benchmark executes under cProfile,
a ``.prof`` dump lands next to the results, a top-N cumulative-time
table is attached to the result, and a fresh :class:`repro.obs.Tracer`
is exposed through :func:`current_tracer` so instrumented benchmarks
contribute a per-phase wall-time table.
"""

from __future__ import annotations

import contextvars
import cProfile
import io
import pstats
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Callable, Dict, Iterable, List, Optional,
                    Sequence)

from .fingerprint import machine_fingerprint
from .registry import BenchmarkSpec, suite_dir
from .schema import make_document, wall_stats
from .workloads import PROVIDERS, workload

__all__ = ["BenchTimer", "RunnerConfig", "run_benchmarks",
           "current_tracer", "current_cluster"]

#: Tracer handed to benchmarks while profiling (NULL_TRACER otherwise).
_TRACER: contextvars.ContextVar = contextvars.ContextVar(
    "repro_bench_tracer", default=None)

#: (hosts, boards) selected by ``repro bench run --hosts/--boards``.
_CLUSTER: contextvars.ContextVar = contextvars.ContextVar(
    "repro_bench_cluster", default=None)


def current_tracer():
    """The tracer of the benchmark being run (a no-op tracer unless the
    runner was invoked with profiling enabled).

    Benchmark bodies pass this to ``TreeCode(tracer=...)`` etc.; under
    plain pytest it returns the shared no-op tracer, so instrumented
    benchmarks cost nothing there.
    """
    tracer = _TRACER.get()
    if tracer is None:
        from repro.obs import NULL_TRACER
        return NULL_TRACER
    return tracer


def current_cluster():
    """The ``(hosts, boards)`` cluster shape of the run in progress.

    ``repro bench run --hosts K --boards B`` routes the selection
    here; cluster-aware benchmark bodies turn it into a
    :class:`repro.cluster.ClusterSpec`.  Returns ``None`` under plain
    pytest or when neither flag was given -- the single-host path.
    """
    return _CLUSTER.get()


class BenchTimer:
    """pytest-benchmark-compatible timing proxy under runner control.

    The measured callable is invoked ``warmup`` times untimed, then
    ``rounds`` times timed (each round averaging ``iterations`` calls).
    ``rounds``/``warmup`` given by the benchmark (via
    :meth:`pedantic`) act as defaults; a runner override wins.  The
    last return value of the measured callable is handed back, and
    per-round seconds accumulate in :attr:`times`.
    """

    #: Rounds used for plain ``benchmark(fn)`` calls with no override.
    DEFAULT_ROUNDS = 5

    def __init__(self, rounds: Optional[int] = None,
                 warmup: Optional[int] = None) -> None:
        """Runner-level overrides win over per-benchmark settings."""
        self.rounds_override = rounds
        self.warmup_override = warmup
        self.times: List[float] = []
        self.extra_info: Dict[str, Any] = {}

    def __call__(self, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        return self.pedantic(fn, args=args, kwargs=kwargs,
                             rounds=self.DEFAULT_ROUNDS)

    @property
    def stats(self) -> Dict[str, Any]:
        """Robust statistics over the rounds timed so far (subscript
        access -- ``benchmark.stats["mean"]`` -- like pytest-benchmark)."""
        return wall_stats(self.times)

    def pedantic(self, fn: Callable, args: Sequence[Any] = (),
                 kwargs: Optional[Dict[str, Any]] = None, *,
                 rounds: int = 1, iterations: int = 1,
                 warmup_rounds: int = 0) -> Any:
        """Run ``fn`` under explicit warmup/repeat control and return
        its last result (the pytest-benchmark ``pedantic`` contract).
        """
        kwargs = kwargs or {}
        rounds = self.rounds_override or rounds
        warmup = (self.warmup_override
                  if self.warmup_override is not None else warmup_rounds)
        result = None
        for _ in range(max(0, warmup)):
            result = fn(*args, **kwargs)
        for _ in range(max(1, rounds)):
            t0 = time.perf_counter()
            for _ in range(max(1, iterations)):
                result = fn(*args, **kwargs)
            self.times.append(
                (time.perf_counter() - t0) / max(1, iterations))
        return result


@dataclass
class RunnerConfig:
    """Knobs of one ``repro bench run`` invocation."""

    #: Tier filter recorded in the document ("fast", "slow", "full").
    tier: Optional[str] = None
    #: Override every benchmark's round count (None: per-benchmark).
    rounds: Optional[int] = None
    #: Extra untimed warmup invocations before timing (None: as coded).
    warmup: Optional[int] = None
    #: Enable cProfile + obs phase timers per benchmark.
    profile: bool = False
    #: Emulated cluster hosts exposed via :func:`current_cluster`
    #: (None: single host).
    hosts: Optional[int] = None
    #: Boards per emulated host for :func:`current_cluster`.
    boards: Optional[int] = None
    #: Rows of the cProfile top-N hot-path table.
    profile_top: int = 15
    #: Artifact directory (tables, .prof dumps); default
    #: ``benchmarks/results``.
    results_dir: Optional[Path] = None
    #: Progress callback ``(spec, result_row_or_None)``; called before
    #: (row=None) and after each benchmark.
    progress: Optional[Callable] = None

    def as_json(self) -> Dict[str, Any]:
        """The ``config`` section of the result document."""
        out = {"tier": self.tier or "full", "rounds": self.rounds,
               "warmup": self.warmup, "profile": self.profile}
        if self.hosts is not None or self.boards is not None:
            out["hosts"] = self.hosts if self.hosts is not None else 1
            out["boards"] = self.boards if self.boards is not None else 2
        return out


def _resolve_params(spec: BenchmarkSpec, timer: BenchTimer,
                    results_dir: Path) -> List[Any]:
    """Build the argument list for a benchmark from its signature."""
    args: List[Any] = []
    for name in spec.params:
        if name == "benchmark":
            args.append(timer)
        elif name == "results_dir":
            args.append(results_dir)
        elif name in PROVIDERS:
            args.append(workload(name))
        else:
            raise KeyError(
                f"benchmark {spec.id!r} requests unknown fixture "
                f"{name!r}; known: benchmark, results_dir, "
                f"{', '.join(sorted(PROVIDERS))}")
    return args


def _profile_tables(profiler: cProfile.Profile, tracer,
                    top: int) -> str:
    """Render the opt-in profiling output: cProfile top-N (by
    cumulative time) plus the obs per-phase wall-time table when the
    benchmark routed spans through :func:`current_tracer`."""
    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf)
    stats.sort_stats("cumulative").print_stats(top)
    text = buf.getvalue()
    spans = list(tracer.iter_spans()) if tracer is not None else []
    if spans:
        from repro.obs.export import format_phase_table
        text += "\nper-phase wall time (repro.obs):\n"
        text += format_phase_table(tracer) + "\n"
    return text


def _run_one(spec: BenchmarkSpec, config: RunnerConfig,
             results_dir: Path) -> Dict[str, Any]:
    """Execute one benchmark; never raises (failures land in the row)."""
    timer = BenchTimer(rounds=config.rounds, warmup=config.warmup)
    status, error = "ok", None
    tracer = None
    profiler = None
    token = None
    cluster = None
    if config.hosts is not None or config.boards is not None:
        cluster = (config.hosts if config.hosts is not None else 1,
                   config.boards if config.boards is not None else 2)
    ctoken = _CLUSTER.set(cluster)
    if config.profile:
        from repro.obs import Tracer
        tracer = Tracer()
        token = _TRACER.set(tracer)
        profiler = cProfile.Profile()
    t0 = time.perf_counter()
    try:
        args = _resolve_params(spec, timer, results_dir)
        if profiler is not None:
            profiler.enable()
        try:
            spec.func(*args)
        finally:
            if profiler is not None:
                profiler.disable()
    except AssertionError:
        status, error = "failed", traceback.format_exc(limit=3)
    except Exception:
        status, error = "error", traceback.format_exc(limit=3)
    finally:
        if token is not None:
            _TRACER.reset(token)
        _CLUSTER.reset(ctoken)
    total = time.perf_counter() - t0

    # a benchmark that never called the timer is still a measurement:
    # fall back to its single end-to-end wall time
    rounds = timer.times or ([total] if status == "ok" else [])
    metrics = {k: v for k, v in timer.extra_info.items()
               if v is None or isinstance(v, (bool, int, float, str))}
    row: Dict[str, Any] = {
        "id": spec.id,
        "experiment": spec.experiment,
        "tier": spec.tier,
        "status": status,
        "error": error,
        "wall_seconds": wall_stats(rounds),
        "metrics": metrics,
    }
    row["total_seconds"] = total
    if profiler is not None and status in ("ok", "failed"):
        prof_dir = results_dir / "profiles"
        prof_dir.mkdir(parents=True, exist_ok=True)
        prof_path = prof_dir / f"{spec.id}.prof"
        profiler.dump_stats(prof_path)
        table = _profile_tables(profiler, tracer, config.profile_top)
        (prof_dir / f"{spec.id}.txt").write_text(table,
                                                 encoding="utf-8")
        row["profile"] = str(prof_path)
    return row


def run_benchmarks(specs: Iterable[BenchmarkSpec],
                   config: Optional[RunnerConfig] = None
                   ) -> Dict[str, Any]:
    """Run a selection of benchmarks and assemble the result document.

    Benchmarks execute in registry order; one benchmark's failure is
    recorded in its row (status ``failed``/``error``) and does not
    stop the rest.  The returned document validates against
    ``repro.bench_result/v1``.
    """
    config = config or RunnerConfig()
    results_dir = Path(config.results_dir or suite_dir() / "results")
    results_dir.mkdir(parents=True, exist_ok=True)
    rows: List[Dict[str, Any]] = []
    for spec in specs:
        if config.progress is not None:
            config.progress(spec, None)
        row = _run_one(spec, config, results_dir)
        rows.append(row)
        if config.progress is not None:
            config.progress(spec, row)
    return make_document(machine_fingerprint(), config.as_json(), rows)
