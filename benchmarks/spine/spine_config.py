"""The spine's one fixed configuration, its workload sizes, and the
metric lists it shares with ``BENCHMARK.json``.

Every output document embeds :func:`config_block`; two documents are
comparable only when their blocks are equal (see ``selfcheck.py``).
"""

from __future__ import annotations

import inspect
import json
import os
import signal
import sys
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Set

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"
#: compiled-kernel cache; the name the driver also uses for build output
BUILD = ROOT / ".bench_build"

SCHEMA = "repro.spine/v1"

WORKLOADS = ("force_paper_ng", "force_small_groups", "cli_run_cold",
             "serve_local", "serve_fleet")

#: the configuration every workload runs under -- never a CLI option
FIXED_CONFIG: Dict[str, Any] = {
    "engine": "serial",
    "hosts": 1,
    "boards": 2,
    "kernels": "numpy",       # passed only where the callee accepts it
    "theta": 0.75,
    "z_init": 24.0,
    "schedule": "paper: 999 equal steps z=24 -> 0, taken from the start",
    "clients": 2,             # closed-loop client threads (= nproc here)
    "scheduler_slots": 2,
    "pipeline_workers": 2,    # advisory exec.* probe only
    "setup_reps": 5,
    "error_sample": 256,
    "hot_specs": 8,
    "client_poll_s": 0.002,
    "slice_s": 5.0,           # serve stream slice between calibrations
    "settle_s": 0.1,          # idle time after a slice, before calibrating
}

#: N, n_crit and the job mix are part of a workload's identity: run
#: length scales the number of steps / reps / jobs, never these
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "force_paper_ng": {"ngrid": 64, "ncrit": 2000, "backend": "grape",
                           "min_units": 2, "err_ceiling": 0.02},
        "force_small_groups": {"ngrid": 40, "ncrit": 32, "backend": "host",
                               "min_units": 10, "err_ceiling": 0.025},
        "cli_run_cold": {"ngrid": 24, "steps": 2, "z_final": 20.0,
                         "min_units": 2},
        "serve_local": {"n": 256, "min_units": 100, "store_probe_calls": 300},
        "serve_fleet": {"n": 256, "min_units": 60, "store_probe_calls": 300},
    },
    "smoke": {
        "force_paper_ng": {"ngrid": 10, "ncrit": 2000, "backend": "grape",
                           "min_units": 2, "err_ceiling": 0.05},
        "force_small_groups": {"ngrid": 8, "ncrit": 32, "backend": "host",
                               "min_units": 2, "err_ceiling": 0.05},
        "cli_run_cold": {"ngrid": 8, "steps": 2, "z_final": 20.0,
                         "min_units": 2},
        "serve_local": {"n": 64, "min_units": 20, "store_probe_calls": 30},
        "serve_fleet": {"n": 64, "min_units": 20, "store_probe_calls": 30},
    },
}


def config_block(workload: str, *, smoke: bool, seconds: float
                 ) -> Dict[str, Any]:
    """The configuration a result document records and is compared by."""
    return {"schema": SCHEMA, "workload": workload,
            "sizes": "smoke" if smoke else "full",
            "seconds": float(seconds), **FIXED_CONFIG,
            **SIZES["smoke" if smoke else "full"][workload]}


def benchmark_spec() -> Dict[str, Any]:
    """The parsed ``BENCHMARK.json`` (the metric names, units, bounds)."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def metric_units(spec: Dict[str, Any], kind: str) -> Dict[str, str]:
    """``name -> unit`` of the ``end_to_end`` or ``per_layer`` list."""
    return {m["name"]: m["unit"] for m in spec[kind]}


def accepted(fn: Callable, **kwargs: Any) -> Dict[str, Any]:
    """The subset of ``kwargs`` that ``fn`` still takes, so the spine
    outlives the removal of a parameter such as ``kernels=``."""
    params = inspect.signature(fn).parameters
    return {k: v for k, v in kwargs.items() if k in params}


def build_solver(**kwargs: Any):
    """``recipes.build_force`` under the fixed theta and kernel set;
    returns its ``(treecode, backend)``."""
    from repro.sim.recipes import build_force
    return build_force(**accepted(build_force, theta=FIXED_CONFIG["theta"],
                                  kernels=FIXED_CONFIG["kernels"], **kwargs))


def use_checkout() -> None:
    """Make ``repro`` importable from this checkout, here and in every
    subprocess.  Exits non-zero when the checkout has no ``src/repro``:
    the benchmark measures the code next to it, never an installed copy.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"spine: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        raise SystemExit(2)
    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in paths if p and p != str(SRC)])
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def confine_writes() -> None:
    """Keep every file the program writes inside the checkout: the
    compiled kernel goes to the build cache, temp files to ``out/tmp``."""
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["XDG_CACHE_HOME"] = str(BUILD / "cache")
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)


def scratch_dir(prefix: str) -> Path:
    """A fresh directory under ``out/tmp`` (the caller removes it)."""
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=str(OUT / "tmp")))


def child_pids() -> Set[int]:
    """Direct children of this process still in the process table,
    zombies included (read from ``/proc``; empty where there is none)."""
    me, found = os.getpid(), set()
    try:
        entries = os.listdir("/proc")
    except OSError:
        return found
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii",
                      errors="replace") as fh:
                stat = fh.read()
            # "pid (comm) state ppid ..."; comm may hold spaces and ")"
            ppid = int(stat[stat.rindex(")") + 2:].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        if ppid == me:
            found.add(int(entry))
    return found


def stop_children(keep: Iterable[int] = ()) -> None:
    """Stop every process this one started, except ``keep``, and wait
    until each has ended.  The one nobody else waits for is the resource
    tracker ``multiprocessing`` starts beside the first shared-memory
    block (the advisory pipeline probe): it ends only once it sees this
    process gone, so it would outlive the run by a few milliseconds."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()          # closes its pipe and waits for it to exit
    for pid in child_pids() - set(keep):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass        # reaped by whoever started it


def write_json(path: Path, doc: Dict[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
