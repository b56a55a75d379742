"""The zfcheck benchmark: one workload per process, metrics as one JSON line.

    python3 perfbench/run.py --workload verify-colors3 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; zfcheck is imported from ``src/``
next to this directory, never from an installed copy.  Without ``--trace``
(or with ``--trace 0``) the run times whole rounds of operations for about
``--seconds`` seconds and prints the end-to-end metrics.  With ``--trace 1``
it runs one operation untraced and one traced, prints the per-layer metrics
and writes the spans to ``.perfbench/trace-<workload>-seed<seed>.json``.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it repeat
each metric by name with its unit and stamp the run with its environment.
Exit code 2 means the benchmark could not start (no zfcheck source, bad
arguments); 1 means set-up raised or no operation gave metrics.  No result is
printed then.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads (and inherited by the import
# probes).  On two shared cores OpenBLAS's second thread spins on zfcheck's
# small matrix products: it adds CPU time, not speed, and whatever else runs
# on either core stalls it, which made cpu_s and wall_s swing from run to run.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

MIN_ROUNDS = 2  # every input runs twice, so byte-identity can be checked
SETUP_REPEATS = 5
IMPORT_SAMPLES = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# A fresh interpreter timing its own import of zfcheck (numpy included).
_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import zfcheck; print(time.perf_counter() - t)"
)


def import_zfcheck() -> float:
    """Import the checkout's zfcheck; return the median import time.

    One import per process is all a process can time, so IMPORT_SAMPLES - 1
    fresh interpreters time it first, one after another, before this process
    imports numpy.  The median of those and of this process's own import is
    the import part of ``setup_s``.
    """
    init = SRC / "zfcheck" / "__init__.py"
    if not init.is_file():
        print(f"perfbench: no zfcheck source at {init}", file=sys.stderr)
        raise SystemExit(2)
    samples = []
    for _ in range(IMPORT_SAMPLES - 1):
        probe = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, timeout=120,
        )
        if probe.returncode != 0:
            print(f"perfbench: importing zfcheck failed:\n{probe.stderr}", file=sys.stderr)
            raise SystemExit(2)
        samples.append(float(probe.stdout))
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import zfcheck  # noqa: F401  (timed: part of set-up)

    samples.append(perf_counter() - t0)
    if Path(zfcheck.__file__).resolve() != init.resolve():
        print(f"perfbench: imported zfcheck from {zfcheck.__file__}, not {init}", file=sys.stderr)
        raise SystemExit(2)
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# Environment stamp


def _git_revision() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """sha256 over src/zfcheck/*.py: identifies the code when .git is absent."""
    h = hashlib.sha256()
    for path in sorted((SRC / "zfcheck").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _blas() -> dict:
    import numpy

    info: dict = {"name": None, "version": None, "threads": None}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError, AttributeError):
        pass
    # The thread count comes from the loaded OpenBLAS itself.
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def stamp() -> dict:
    import numpy

    return {
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
    }


# ---------------------------------------------------------------------------
# Runs


def run_operation(wl, i: int = 0):
    """Operation ``i``: (outcome or None if it raised, wall s, cpu s)."""
    c0, t0 = process_time(), perf_counter()
    try:
        out = wl.operation(i)
    except Exception:
        traceback.print_exc()
        return None, perf_counter() - t0, process_time() - c0
    wall, cpu = perf_counter() - t0, process_time() - c0
    wl.check(out)
    for problem in out.problems:
        print(f"{wl.name}: {problem}", file=sys.stderr)
    return out, wall, cpu


def timed_run(wl, seconds: float, setup_s: float):
    """Whole rounds for about ``seconds``; medians over rounds of the metrics.

    A round is ``wl.rounds_of`` operations, one on each input of the
    workload.  Its wall and CPU time per operation and its checks per second
    are the round's figures; the run reports their medians over rounds.
    """
    walls, cpus, rates = [], [], []
    attempted = failed = rounds = 0
    start, last = perf_counter(), 0.0
    while rounds < MIN_ROUNDS or perf_counter() - start + last <= seconds:
        rounds += 1
        round_wall = round_cpu = 0.0
        checks, ok = 0, True
        for _ in range(wl.rounds_of):
            out, wall, cpu = run_operation(wl, attempted)
            attempted += 1
            round_wall += wall
            round_cpu += cpu
            print(f"operation {attempted}: wall {wall:.4f} s, cpu {cpu:.4f} s")
            if out is None or out.problems:
                failed += 1
                ok = False
            else:
                checks += out.checks
        last = round_wall
        if not ok:
            continue
        walls.append(round_wall / wl.rounds_of)
        cpus.append(round_cpu / wl.rounds_of)
        rates.append(checks / round_wall)
    if not walls:
        return attempted, failed, None
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "checks_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return attempted, failed, metrics


def traced_run(wl, seed: int, env: dict):
    """One untraced and one traced operation; per-layer metrics from the spans."""
    from layers import layer_metrics
    from tracing import Tracer

    attempted = 2
    plain, plain_wall, _ = run_operation(wl)
    failed = int(plain is None or bool(plain.problems))

    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_wall = tracer.root(wl.operation)
    except Exception:
        traceback.print_exc()
        traced, traced_wall = None, 0.0
    finally:
        tracer.uninstall()
    if traced is not None:
        wl.check(traced)
        for problem in traced.problems:
            print(f"{wl.name}: {problem} (traced)", file=sys.stderr)
    failed += traced is None or bool(traced.problems)
    if traced is None or plain is None:
        return attempted, failed, None

    metrics = layer_metrics(wl, tracer, traced, traced_wall, plain_wall)
    tracer.write(
        OUT_DIR / f"trace-{wl.name}-seed{seed}.json",
        {"workload": wl.name, "seed": seed, "traced_wall_s": traced_wall,
         "untraced_wall_s": plain_wall, "stamp": env},
    )
    return attempted, failed, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_zfcheck()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{list(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.make(args.workload, args.seed)
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        wl.setup()
        setups.append(perf_counter() - t0)
    setup_s = import_s + statistics.median(setups)

    control_problems = wl.controls()
    for problem in control_problems:
        print(f"{wl.name}: control: {problem}", file=sys.stderr)

    env = stamp()
    if args.trace:
        attempted, failed, metrics = traced_run(wl, args.seed, env)
    else:
        attempted, failed, metrics = timed_run(wl, args.seconds, setup_s)
    if metrics is None:
        print(f"perfbench: no operation of {wl.name} gave metrics", file=sys.stderr)
        return 1

    print("stamp " + json.dumps(env, sort_keys=True))
    print(f"workload {wl.name} seed {args.seed}: attempted {attempted} failed {failed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": not control_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
