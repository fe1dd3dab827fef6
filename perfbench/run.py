"""qirtk benchmark: whole commands in fresh processes, or one traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sample --seed 1 --seconds 25 \
        --trace 0

``--trace 0`` is a closed loop with one client: it spawns
``python -m qirtk.cli ...`` with ``PYTHONPATH`` set to this checkout's
``src/``, waits for it, checks its output, and starts the next one until
``--seconds`` have passed. It reports the end-to-end metrics.

The host this runs on is shared and its speed swings by up to 1.7x in
phases of a few seconds, so a run's raw median moves with the phases it
happens to catch. Each command is therefore run between two runs of
reference.py, a fixed program with no qirtk code, and its time is its
wall time divided by the mean of those two, times ``REF_NOMINAL_S``: the
command's wall time at the speed where the reference takes that long.
Each set-up is timed the same way. The raw wall times are kept in the
run's JSON and printed beside.

``--trace 1`` imports qirtk in this process, wraps each module's public
functions from outside (see tracer.py), and alternates untraced and
traced ``qirtk.cli.main(argv)`` calls for ``--seconds``. It reports the
per-layer metrics, each the median over the traced commands, and the
tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Spans, samples and
run metadata are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import gen
from tracer import COUNT_METRICS, TIME_METRICS, Tracer, median_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
PINNED = BENCH_DIR / "pinned_counts.json"

REFERENCE = BENCH_DIR / "reference.py"
# reference.py's median wall time on a quiet 2-vCPU Xeon; it only scales
# the ratios back to seconds and is never re-measured
REF_NOMINAL_S = 0.42
SETUP_REPEATS = 3
COMMAND_TIMEOUT_S = 30.0
TAIL_MIN_BEYOND = 10
UNITS = {"statevector.bytes_moved_computed": "B",
         "interpreter.redundant_gate_share": "ratio",
         "statevector.peak_qubits": "qubits"}


@dataclass(frozen=True)
class Workload:
    name: str
    work_unit: str
    args: Callable[[str, int], list[str]]       # (input path, seed)
    work: Callable[[gen.Generated], int]        # work units per command
    check: Callable[[str, gen.Generated, int, str | None], str | None]


WORKLOADS = {w.name: w for w in [
    Workload(
        "sample", "shots",
        lambda path, seed: ["run", path, "--shots", str(gen.SAMPLE_SHOTS),
                            "--seed", str(seed)],
        lambda g: g.reference["shots"],
        lambda out, g, seed, pin: checks.check_counts(
            out, g.reference["shots"], g.reference["width"], seed, pin)),
    Workload(
        "wide", "gate applications",
        lambda path, seed: ["run", path, "--shots", "1"],
        lambda g: g.reference["gates"],
        lambda out, g, seed, pin: checks.check_counts(
            out, 1, g.reference["width"], 0, pin)),
    Workload(
        "lower", "instructions emitted",
        lambda path, seed: ["transpile", path, "--to", "qir-base"],
        lambda g: len(g.reference["sequence"]),
        lambda out, g, seed, pin: checks.check_lowered(
            out, g.reference["sequence"])),
    Workload(
        "convert", "input lines",
        lambda path, seed: ["transpile", path, "--to", "qasm2"],
        lambda g: len(g.text.splitlines()),
        lambda out, g, seed, pin: checks.check_qasm(
            out, g.reference["gates"], g.reference["width"])),
]}


# ---------------------------------------------------------------------------
# statistics


def tail_percentile(n: int, min_beyond: int = TAIL_MIN_BEYOND) -> int | None:
    """Highest whole percentile whose nearest-rank sample has at least
    ``min_beyond`` samples above it, or None when ``n`` is too small."""
    for p in range(99, -1, -1):
        rank = max(1, math.ceil(p * n / 100))
        if n - rank >= min_beyond:
            return p
    return None


def tail(values: list[float]) -> tuple[float, int | None, int]:
    """(value, percentile, samples beyond it); the maximum when too few."""
    ordered = sorted(values)
    p = tail_percentile(len(ordered))
    if p is None:
        return ordered[-1], None, 0
    rank = max(1, math.ceil(p * len(ordered) / 100))
    return ordered[rank - 1], p, len(ordered) - rank


# ---------------------------------------------------------------------------
# set-up and commands


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def write_input(workload: str, seed: int, work: Path) -> tuple[Path,
                                                               gen.Generated]:
    generated = gen.GENERATORS[workload](seed)
    path = work / f"{workload}{generated.suffix}"
    path.write_text(generated.text, encoding="utf-8")
    return path, generated


@dataclass
class Sample:
    wall_s: float
    maxrss_mb: float
    error: str | None
    output: str


def run_command(argv: list[str], env: dict[str, str], work: Path,
                timeout: float = COMMAND_TIMEOUT_S) -> Sample:
    """Spawn one command, wait for it, and take its own rusage."""
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    output = out_path.read_text(encoding="utf-8", errors="replace")
    error = None
    if proc.returncode == -signal.SIGKILL:
        error = f"timed out after {timeout:.0f} s"
    elif proc.returncode != 0:
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        error = f"exit {proc.returncode}: {stderr.strip()[-200:]}"
    return Sample(wall, usage.ru_maxrss / 1024, error, output)


def qirtk_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "qirtk.cli", *args]


def reference_wall(env: dict[str, str], work: Path) -> float:
    sample = run_command([sys.executable, str(REFERENCE)], env, work)
    if sample.error:
        raise RuntimeError(f"reference failed: {sample.error}")
    return sample.wall_s


def scale(walls: list[float], ref_walls: list[float]) -> list[float]:
    """Each wall time over the mean of the reference runs on either side
    of it (``ref_walls`` has one more entry), times ``REF_NOMINAL_S``."""
    return [REF_NOMINAL_S * wall / ((before + after) / 2)
            for wall, before, after in zip(walls, ref_walls, ref_walls[1:])]


def setup(workload: str, seed: int, work: Path, env: dict[str, str]):
    """Write the inputs and probe ``import qirtk.cli``, several times,
    each between two reference runs.

    Returns (median scaled set-up seconds, input path, generated input,
    raw set-up seconds, reference wall times).
    """
    times, ref_walls = [], [reference_wall(env, work)]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        path, generated = write_input(workload, seed, work)
        probe = run_command([sys.executable, "-c", "import qirtk.cli"], env,
                            work, timeout=60.0)
        if probe.error:
            raise RuntimeError(f"import probe failed: {probe.error}")
        times.append(time.perf_counter() - start)
        ref_walls.append(reference_wall(env, work))
    return (statistics.median(scale(times, ref_walls)), path, generated,
            times, ref_walls)


def pinned_digest(workload: str, seed: int) -> str | None:
    table = json.loads(PINNED.read_text(encoding="utf-8"))
    return table.get(workload, {}).get(str(seed))


# ---------------------------------------------------------------------------
# the two kinds of run


def timed_run(workload: Workload, seed: int, seconds: float,
              work: Path) -> dict:
    env = child_env()
    setup_s, path, generated, setup_walls, setup_refs = setup(
        workload.name, seed, work, env)
    argv = qirtk_argv(workload.args(str(path), seed))
    pin = pinned_digest(workload.name, seed)
    samples: list[Sample] = []
    ref_walls = setup_refs[-1:]
    first_output = None
    failed = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        sample = run_command(argv, env, work)
        ref_walls.append(reference_wall(env, work))
        if sample.error is None:
            sample.error = workload.check(sample.output, generated, seed, pin)
        if sample.error is None:
            first_output = first_output or sample.output
            if sample.output != first_output:
                sample.error = "output differs from the first command's"
        if sample.error is not None:
            failed += 1
            print(f"command {len(samples)} failed: {sample.error}",
                  file=sys.stderr)
        samples.append(sample)
    walls = [s.wall_s for s in samples]
    scaled = scale(walls, ref_walls)
    tail_s, tail_p, beyond = tail(scaled)
    done = sum(workload.work(generated) for s in samples if s.error is None)
    metrics = {
        "latency_p50_s": (statistics.median(scaled), "s"),
        "latency_tail_s": (tail_s, "s"),
        "work_per_s": (done / sum(scaled), "1/s"),
        "peak_rss_mb": (statistics.median(s.maxrss_mb for s in samples),
                        "MB"),
        "setup_s": (setup_s, "s"),
    }
    notes = {
        "fail_ratio": failed / len(samples),
        "tail_percentile": tail_p,
        "tail_samples_beyond": beyond,
        "samples": len(samples),
        "work_unit": workload.work_unit,
        "pinned_digest": pin,
        "raw_latency_p50_s": statistics.median(walls),
        "raw_work_per_s": done / sum(walls),
        "ref_nominal_s": REF_NOMINAL_S,
        "ref_median_s": statistics.median(ref_walls),
        "walls_s": walls,
        "ref_walls_s": ref_walls,
        "raw_setup_s": setup_walls,
        "setup_ref_walls_s": setup_refs,
    }
    return {"attempted": len(samples), "failed": failed, "metrics": metrics,
            "notes": notes}


def traced_run(workload: Workload, seed: int, seconds: float,
               work: Path) -> dict:
    path, generated = write_input(workload.name, seed, work)
    argv = workload.args(str(path), seed)
    pin = pinned_digest(workload.name, seed)
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from qirtk import cli
    import_s = time.perf_counter() - start

    tracer = Tracer()
    walls = {False: [], True: []}
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        # alternate which side goes first, so drift hits both alike
        for traced in ((False, True) if attempted % 4 == 0 else (True, False)):
            stdout = io.StringIO()
            if traced:
                tracer.install()
                tracer.begin_command()
            begin = time.perf_counter()
            try:
                with contextlib.redirect_stdout(stdout), \
                        contextlib.redirect_stderr(io.StringIO()):
                    if traced:
                        code = tracer.call("cli.main", cli.main, argv)
                    else:
                        code = cli.main(argv)
            except Exception as err:  # a crash is a failed command
                code = f"{type(err).__name__}: {err}"
            finally:
                walls[traced].append(time.perf_counter() - begin)
                tracer.uninstall()
            attempted += 1
            error = (f"exit {code}" if code != 0 else
                     workload.check(stdout.getvalue(), generated, seed, pin))
            if error is not None:
                failed += 1
                print(f"command {attempted - 1} failed: {error}",
                      file=sys.stderr)
    rows = tracer.command_metrics()
    layer = median_metrics(rows)
    metrics = {"cli.import_s": (import_s, "s")}
    for key in TIME_METRICS:
        metrics[key] = (layer[key], "s")
    for key in COUNT_METRICS + ["interpreter.redundant_gate_share"]:
        metrics[key] = (layer[key], UNITS.get(key, "count"))
    metrics["trace.overhead_s"] = (
        statistics.median(walls[True]) - statistics.median(walls[False]),
        "s")
    spans = tracer.write_spans(OUT / f"spans-{workload.name}.csv")
    notes = {"traced_commands": len(rows), "spans": spans,
             "untraced_median_s": statistics.median(walls[False]),
             "traced_median_s": statistics.median(walls[True])}
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "notes": notes}


# ---------------------------------------------------------------------------
# metadata


def metadata() -> dict:
    probe = subprocess.run(
        [sys.executable, "-c",
         "import json, numpy\n"
         "cfg = numpy.show_config(mode='dicts')\n"
         "blas = cfg.get('Build Dependencies', {}).get('blas', {})\n"
         "print(json.dumps({'numpy': numpy.__version__,\n"
         "  'blas': f\"{blas.get('name')} {blas.get('version')}\"}))"],
        capture_output=True, text=True, timeout=60, cwd=ROOT)
    info = json.loads(probe.stdout) if probe.returncode == 0 else {}
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((ln.split(":", 1)[1].strip() for ln in handle
                        if ln.startswith("model name")), cpu)
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        commit = rev.stdout.strip() or None
    # unset means the BLAS library's default: one thread per core
    threads = {k: os.environ.get(k, "unset") for k in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS")}
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": info.get("numpy"),
        "blas": info.get("blas"),
        "blas_threads": threads,
        "git_commit": commit,
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in SRC.rglob("*.py")),
    }


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qirtk" / "cli.py").is_file():
        print(f"error: no qirtk sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        run = (traced_run if args.trace else timed_run)(
            workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run["notes"]["meta"] = metadata()
    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, **run}
    (OUT / f"run-{args.workload}-{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{run['attempted']} commands, {run['failed']} failed")
    for name, (value, unit) in run["metrics"].items():
        print(f"  {name:36s} {value:.6g} {unit}")
    notes = run["notes"]
    if not args.trace:
        print(f"  {'fail_ratio':36s} {notes['fail_ratio']:.6g} "
              f"({run['failed']}/{run['attempted']})")
        print(f"  raw wall: p50 {notes['raw_latency_p50_s']:.6g} s, "
              f"{notes['raw_work_per_s']:.6g} {notes['work_unit']}/s, "
              f"set-up {statistics.median(notes['raw_setup_s']):.6g} s; "
              f"reference p50 {notes['ref_median_s']:.6g} s, scaled to "
              f"{notes['ref_nominal_s']} s")
        p = notes["tail_percentile"]
        print(f"  latency_tail_s is {'the maximum' if p is None else f'p{p}'}"
              f" of {notes['samples']} samples, "
              f"{notes['tail_samples_beyond']} beyond it; pinned counts "
              f"digest: {notes['pinned_digest']}")
    print("  meta " + json.dumps(notes["meta"]))
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in run["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
