#!/usr/bin/env python3
"""fracplasma benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (see ``worker.py`` for the inputs and ``BENCHMARK.json`` for why
each was chosen):

  square-analysis  CLI solve, frequency (16 centres) and blowup on the
                   49-node square with a complete basis
  solver-sweep     Python API: fixed-lambda, constrained and energy solves
                   sharing one complete basis per domain
  slab-fd          CLI symmetrize and verify on the 25-node square with
                   64 extension layers (the finite-volume slab solve)
  all              the three above in turn

Every run is a fresh child process (``worker.py``) with its BLAS threads
pinned to ``nproc`` and an address-space limit below machine RAM, so a run
that runs out of memory ends as failed checks.  With ``--trace 0`` the
benchmark repeats runs for up to ``--seconds`` (at least one) and prints the
medians of ``run_s``, ``setup_s``, ``peak_rss_mb`` and ``slowest_task_s``,
and ``passed_frac``.  With ``--trace 1`` it makes one untraced and two
traced runs and prints the per-layer metrics, the tracing overhead, and
checks that the counts repeat exactly between the two traced runs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted``
and ``failed`` count tasks (one CLI subcommand or one API call); a task
fails when it does not complete.  Every failed check is printed by name.
Checks failing because of the open defects listed in
``worker.KNOWN_DEFECTS`` are counted in ``failed_frac`` and named, but do
not make ``correct`` false; any other failed check does.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import worker  # noqa: E402

SETUP_PROBES = 3        # set-up-only processes per timed invocation
BUDGET_S = 170.0        # one invocation starts no run after this point
CHILD_TIMEOUT_S = 170.0


def _declared(kind: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _memory_limit() -> int:
    """Address-space limit for a run: half the machine's RAM."""
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                return int(line.split()[1]) * 1024 // 2
    return 4 << 30


class Runner:
    """Starts worker processes for one workload and seed."""

    def __init__(self, workload: str, seed: int, work: Path, deadline: float):
        self.workload, self.seed, self.work = workload, seed, work
        self.deadline = deadline
        # one BLAS thread: well under nproc, and steadier than two threads
        # on a shared machine, where a busy core stalls the other thread
        self.threads = 1
        self.as_limit = _memory_limit()
        self.env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            self.env[var] = str(self.threads)
        self.count = 0

    def _limit(self):
        resource.setrlimit(resource.RLIMIT_AS, (self.as_limit, self.as_limit))

    def spawn(self, *, trace: int = 0, setup_only: bool = False) -> dict:
        """One run in a fresh process; its result, or {'error': ...}."""
        self.count += 1
        run_dir = self.work / f"run{self.count}"
        run_dir.mkdir(parents=True)
        result = run_dir / "result.json"
        log = run_dir / "log.txt"
        timeout = max(5.0, min(CHILD_TIMEOUT_S, self.deadline - time.monotonic()))
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--trace", str(trace), "--work", str(run_dir),
               "--result", str(result)]
        if setup_only:
            cmd.append("--setup-only")
        with open(log, "w") as fh:
            proc = subprocess.Popen(cmd + ["--t0", repr(time.monotonic())],
                                    cwd=ROOT, env=self.env, stdout=fh,
                                    stderr=subprocess.STDOUT,
                                    preexec_fn=self._limit)
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                fh.write(f"\nkilled after {timeout:.0f} s\n")
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if proc.returncode == 0 and result.is_file():
            out = json.loads(result.read_text())
        else:
            tail = " | ".join(log.read_text().strip().splitlines()[-3:])
            out = {"error": f"worker exit code {proc.returncode}: {tail}"}
        spans = run_dir / "spans.json"
        if spans.is_file():
            # the spans of the latest traced runs stay for inspection
            spans.replace(self.work.parent
                          / f"spans-{self.workload}-run{self.count}.json")
        shutil.rmtree(run_dir, ignore_errors=True)
        return out


def _known(check_name: str) -> str | None:
    return worker.KNOWN_DEFECTS.get(check_name.split(": ", 1)[-1])


def _tally(runs: list) -> dict:
    """Tasks, checks and failures over the runs of one invocation."""
    tasks = attempted_checks = failed_tasks = 0
    failed_checks = {}      # name -> (count, note, value)
    errors = []
    for r in runs:
        if "error" in r:
            tasks += 1
            failed_tasks += 1
            attempted_checks += 1
            errors.append(r["error"])
            continue
        for t in r["tasks"]:
            tasks += 1
            for c in t["checks"]:
                attempted_checks += 1
                if c["name"].endswith(": completed") and not c["passed"]:
                    failed_tasks += 1
                if not c["passed"]:
                    n, _, _ = failed_checks.get(c["name"], (0, None, None))
                    failed_checks[c["name"]] = (n + 1, c["note"], c["value"])
    n_failed_checks = sum(n for n, _, _ in failed_checks.values()) + len(errors)
    unexpected = [name for name in failed_checks if _known(name) is None]
    return {"tasks": tasks, "failed_tasks": failed_tasks,
            "checks": attempted_checks, "failed_checks": n_failed_checks,
            "failed": failed_checks, "errors": errors, "unexpected": unexpected}


def _print_failures(tally: dict) -> None:
    for err in tally["errors"]:
        print(f"  FAILED RUN  {err}")
    for name, (n, note, value) in sorted(tally["failed"].items()):
        known = _known(name)
        tag = f"known defect: {known}" if known else "UNEXPECTED"
        val = "" if value is None else f" value={value:.6g}" \
            if isinstance(value, (int, float)) else f" value={value}"
        extra = f" ({note})" if note else ""
        print(f"  FAIL x{n}  {name}{val}{extra}  [{tag}]")


def _print_env(runs: list, runner: Runner) -> None:
    versions = next((r["env"] for r in runs if "env" in r), "?")
    print(f"# env: {versions}  nproc={len(os.sched_getaffinity(0))} "
          f"blas_threads={runner.threads} "
          f"rlimit_as_mb={runner.as_limit >> 20}")


def timed(runner: Runner, seconds: float) -> dict:
    setups = [runner.spawn(setup_only=True) for _ in range(SETUP_PROBES)]
    runs = []
    start = time.monotonic()
    # start another run only while it is expected to end within `seconds`
    while True:
        runs.append(runner.spawn())
        elapsed = time.monotonic() - start
        expected = elapsed / len(runs)
        if (elapsed + expected > seconds
                or time.monotonic() + expected > runner.deadline):
            break
    good = [r for r in runs if "error" not in r]
    tally = _tally(runs + [s for s in setups if "error" in s])
    setup_values = [r["setup_s"] for r in setups + runs if "setup_s" in r]

    def med(values):
        return statistics.median(values) if values else float("nan")

    metrics = {
        "run_s": med([r["run_s"] for r in good]),
        "setup_s": med(setup_values),
        "peak_rss_mb": med([r["peak_rss_mb"] for r in good]),
        "slowest_task_s": med([max(t["seconds"] for t in r["tasks"])
                               for r in good]),
        "passed_frac": 1.0 - tally["failed_checks"] / max(tally["checks"], 1),
    }
    samples = {"run_s": len(good), "setup_s": len(setup_values),
               "peak_rss_mb": len(good), "slowest_task_s": len(good)}
    _print_env(good, runner)
    units = _declared("end_to_end")
    for name, value in metrics.items():
        note = (f"median of {samples[name]}" if name != "passed_frac" else
                f"{tally['checks'] - tally['failed_checks']} of "
                f"{tally['checks']} checks passed")
        print(f"{name:<16} {value:12.6g} {units[name]:<6} ({note})")
    print(f"{'failed_frac':<16} {1.0 - metrics['passed_frac']:12.6g} ratio  "
          f"({tally['failed_checks']} of {tally['checks']} checks failed)")
    if good:
        slow = max(good[0]["tasks"], key=lambda t: t["seconds"])
        print(f"# slowest task of run 1: {slow['name']} "
              f"({slow['seconds']:.3f} s)")
    _print_failures(tally)
    correct = bool(good) and not tally["errors"] and not tally["unexpected"]
    return {"correct": correct, "attempted": tally["tasks"],
            "failed": tally["failed_tasks"],
            "metrics": {k: {"value": metrics[k], "unit": u}
                        for k, u in units.items()}}


def traced(runner: Runner) -> dict:
    base = runner.spawn()
    runs = [runner.spawn(trace=1) for _ in range(2)]
    good = [r for r in runs if "error" not in r]
    tally = _tally([base] + runs)
    metrics = {}
    mismatched = []
    if len(good) == 2:
        for name in good[0]["layers"]:
            values = [r["layers"][name] for r in good]
            metrics[name] = statistics.median(values)
            if name in tracing.EXACT and values[0] != values[1]:
                mismatched.append(f"{name}: {values[0]} != {values[1]}")
        traced_run = statistics.median(r["run_s"] for r in good)
        metrics["trace_overhead_s"] = (traced_run - base["run_s"]
                                       if "run_s" in base else float("nan"))
    _print_env(good, runner)
    print(f"# per-layer metrics, median of {len(good)} traced runs; "
          f"untraced run_s={base.get('run_s', float('nan')):.4f} s")
    units = _declared("per_layer")
    for name, value in sorted(metrics.items()):
        print(f"{name:<48} {value:14.6g} {units[name]}")
    for line in mismatched:
        print(f"  COUNT MISMATCH between traced runs  {line}")
    _print_failures(tally)
    correct = (len(good) == 2 and not tally["errors"]
               and not tally["unexpected"] and not mismatched)
    return {"correct": correct, "attempted": tally["tasks"],
            "failed": tally["failed_tasks"],
            "metrics": {k: {"value": metrics.get(k, float("nan")), "unit": u}
                        for k, u in units.items()}}


def bench(workload: str, seed: int, seconds: float, trace: int,
          deadline: float) -> dict:
    work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    print(f"# workload={workload} seed={seed} seconds={seconds} trace={trace}")
    try:
        runner = Runner(workload, seed, work, deadline)
        return traced(runner) if trace else timed(runner, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(worker.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "fracplasma" / "__init__.py").is_file():
        print(f"fracplasma sources not found under {ROOT / 'src'}; run the "
              f"benchmark from a checkout of the repository", file=sys.stderr)
        return 2

    # stop children on SIGTERM too, through the finally blocks
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    start = time.monotonic()
    names = list(worker.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    # one workload ends within 180 s; "all" runs each in turn, unbounded
    deadline = start + BUDGET_S if len(names) == 1 else float("inf")
    for name in names:
        results[name] = bench(name, args.seed, args.seconds, args.trace,
                              deadline)
    if len(results) == 1:
        out = results[names[0]]
    else:
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{w}.{k}": v for w, r in results.items()
                           for k, v in r["metrics"].items()}}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
