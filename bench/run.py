"""Benchmark of the cvtxor command line: seeded workloads of
`python -m cvtxor ...` jobs, end-to-end cost metrics, and a traced pass
for per-layer metrics.

    python3 bench/run.py --workload trees --seed 1 --seconds 15 --trace 0

Run it from the repository root; it builds nothing and runs the package
from `src/`.  Load model: a closed loop with one client.  One job
subprocess runs at a time, each writing with `--out` into a temporary
directory under `bench/out/`, and the job list repeats until `--seconds`
of job time are spent (see measure).  Every output is checked after the
timed loop: the first good output of each job in full by `check.py`,
every later one by sha256 against it.

With `--trace 0` it reports the end-to-end metrics: per job the median
over its runs, totalled over the job list.  Every timing is scaled to a
nominal machine speed, because a shared host's speed can drift by
10-50% over minutes (seen on a 2-vCPU Xeon VM), which swamps any change
worth finding.  A fixed pure-Python reference loop
(`Reference`) is timed in this process after every child process, and
the run's raw times are multiplied by REF_NOMINAL_S over the mean of
those timings.  The raw figures are printed as `raw_*` lines and kept
in the run record.

With `--trace 1` it runs the traced pass of `layers.py` instead
and reports the per-layer metrics.  `--workload all` runs every workload
in turn and prints one table.  Human-readable lines come first; the last
line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  A record of the run, with every job's argv, goes to
`bench/out/`.
"""

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from check import check
from layers import METRICS as LAYER_METRICS
from layers import traced_pass
from workloads import WORKLOADS, make_jobs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

SETUP_SAMPLES = 15
JOB_TIMEOUT_S = 150

# Reference loop: iterations per timing, timings per reference point, and
# the time one timing takes at the nominal speed all timings are scaled to.
REF_ITERS = 12_000
REF_SAMPLES = 5
REF_NOMINAL_S = 0.005

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mib": "MiB",
}


class ProgramMissing(Exception):
    """The package under test cannot be imported from src/."""


def _job_env():
    env = {k: v for k, v in os.environ.items() if k != "CVTX_LIMIT"}
    env["PYTHONPATH"] = str(SRC)
    return env


def _spawn(args, log, timeout=JOB_TIMEOUT_S):
    """Run `python args...` with stdout and stderr to log, killed after
    timeout seconds; returns (wall seconds, exit status, rusage of that
    child alone)."""
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        actions = [(os.POSIX_SPAWN_DUP2, fd, 1), (os.POSIX_SPAWN_DUP2, fd, 2)]
        env = _job_env()
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)
        signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
        signal.alarm(timeout)
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - start
    finally:
        os.close(fd)
    return wall, os.waitstatus_to_exitcode(status), usage


def _reference_loop():
    """Fixed interpreter-bound work of the kinds cvtxor does: small-int
    bit operations, tuple-keyed dict stores and int-to-str conversion.
    The dict stays small, so this process's peak RSS, which children
    inherit (see measure), does not grow."""
    table = {}
    x = 0
    for i in range(REF_ITERS):
        a, b = (i & 0x3FF) << 1, i ^ 0x155
        table[a, b & 0x3FF] = x
        x = (x + len(str(a ^ b))) & 0xFFFF
    return x


class Reference:
    """Tracks the machine's speed over a run with the reference loop.

    tick() times one reference point, the median of REF_SAMPLES runs of
    the loop; it is called after every child, so the points spread over
    the run.  scale() is REF_NOMINAL_S over the mean point: the factor
    that brings the run's raw times to nominal speed.  One factor per
    run, not one per child: the speed also jitters from second to
    second, and a point a few milliseconds long catches that jitter
    rather than the speed the child just had.
    """

    def __init__(self):
        _reference_loop()  # warm-up
        self.points = []

    def tick(self):
        samples = []
        for _ in range(REF_SAMPLES):
            start = time.perf_counter()
            _reference_loop()
            samples.append(time.perf_counter() - start)
        self.points.append(statistics.median(samples))

    def scale(self):
        return REF_NOMINAL_S / statistics.fmean(self.points)


def _setup_time(tmp, ref):
    """Wall time of one fresh interpreter importing the CLI."""
    wall, code, _ = _spawn(["-c", "import cvtxor.cli"], tmp / "setup.log")
    if code != 0:
        raise ProgramMissing((tmp / "setup.log").read_text(errors="replace").strip())
    ref.tick()
    return wall


def sha256_file(path):
    """Hex digest, read in chunks: see measure() for why size matters."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while chunk := handle.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def _run_job(job, n, run_no, tmp, first, ref):
    """Run job number n once; run_no counts its earlier runs.  Its first
    good output is kept, as first[n] = (run_no, path), for the check
    after the timed loop; later outputs compare hashes with it."""
    out, log = tmp / f"job{n}.out", tmp / f"job{n}.log"
    wall, code, usage = _spawn(["-m", "cvtxor", *job.argv, "--out", str(out)], log)
    ref.tick()
    problems, digest, size = [], None, 0
    if code != 0:
        problems = [f"exit status {code}: {log.read_text(errors='replace').strip()[:200]}"]
    elif not out.exists():
        problems = ["no output file"]
    else:
        digest, size = sha256_file(out), out.stat().st_size
        if n not in first:
            first[n] = (run_no, out.rename(tmp / f"first{n}.out"))
        elif digest != sha256_file(first[n][1]):
            problems = [f"output differs from run {first[n][0]}"]
    out.unlink(missing_ok=True)
    return {
        "argv": list(job.argv), "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_mib": usage.ru_maxrss / 1024, "exit": code, "bytes": size,
        "sha256": digest, "items": job.items, "problems": problems,
    }


def measure(workload, seed, seconds, tmp):
    """End-to-end metrics of one workload with tracing off.

    The job list runs in a cycle for `seconds` of raw job time: a job
    starts only if it would end within `seconds`, judged by its own
    last run, so that a workload whose list takes longer than half of
    `seconds` still gets more than one run of most jobs.  The set-up
    samples are spread over the run, a few after each pass over the
    list, so that a slow spell of the shared machine does not land on
    all of them.

    A spawned child's ru_maxrss starts from this process's own peak RSS
    (Linux carries it over at exec), so nothing large is read or built
    here until the last job has run: outputs are hashed in chunks and
    checked only after the timed loop.
    """
    jobs = make_jobs(workload, seed)
    ref = Reference()
    _setup_time(tmp, ref)  # warm-up; also compiles the bytecode
    setup = [_setup_time(tmp, ref) for _ in range(SETUP_SAMPLES // 3)]
    runs, first, spent = [[] for _ in jobs], {}, 0.0
    for k in itertools.count():
        n = k % len(jobs)
        if runs[n] and spent + runs[n][-1]["wall_s"] > seconds:
            break
        runs[n].append(_run_job(jobs[n], n, len(runs[n]), tmp, first, ref))
        spent += runs[n][-1]["wall_s"]
        if n == len(jobs) - 1:
            setup += [_setup_time(tmp, ref) for _ in range(2)]
    while len(setup) < SETUP_SAMPLES:
        setup.append(_setup_time(tmp, ref))
    for n, (run_no, path) in first.items():
        runs[n][run_no]["problems"] += check(jobs[n], path.read_bytes())

    # Per job, the median over its runs; the metrics total those medians.
    def per_job(key):
        return [statistics.median(record[key] for record in job_runs) for job_runs in runs]

    wall = sum(per_job("wall_s"))
    raw = {
        "raw_setup_s": statistics.median(setup),
        "raw_wall_s": wall,
        "raw_cpu_s": sum(per_job("cpu_s")),
        "raw_items_per_s": sum(job.items for job in jobs) / wall,
    }
    scale = ref.scale()
    metrics = {
        "setup_s": raw["raw_setup_s"] * scale,
        "wall_s": raw["raw_wall_s"] * scale,
        "cpu_s": raw["raw_cpu_s"] * scale,
        "items_per_s": raw["raw_items_per_s"] / scale,
        "peak_rss_mib": max(per_job("maxrss_mib")),
    }
    attempted = sum(map(len, runs))
    failed = sum(1 for job_runs in runs for record in job_runs if record["problems"])
    record = {"setup_runs_s": setup, "reference_points_s": ref.points, "scale": scale,
              "raw": raw, "runs": runs}
    return metrics, END_TO_END, attempted, failed, record


def trace(workload, seed, tmp):
    """Per-layer metrics of one workload from the traced pass."""
    jobs = make_jobs(workload, seed)
    metrics, spans, log = traced_pass(jobs, seed, SRC, tmp)
    failed = sum(1 for entry in log if entry["problems"])
    spans_path = OUT / f"spans-{workload}-seed{seed}.json"
    spans_path.write_text(json.dumps({"jobs": log, "spans": spans}) + "\n")
    record = {"jobs": log, "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, LAYER_METRICS, len(log), failed, record


def _run_one(workload, args):
    record = {
        "workload": workload, "why": WORKLOADS[workload], "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "argv": [list(job.argv) for job in make_jobs(workload, args.seed)],
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
    }
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        if args.trace:
            metrics, units, attempted, failed, detail = trace(workload, args.seed, tmp)
        else:
            metrics, units, attempted, failed, detail = measure(
                workload, args.seed, args.seconds, tmp
            )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    record.update(detail, metrics=metrics, attempted=attempted, failed=failed,
                  loadavg_after=os.getloadavg())
    path = OUT / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for name, value in metrics.items():
        print(f"{workload:7s} {name:42s} {value:16.6f} {units[name]}")
    for name, value in detail.get("raw", {}).items():
        print(f"{workload:7s} {name:42s} {value:16.6f} {units[name[4:]]}")
    print(f"{workload:7s} {'failed_ratio':42s} {failed / attempted:16.6f} ratio "
          f"({failed}/{attempted} jobs)")
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}, \
        attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cvtxor" / "__init__.py").is_file():
        print(f"error: no cvtxor package under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return _run_all(args)
    try:
        metrics, attempted, failed = _run_one(args.workload, args)
    except ProgramMissing as exc:
        print(f"error: cannot import cvtxor.cli: {exc}", file=sys.stderr)
        return 2
    _print_result(metrics, attempted, failed)
    return 0


def _print_result(metrics, attempted, failed):
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def _run_all(args):
    """Every workload, each in a fresh interpreter so that none inherits
    another's peak RSS (see measure), then one combined result line."""
    metrics, attempted, failed = {}, 0, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        if proc.returncode != 0:
            return proc.returncode
        *table, last = proc.stdout.splitlines()
        print("\n".join(table), flush=True)
        result = json.loads(last)
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
        attempted += result["attempted"]
        failed += result["failed"]
    _print_result(metrics, attempted, failed)
    return 0

if __name__ == "__main__":
    sys.exit(main())
