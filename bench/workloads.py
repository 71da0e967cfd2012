"""Seeded job lists for the four benchmark workloads.

A job is one `python -m cvtxor` invocation.  The seed picks bit patterns
and positions; sizes come in compensating pairs (a + b, or a^2 + b^2,
held fixed) and each workload's largest job has a fixed magnitude, so
total work and peak memory stay comparable across seeds while the
inputs themselves change.
"""

import random
from dataclasses import dataclass
from math import isqrt

from check import prime_splits

__all__ = ["WORKLOADS", "Job", "make_jobs", "probe_jobs"]

WORKLOADS = {
    "trees": "inverse-kernel tree builds, tree_stats and classify_node, and 7-20 MB DOT/JSON "
    "exports with atomic writes, over totals in [2^16, 2^17] with mixed popcounts",
    "tables": "the forward step cell by cell (cvt/xor, depth memo walk, predecessor_count) "
    "into dense CSV/PGM exports; never builds a tree",
    "sweep": "sieve and Miller-Rabin bound with ~100 B of output; bypasses tree.py, so it is "
    "the no-change control for tree, kernel and export work",
    "splits": "the only workload on the quadratic per-total scan of goldbach --per-n, point "
    "classify_node/depth_of lookups and a large JSON dump",
}


@dataclass(frozen=True)
class Job:
    """kind names what the job computes; params are its sizes."""

    kind: str
    argv: tuple
    params: dict
    items: int


def _tree_jobs(n):
    nodes = n + 1
    return [
        Job("stats", ("stats", str(n)), {"n": n}, 0),
        Job("dot", ("tree", str(n)), {"n": n}, nodes),
        Job("json", ("tree", str(n), "--format", "json"), {"n": n}, nodes),
    ]


def _matrix_job(kind, n_max):
    return Job(
        "matrix", ("matrix", "--kind", kind, "--max", str(n_max)),
        {"kind": kind, "n_max": n_max}, (n_max + 1) ** 2,
    )


def _fractal_job(limit):
    side = (limit + 1) // 2
    return Job("fractal", ("fractal", "--max", str(limit)), {"limit": limit}, side * side)


def _sweep_job(stop):
    return Job(
        "sweep", ("goldbach", "--from", "4", "--to", str(stop)),
        {"start": 4, "stop": stop}, (stop - 4) // 2 + 1,
    )


def _triangle_job(t):
    cells = sum(n // 2 for n in range(2, t + 1, 2))
    return Job("triangle", ("triangle", str(t)), {"t": t}, cells)


def _per_n_job(start, stop):
    pairs = sum(map(len, prime_splits(start, stop).values()))
    return Job(
        "per_n", ("goldbach", "--per-n", "--from", str(start), "--to", str(stop)),
        {"start": start, "stop": stop}, pairs,
    )


def _pair(rng, lo, hi, square_sum, step):
    """(a, b) with a drawn from [lo, hi], a^2 + b^2 just under square_sum,
    and both congruent to lo modulo step."""
    a = rng.randrange(lo, hi + 1, step)
    b = isqrt(square_sum - a * a)
    b -= (b - lo) % step
    return a, b


def _with_popcount(rng, width, ones):
    return sum(1 << b for b in rng.sample(range(width), ones))


def make_jobs(workload, seed):
    """The job list of one pass; the same (workload, seed) gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "trees":
        # One extreme form at 2^17: popcount 1, or all ones (a single flat
        # level), then a pair summing to 3 * 2^16 whose low member has a
        # seeded popcount.
        extreme = (1 << 17) - rng.randrange(2)
        low = (1 << 16) | _with_popcount(rng, 15, rng.randrange(1, 15))
        totals = [extreme, low, 3 * (1 << 16) - low]
        return [job for n in totals for job in _tree_jobs(n)]
    if workload == "tables":
        # The 768 depth matrix is the fixed largest job; the seeded pairs keep
        # the cell count constant.
        a, b = _pair(rng, 384, 544, 2 * 544 * 544, 1)
        la, lb = _pair(rng, 511, 1023, 2 * 1023 * 1023, 2)
        jobs = [_matrix_job("depth", 768)]
        jobs += [_matrix_job(kind, n) for n in (a, b) for kind in ("depth", "parent", "freq")]
        return jobs + [_fractal_job(la), _fractal_job(lb)]
    if workload == "sweep":
        stop = (1 << 22) + 2 * rng.randrange(-(1 << 11), 1 << 11)
        ta, tb = _pair(rng, 400, 600, 2 * 600 * 600, 2)
        return [_sweep_job(stop), _triangle_job(ta), _triangle_job(tb)]
    if workload == "splits":
        start = 50_000 + 2 * rng.randrange(400)
        return [_per_n_job(start, start + 2 * 299)]
    raise ValueError(f"unknown workload {workload!r}")


def probe_jobs(seed, kinds_present):
    """Small jobs of every kind the workload lacks, so that a traced run
    measures every layer on every workload."""
    rng = random.Random(f"probe:{seed}")
    n = (1 << 12) | rng.randrange(1 << 12)
    m = rng.randrange(64, 129)
    start = 5000 + 2 * rng.randrange(100)
    candidates = _tree_jobs(n) + [
        _matrix_job("depth", m), _matrix_job("parent", m), _matrix_job("freq", m),
        _fractal_job(2 * m + 1), _sweep_job(1 << 16), _triangle_job(2 * m),
        _per_n_job(start, start + 38),
    ]
    present = {(job.kind, job.params.get("kind")) for job in kinds_present}
    return [job for job in candidates if (job.kind, job.params.get("kind")) not in present]
