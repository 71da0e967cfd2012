"""Traced pass: per-layer metrics from calls into cvtxor's public functions.

Spans are recorded here, around calls from outside the package, never
inside it.  Each job runs three ways in one interpreter:

- `cli.run(argv)` untimed by spans, as the untraced reference;
- `cli.run(argv)` inside a `cli.run` span;
- a replay of the library calls that job makes, each in its own span
  under a `replay` span, so `cli.self_s` is the `cli.run` span minus them.

`trace.overhead_ratio` is the untraced `cli.run` time of the workload's
jobs plus what the spans opened for those jobs cost, over that untraced
time; the cost of one span is timed on empty spans, since against whole
calls it is far below run-to-run noise.

Per-call costs of the pair-level functions come from timed loops over
the workload's own pairs, and peak memory from a separate tracemalloc
pass, so that allocation tracing never inflates a timing.  Functions a
workload's jobs do not call are measured on small probe jobs instead.
"""

import hashlib
import random
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager

from check import check, prime_splits
from workloads import probe_jobs

__all__ = ["METRICS", "traced_pass"]

# name -> unit, in the order BENCHMARK.json lists them.
METRICS = {
    "core.cvt.ns": "ns",
    "tree.predecessors_of.ns": "ns",
    "tree.build_top_down.s": "s",
    "tree.build_top_down.peak_mib": "MiB",
    "tree.tree_stats.s": "s",
    "tree.export_dot.s": "s",
    "tree.export_json.s": "s",
    "tree.export_json.peak_mib": "MiB",
    "tree.classify_node.ns": "ns",
    "tree.depth_of.ns": "ns",
    "tree.nodes": "count",
    "matrices.build_matrix.depth.s": "s",
    "matrices.build_matrix.parent.s": "s",
    "matrices.build_matrix.freq.s": "s",
    "matrices.export_csv.s": "s",
    "matrices.build_matrix.depth.peak_mib": "MiB",
    "matrices.export_csv.peak_mib": "MiB",
    "matrices.cells": "count",
    "numtheory.odd_odd_cvt_grid.s": "s",
    "numtheory.odd_odd_cvt_grid.peak_mib": "MiB",
    "numtheory.export_pgm.s": "s",
    "numtheory.prime_sieve.s": "s",
    "numtheory.goldbach_sweep.s": "s",
    "numtheory.is_prime.ns": "ns",
    "numtheory.palindrome_row.s": "s",
    "numtheory.goldbach_sweep.per_n.s": "s",
    "numtheory.goldbach_sweep.per_n.peak_mib": "MiB",
    "numtheory.totals": "count",
    "numtheory.pairs": "count",
    "cli.run.s": "s",
    "cli.self_s": "s",
    "cli.bytes_out": "count",
    "trace.overhead_ratio": "ratio",
}

_MICRO_PAIRS = 20_000
_MICRO_REPS = 5
_EMPTY_SPANS = 10_000
_MIB = 1 << 20


class Spans:
    """In-memory span log: name, start and end (ns), parent span, job id."""

    def __init__(self):
        self.records = []
        self._open = []

    @contextmanager
    def span(self, name, job):
        rec = {
            "id": len(self.records), "name": name, "job": job,
            "parent": self._open[-1]["id"] if self._open else None,
        }
        self.records.append(rec)
        self._open.append(rec)
        rec["start"] = time.perf_counter_ns()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter_ns()
            self._open.pop()


def _span_ns():
    """Median wall ns of opening and closing one empty span."""
    per_span = []
    for _ in range(_MICRO_REPS):
        spans = Spans()
        start = time.perf_counter_ns()
        for _ in range(_EMPTY_SPANS):
            with spans.span("empty", "calib"):
                pass
        per_span.append((time.perf_counter_ns() - start) / _EMPTY_SPANS)
    return statistics.median(per_span)


def _seconds(rec):
    return (rec["end"] - rec["start"]) / 1e9


def _replay(job, lib, spans, jid):
    """The library calls `cli.run(job.argv)` makes, one span each."""
    p = job.params
    if job.kind in ("stats", "dot", "json"):
        with spans.span("tree.build_top_down", jid) as rec:
            tree = lib.build_top_down(p["n"])
        rec["count"] = len(tree.nodes)
        name, fn = {
            "stats": ("tree.tree_stats", lib.tree_stats),
            "dot": ("tree.export_dot", lib.export_dot),
            "json": ("tree.export_json", lib.export_json),
        }[job.kind]
        with spans.span(name, jid):
            fn(tree)
    elif job.kind == "matrix":
        with spans.span(f"matrices.build_matrix.{p['kind']}", jid) as rec:
            matrix = lib.build_matrix(lib.MatrixKind(p["kind"]), p["n_max"])
        rec["count"] = (p["n_max"] + 1) ** 2
        with spans.span("matrices.export_csv", jid):
            lib.export_csv(matrix)
    elif job.kind == "fractal":
        with spans.span("numtheory.odd_odd_cvt_grid", jid):
            grid = lib.odd_odd_cvt_grid(p["limit"])
        with spans.span("numtheory.export_pgm", jid):
            lib.export_pgm(grid)
    elif job.kind == "triangle":
        totals = range(2, p["t"] + 1, 2)
        with spans.span("numtheory.palindrome_row", jid):
            for n in totals:
                lib.palindrome_row(n)
        is_prime = lib.is_prime
        calls = 0
        with spans.span("numtheory.is_prime", jid) as rec:
            for n in totals:
                for k in range(1, n, 2):
                    calls += 1
                    if is_prime(k):
                        calls += 1
                        is_prime(n - k)
        rec["count"] = calls
    else:
        per_n = job.kind == "per_n"
        name = "numtheory.goldbach_sweep.per_n" if per_n else "numtheory.goldbach_sweep"
        with spans.span(name, jid) as rec:
            summary = lib.goldbach_sweep(p["start"], p["stop"], per_n=per_n)
        rec["count"] = summary.checked
        if per_n:
            rec["pairs"] = sum(len(r.pairs) for r in summary.reports)


def _job_pairs(job):
    """The (x, y) pairs a job's output is about, for per-call timings."""
    p = job.params
    if job.kind in ("stats", "dot", "json"):
        return [(a, p["n"] - a) for a in range(p["n"] + 1)]
    if job.kind == "matrix":
        return [(i, j) for i in range(p["n_max"] + 1) for j in range(p["n_max"] + 1)]
    if job.kind == "fractal":
        odds = range(1, p["limit"] + 1, 2)
        return [(x, y) for x in odds for y in odds]
    if job.kind == "triangle":
        return [(k, n - k) for n in range(2, p["t"] + 1, 2) for k in range(1, n, 2)]
    if job.kind == "per_n":
        splits = prime_splits(p["start"], p["stop"])
        return [(q, n - q) for n, primes in splits.items() for q in primes]
    return []


def _sample(rng, pairs):
    return rng.sample(pairs, _MICRO_PAIRS) if len(pairs) > _MICRO_PAIRS else pairs


def _micro(lib, pairs, nodes, spans):
    """Median ns per call over the pairs, and per predecessor over the tree
    nodes for predecessors_of."""
    preds = sum(len(lib.predecessors_of(node)) for node in nodes)
    cvt = lib.cvt

    def run_cvt():
        for x, y in pairs:
            cvt(x, y)

    def loop(fn, items=pairs):
        def run():
            for item in items:
                fn(item)
        return run

    cases = {
        "core.cvt.ns": (run_cvt, len(pairs)),
        "tree.predecessors_of.ns": (loop(lib.predecessors_of, nodes), preds),
        "tree.classify_node.ns": (loop(lib.classify_node), len(pairs)),
        "tree.depth_of.ns": (loop(lib.depth_of), len(pairs)),
    }
    out = {}
    for name, (run, count) in cases.items():
        per_call = []
        for _ in range(_MICRO_REPS):
            with spans.span(name[: -len(".ns")], "micro") as rec:
                run()
            rec["count"] = count
            per_call.append((rec["end"] - rec["start"]) / count)
        out[name] = statistics.median(per_call)
    return out


def _peak_mib(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / _MIB
    finally:
        tracemalloc.stop()


def _largest(jobs, kinds, key, **match):
    fits = [
        j for j in jobs
        if j.kind in kinds and all(j.params[k] == v for k, v in match.items())
    ]
    return max(fits, key=lambda j: j.params[key]).params if fits else None


def _peaks(lib, own, probes):
    """tracemalloc peak of each traced call on its largest input, the
    workload's own jobs first and probe jobs where it has none."""

    def largest(kinds, key, **match):
        return _largest(own, kinds, key, **match) or _largest(probes, kinds, key, **match)

    tree_n = largest(("stats", "dot", "json"), "n")["n"]
    json_n = largest(("json",), "n")["n"]
    depth = largest(("matrix",), "n_max", kind="depth")
    csv = largest(("matrix",), "n_max")
    limit = largest(("fractal",), "limit")["limit"]
    window = largest(("per_n",), "stop")
    out = {"tree.build_top_down.peak_mib": _peak_mib(lib.build_top_down, tree_n)}
    out["tree.export_json.peak_mib"] = _peak_mib(lib.export_json, lib.build_top_down(json_n))
    out["matrices.build_matrix.depth.peak_mib"] = _peak_mib(
        lib.build_matrix, lib.MatrixKind.DEPTH, depth["n_max"]
    )
    out["matrices.export_csv.peak_mib"] = _peak_mib(
        lib.export_csv, lib.build_matrix(lib.MatrixKind(csv["kind"]), csv["n_max"])
    )
    out["numtheory.odd_odd_cvt_grid.peak_mib"] = _peak_mib(lib.odd_odd_cvt_grid, limit)
    out["numtheory.goldbach_sweep.per_n.peak_mib"] = _peak_mib(
        lambda: lib.goldbach_sweep(window["start"], window["stop"], per_n=True)
    )
    return out


def traced_pass(jobs, seed, src, tmp):
    """Run the traced pass; returns (metrics, spans, job log)."""
    sys.path.insert(0, str(src))
    import cvtxor as lib
    from cvtxor import cli

    probes = probe_jobs(seed, jobs)
    spans = Spans()
    log = []
    untraced_total = 0.0
    for index, job in enumerate([*jobs, *probes]):
        own = index < len(jobs)
        jid = f"j{index}" if own else f"p{index - len(jobs)}"
        plain, traced = tmp / f"{jid}.plain", tmp / f"{jid}.traced"
        # Alternate which of the two runs goes first, so that neither
        # always gets the warmer heap.
        for traced_now in (index % 2 == 0, index % 2 == 1):
            if traced_now:
                with spans.span("cli.run", jid) as rec:
                    rc_traced = cli.run([*job.argv, "--out", str(traced)])
            else:
                start = time.perf_counter()
                rc_plain = cli.run([*job.argv, "--out", str(plain)])
                untraced = time.perf_counter() - start
        with spans.span("replay", jid):
            _replay(job, lib, spans, jid)
        if job.kind in ("sweep", "per_n"):
            with spans.span("numtheory.prime_sieve", jid):
                lib.prime_sieve(job.params["stop"])
        problems = [f"exit status {rc}" for rc in (rc_plain, rc_traced) if rc != 0]
        data = plain.read_bytes() if plain.exists() else b""
        if not problems:
            problems = check(job, data)
            if traced.read_bytes() != data:
                problems.append("traced output differs from the untraced output")
        for path in (plain, traced):
            path.unlink(missing_ok=True)
        if own:
            untraced_total += untraced
        log.append({
            "id": jid, "argv": list(job.argv), "untraced_s": untraced,
            "traced_s": _seconds(rec), "bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest(), "problems": problems,
        })

    rng = random.Random(f"pairs:{seed}")
    pairs = _sample(rng, next(p for p in map(_job_pairs, jobs) if p))
    # Every node of the smallest tree, as build_top_down visits them: a
    # sample would miss the few nodes that carry nearly all predecessors.
    tree = min(
        (j for j in [*jobs, *probes] if j.kind in ("stats", "dot", "json")),
        key=lambda j: j.params["n"],
    )
    metrics = _micro(lib, pairs, _job_pairs(tree), spans)
    metrics.update(_peaks(lib, jobs, probes))
    metrics.update(_from_spans(spans.records, log, untraced_total))
    return {name: metrics[name] for name in METRICS}, spans.records, log


def _from_spans(records, log, untraced_total):
    own_ids = {entry["id"] for entry in log if entry["id"].startswith("j")}

    def pick(name):
        """Spans of this name from the workload's jobs, else from the probes."""
        named = [r for r in records if r["name"] == name]
        mine = [r for r in named if r["job"] in own_ids]
        return mine or named

    def total(name):
        return sum(_seconds(r) for r in pick(name))

    out = {
        name: total(name[: -len(".s")])
        for name in METRICS
        if name.endswith(".s") and not name.startswith("cli.")
    }
    calls = pick("numtheory.is_prime")
    out["numtheory.is_prime.ns"] = sum(r["end"] - r["start"] for r in calls) / sum(
        r["count"] for r in calls
    )
    out["tree.nodes"] = sum(r["count"] for r in pick("tree.build_top_down"))
    out["matrices.cells"] = sum(
        r["count"] for kind in ("depth", "parent", "freq")
        for r in pick(f"matrices.build_matrix.{kind}")
    )
    sweeps = pick("numtheory.goldbach_sweep") + pick("numtheory.goldbach_sweep.per_n")
    out["numtheory.totals"] = sum(r["count"] for r in sweeps)
    out["numtheory.pairs"] = sum(r["pairs"] for r in pick("numtheory.goldbach_sweep.per_n"))

    by_id = {r["id"]: r for r in records}
    cli_runs = [r for r in records if r["name"] == "cli.run" and r["job"] in own_ids]
    replayed = [
        r for r in records
        if r["parent"] is not None and by_id[r["parent"]]["name"] == "replay"
        and r["job"] in own_ids
    ]
    out["cli.run.s"] = sum(_seconds(r) for r in cli_runs)
    out["cli.self_s"] = out["cli.run.s"] - sum(_seconds(r) for r in replayed)
    out["cli.bytes_out"] = sum(e["bytes"] for e in log if e["id"] in own_ids)
    own_spans = sum(1 for r in records if r["job"] in own_ids)
    out["trace.overhead_ratio"] = 1 + own_spans * _span_ns() / 1e9 / untraced_total
    return out
