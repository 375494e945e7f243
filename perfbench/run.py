#!/usr/bin/env python3
"""UltraWiki expansion-serving benchmark.

    python3 perfbench/run.py --workload expand-uncached --seed 1 --seconds 20 --trace 0

Cold-starts the serving stack in this process (dataset build, prefit into a
fresh artifact store, restore into fresh workers, gateway), drives it over
loopback HTTP for ``--seconds``, checks every response, and prints a report
followed by one JSON result line.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` reports the per-layer metrics (see README.md).
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from itertools import islice  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from probes import Probes  # noqa: E402
from reference import Checker  # noqa: E402
from workloads import (  # noqa: E402
    ALL_METHODS,
    DATASET_SEED,
    TOP_K,
    WORKLOADS,
    Cluster,
    Load,
    run_closed_loop,
)

SUBSTRATE_KINDS = ("ann_index", "causal_lm", "cooccurrence_embeddings", "entity_representations")

#: the metric catalogue, name -> unit: ``end_to_end`` for ``--trace 0``,
#: ``per_layer`` for ``--trace 1``.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {entry["name"]: entry["unit"] for entry in _SPEC["end_to_end"]}
PER_LAYER = {entry["name"]: entry["unit"] for entry in _SPEC["per_layer"]}


def quantile(values, q: float) -> float:
    return float(np.percentile(values, q * 100.0)) if len(values) else 0.0


def percentile_note(count: int, q: float) -> str:
    beyond = int(count * (1.0 - q))
    note = f"n={count}, {beyond} beyond p{round(q * 100)}"
    return note if beyond >= 10 or q == 0.5 else note + " (too few samples beyond)"


class Phase:
    """One measured stretch of requests.  With a ``cycle`` (the round
    robin's length), latencies and throughput come from whole cycles only,
    so every seed times the same requests in another order; with none, or
    before the first cycle completes, from every record."""

    def __init__(self, records, cycle: int | None = None):
        self.records = records
        self.failures = [record for record in records if record.failure is not None]
        whole = len(records) - len(records) % cycle if cycle else 0
        self.timed = records[:whole] or records

    def latencies_ms(self, method: str | None = None) -> list[float]:
        return [
            (record.done - record.sent) * 1000.0
            for record in self.timed
            if method is None or record.item.method == method
        ]

    def completed(self) -> list:
        return [record for record in self.records if record.latency_ms is not None]

    def throughput_rps(self) -> float:
        completed = [record for record in self.timed if record.latency_ms is not None]
        return len(completed) / (self.timed[-1].done - self.timed[0].sent)


# -- provenance --------------------------------------------------------------------------


def git_sha() -> str:
    """HEAD's commit, or ``unknown`` for a plain source tree.  Without a
    ``.git`` of its own the tree is not asked, so an enclosing repository's
    commit is never reported."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(workload, args, nproc: int) -> dict:
    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workload": workload.name,
        "profile": workload.profile,
        "dataset_seed": DATASET_SEED,
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "load": "closed loop, 1 client",
        "trace": args.trace,
    }


# -- the run -----------------------------------------------------------------------------


def cold_start(workload, workdir: Path, nproc: int, probes: Probes | None):
    """``setup_repeats`` full cold starts; all but the last are torn down."""
    imported_s = time.perf_counter() - PROCESS_START
    durations, cluster = [], None
    for repeat in range(workload.setup_repeats):
        if cluster is not None:
            cluster.close()
        if probes is not None:
            probes.reset()
        started = time.perf_counter()
        cluster = Cluster(workload, workdir / f"setup-{repeat}", nproc).start()
        durations.append(time.perf_counter() - started)
    return cluster, imported_s + statistics.median(durations), durations


def end_to_end(phase: Phase, setup_s: float) -> dict:
    latencies = phase.latencies_ms()
    return {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "throughput_rps": phase.throughput_rps(),
        "latency_p50_ms": quantile(latencies, 0.5),
        "latency_p90_ms": quantile(latencies, 0.9),
    }


def method_p50s(phase: Phase) -> dict:
    return {f"expand_p50_ms.{m}": quantile(phase.latencies_ms(m), 0.5) for m in ALL_METHODS}


@dataclass
class Observed:
    """What the probes and the fleet ``/v1/stats`` saw over one stretch of a
    traced run."""

    calls: dict
    seconds: dict
    before: dict
    after: dict

    def count(self, name: str) -> int:
        return self.calls.get(name, 0)

    def total_s(self, name: str) -> float:
        return sum(self.seconds.get(name, []))

    def percentile(self, name: str, q: float, scale: float) -> float:
        """The ``q`` quantile of one probe's call durations, times ``scale``."""
        return scale * quantile(self.seconds.get(name, []), q)

    def delta(self, *path: str) -> float:
        return _sum_workers(self.after, *path) - _sum_workers(self.before, *path)


def observe(probes: Probes, cluster: Cluster, work):
    """Run ``work()`` with the probes installed; returns (its result, Observed)."""
    probes.reset()
    probes.install()
    before = cluster.stats()
    try:
        result = work()
    finally:
        probes.uninstall()
    return result, Observed(dict(probes.calls), dict(probes.seconds), before, cluster.stats())


def _sum_workers(stats: dict, *path: str) -> float:
    """Sum one ``/v1/stats`` field over the workers (dict fields summed too)."""
    total = 0.0
    for worker in stats["workers"].values():
        value = worker
        for key in path:
            value = value.get(key, {}) if isinstance(value, dict) else {}
        if isinstance(value, dict):
            value = sum(value.values())
        total += value or 0
    return total


def _batched(stats: dict) -> float:
    return sum(
        worker["batcher"]["avg_batch_size"] * worker["batcher"]["batches"]
        for worker in stats["workers"].values()
    )


def _spans(phase: Phase, name: str, method: str | None = None) -> list[float]:
    return [
        span["duration_ms"]
        for record in phase.completed()
        if method is None or record.item.method == method
        for span in (record.timings or ())
        if span["name"] == name
    ]


def per_layer(
    cluster: Cluster,
    setup: Observed,
    counting: Observed,
    untraced: Phase,
    traced_phase: Phase,
    traced: Observed,
) -> dict:
    prefit = cluster.prefit_stats
    settled = setup.after
    hits = counting.delta("cache", "hits")
    misses = counting.delta("cache", "misses")
    batches = traced.delta("batcher", "batches")
    untraced_p50 = quantile(untraced.latencies_ms(), 0.5)
    return {
        "client.hop_ms.p50": quantile(
            [
                (record.done - record.sent) * 1000.0 - record.latency_ms
                for record in traced_phase.completed()
            ],
            0.5,
        ),
        **method_p50s(untraced),
        "gateway.proxy_ms.p50": traced.percentile("gateway.handle", 0.5, 1e3),
        "gateway.proxied": counting.after["gateway"]["proxied"]
        - counting.before["gateway"]["proxied"],
        "gateway.failovers": traced.after["gateway"]["failovers"]
        - traced.before["gateway"]["failovers"],
        "gate.check_us.p50": traced.percentile("gate.check", 0.5, 1e6),
        "gate.throttled": sum(traced.after.get("gate", {}).get("throttled", {}).values())
        - sum(traced.before.get("gate", {}).get("throttled", {}).values()),
        "admission.wait_ms.p99": traced.percentile("admission.acquire", 0.99, 1e3),
        "admission.shed": traced.delta("admission", "shed"),
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.evictions": counting.delta("cache", "evictions"),
        "batcher.batches": counting.delta("batcher", "batches"),
        "batcher.avg_batch_size": (
            (_batched(traced.after) - _batched(traced.before)) / batches if batches else 0.0
        ),
        "batcher.queue_wait_ms.p50": quantile(_spans(traced_phase, "queue_wait"), 0.5),
        "service.execute_ms.p50": quantile(_spans(traced_phase, "execute"), 0.5),
        **{
            f"expand_ms.{m}.p50": quantile(_spans(traced_phase, "expand", m), 0.5)
            for m in ALL_METHODS
        },
        "retexpan.candidates_ms.p50": quantile(
            _spans(traced_phase, "candidates", "retexpan"), 0.5
        ),
        "retexpan.score_ms.p50": quantile(_spans(traced_phase, "score", "retexpan"), 0.5),
        "lm.generate_constrained_ms.p50": traced.percentile("lm.generate_constrained", 0.5, 1e3),
        "lm.generate_constrained_calls": counting.count("lm.generate_constrained"),
        "lm.entity_affinity_calls": counting.count("lm.entity_affinity"),
        "text.bm25_search_s": setup.total_s("text.bm25_search"),
        "text.bm25_search_calls": setup.count("text.bm25_search"),
        "text.bm25_score_calls": counting.count("text.bm25_score"),
        "rng.child_calls": counting.count("rng.child"),
        "retrieval.ann_queries": counting.count("retrieval.ann"),
        "dataset.build_s": cluster.timings["build_s"],
        **{
            f"substrate.fit_s.{kind}": prefit["substrates"]["fit_seconds"].get(kind, 0.0)
            for kind in SUBSTRATE_KINDS
        },
        "substrate.fits": prefit["substrates"]["fits"]
        + _sum_workers(settled, "registry", "substrates", "fits"),
        "substrate.restores": prefit["substrates"]["restores"]
        + _sum_workers(settled, "registry", "substrates", "restores"),
        "substrate.resident": _sum_workers(settled, "registry", "substrates", "resident"),
        "store.save_s": setup.total_s("store.save"),
        "store.restore_s": setup.total_s("store.restore"),
        **{f"registry.train_s.{m}": prefit["fit_seconds"].get(m, 0.0) for m in ALL_METHODS},
        "registry.fits": prefit["fits"] + _sum_workers(settled, "registry", "fits"),
        "registry.restores": prefit["store"]["restore_hits"]
        + _sum_workers(settled, "registry", "store", "restore_hits"),
        "trace_overhead_pct": 100.0
        * (quantile(traced_phase.latencies_ms(), 0.5) - untraced_p50)
        / untraced_p50,
    }


def run(workload, args, nproc: int, workdir: Path, probes: Probes | None):
    """Returns (end-to-end metrics, per-layer metrics or None, notes, phases)."""
    if probes is not None:
        probes.install()
    cluster, setup_s, setup_durations = cold_start(workload, workdir, nproc, probes)
    notes = {
        "setup_s": "median of "
        + ", ".join(f"{d:.2f}" for d in setup_durations)
        + " s cold starts, plus interpreter start",
        "cold_start": ", ".join(f"{k} {v:.3f}" for k, v in cluster.timings.items())
        + "  [last cold start]",
    }
    try:
        checker = Checker(workload.profile, cluster.dataset, TOP_K)
        dataset = cluster.dataset
        phases = []
        if probes is not None:
            probes.uninstall()
            settled = cluster.stats()
            setup = Observed(dict(probes.calls), dict(probes.seconds), settled, settled)
            # one request at a time, so every count depends on the seed alone
            items = islice(workload.items(dataset, args.seed), workload.count_items)
            load = Load(checker, workload.use_cache, traced=False)
            (counted, _), counting = observe(
                probes, cluster, lambda: run_closed_loop(cluster, items, math.inf, load)
            )
            phases.append(Phase(counted))

        def warm_up() -> float:
            """Empty the worker caches and refill them (checked, not timed),
            then collect garbage; returns the refill's seconds."""
            cluster.clear_caches()
            items, elapsed = workload.warm_items(dataset), 0.0
            if items:
                load = Load(checker, workload.use_cache, traced=False)
                records, elapsed = run_closed_loop(cluster, items, math.inf, load)
                phases.append(Phase(records))
            gc.collect()
            return elapsed

        def measure(traced: bool) -> Phase:
            load = Load(checker, workload.use_cache, traced)
            items = workload.items(dataset, args.seed)
            records, _ = run_closed_loop(cluster, items, args.seconds, load)
            return Phase(records, workload.cycle(dataset))

        # the first warm-up comes before the first timed request, so it is set-up
        warm_s = warm_up()
        setup_s += warm_s
        notes["setup_s"] += f", plus {warm_s:.2f} s cache warm-up"
        untraced = measure(traced=False)
        phases.append(untraced)
        metrics = end_to_end(untraced, setup_s)
        latencies = untraced.latencies_ms()
        notes["latency_p50_ms"] = percentile_note(len(latencies), 0.5)
        notes["latency_p90_ms"] = percentile_note(len(latencies), 0.9)
        notes["latency_p99_ms"] = (
            f"{quantile(latencies, 0.99):.4f} ms  [{percentile_note(len(latencies), 0.99)}]"
        )
        if probes is None:
            for method in workload.methods:
                notes[f"expand_p50_ms.{method}"] = (
                    f"{quantile(untraced.latencies_ms(method), 0.5):.4f} ms"
                )
            return metrics, None, notes, phases

        warm_up()
        traced_phase, traced = observe(probes, cluster, lambda: measure(traced=True))
        phases.append(traced_phase)
        layer = per_layer(cluster, setup, counting, untraced, traced_phase, traced)
        return metrics, layer, notes, phases
    finally:
        cluster.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))

    print("# provenance " + json.dumps(provenance(workload, args, nproc), sort_keys=True))
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch, prefix=f"{workload.name}-"))
    probes = Probes() if args.trace else None
    try:
        metrics, layer, notes, phases = run(workload, args, nproc, workdir, probes)
    finally:
        if probes is not None:
            probes.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(phase.records) for phase in phases)
    failures = [failure for phase in phases for failure in phase.failures]
    for record in failures[:10]:
        item = record.item
        print(f"# FAILED {item.method} {item.query_id or 'ad-hoc'}: {record.failure}")
    print(f"# error_rate {len(failures) / attempted:.6f} ratio ({len(failures)} of {attempted})")
    untraced = "(untraced) " if layer is not None else ""
    for name, value in metrics.items():
        note = f"  [{notes[name]}]" if name in notes else ""
        print(f"# {untraced}{name} {value:.6g} {END_TO_END[name]}{note}")
    for name, note in notes.items():
        if name not in metrics:
            print(f"# {untraced}{name} {note}")
    for name, value in (layer or {}).items():
        print(f"# {name} {value:.6g} {PER_LAYER[name]}")
    units = PER_LAYER if layer is not None else END_TO_END
    values = layer if layer is not None else metrics
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
