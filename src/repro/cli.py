"""Command-line interface.

The subcommands cover the workflows a downstream user needs without
writing Python:

* ``build-dataset`` — construct a synthetic UltraWiki-style dataset and save
  it to disk;
* ``list-experiments`` — show every reproducible paper artefact and its
  benchmark target;
* ``run-experiment`` — run one experiment (table/figure) and print the rows
  the paper reports, optionally writing the raw output as JSON;
* ``fit`` — prefit expansion methods and persist the fitted state into an
  artifact store (:mod:`repro.store`) so later serves warm-start; with
  ``--substrates-only`` only the shared substrates (:mod:`repro.substrate`)
  are fitted and persisted, so every later method fit skips them;
* ``store ls`` / ``store gc`` — inspect and garbage-collect the artifact
  store: ``ls`` lists method artifacts *and* content-addressed substrate
  entries with their back-references (``--human`` for readable sizes), and
  ``gc`` is reference-aware (a substrate is never collected while a method
  manifest references it, orphans are);
* ``serve`` — start the online expansion service (:mod:`repro.serve`): the
  versioned v1 JSON/HTTP API (``/v1/expand``, one query per request,
  ``/v1/methods``, ``/v1/stats``, ``/v1/healthz``, and ``/v1/fits``, which
  blocks until a method is resident) over an expander registry that fits
  each method once, on first use or ``--warm``, and keeps it for the life of
  the process, with an LRU result cache and optional admission control;
  with ``--store`` fits restore from / persist to disk and ``--access-log``
  emits one structured JSON line per request;
* ``cluster serve`` — the horizontally scaled deployment
  (:mod:`repro.cluster`): N ``serve`` worker subprocesses (health-checked,
  restarted with backoff) behind a routing gateway that consistent-hashes
  method-affine traffic across them, aggregates
  ``/v1/stats``/``/v1/healthz``, and fails over when a worker dies; with a
  shared ``--store`` the cross-process fit lock makes every cold fit
  single-payer across the fleet;
* ``cluster top`` — a ``top(1)``-style refreshing terminal view of a running
  gateway's fleet ``GET /v1/stats``: fleet health, per-shard traffic,
  error and latency rollups, cache hit rates, substrate and method
  residency, and per-tenant requests and compute seconds;
* ``query`` — submit one expansion request through the
  :class:`~repro.client.ExpansionClient` SDK and print the ranked entities:
  in-process by default, or against a running server with ``--url``.

Examples::

    python -m repro.cli build-dataset --profile small --output ./ultrawiki
    python -m repro.cli list-experiments
    python -m repro.cli run-experiment table2 --profile tiny --max-queries 12
    python -m repro.cli fit --dataset ./ultrawiki --store ./artifacts --methods retexpan
    python -m repro.cli store ls --store ./artifacts
    python -m repro.cli serve --dataset ./ultrawiki --store ./artifacts --port 8080
    python -m repro.cli cluster serve --dataset ./ultrawiki --store ./artifacts \
        --workers 4 --port 8080 --worker-base-port 8100
    python -m repro.cli cluster top --url http://127.0.0.1:8080
    python -m repro.cli query --dataset ./ultrawiki --method retexpan --top-k 20
    python -m repro.cli query --url http://127.0.0.1:8080 --method retexpan \
        --query-id <id> --top-k 20

Serving workflow: ``build-dataset`` once, ``fit`` to persist the expensive
model fits, then ``serve --store`` against the same directories — the
service restores every prefitted method from disk instead of re-training it,
and POST ``{"method": "retexpan", "query_id": ...}`` to ``/v1/expand``
answers immediately (or make any method resident first with ``POST
/v1/fits``, which answers once it is); restore/write-through counters
appear under ``/v1/stats``.

A serving process writes only to its terminal and its artifact store:
``--access-log`` and ``--slow-query-ms`` lines go to stderr (a ``cluster
serve`` worker's stderr is the cluster terminal's), per-tenant usage is
read from ``/v1/stats`` and ``/v1/metrics``, and ``store gc`` is the one
way to collect stale artifacts.
"""

from __future__ import annotations

import argparse
import logging
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

from repro.client import ExpansionClient
from repro.cluster import ClusterGateway, WorkerPool, WorkerSpec
from repro.config import ClusterConfig, DatasetConfig, ServiceConfig
from repro.dataset.analysis import compute_statistics
from repro.dataset.builder import build_dataset
from repro.dataset.ultrawiki import UltraWikiDataset
from repro.exceptions import ReproError, TransportError
from repro.experiments.registry import EXPERIMENTS, experiment_by_id
from repro.experiments.runner import ExperimentContext
from repro.serve import (
    ExpanderRegistry,
    ExpandOptions,
    ExpansionHTTPServer,
    ExpansionService,
)
from repro.cluster.gateway import gateway_access_logger
from repro.obs import slow_query_logger
from repro.obs.top import render_top
from repro.serve.server import access_logger
from repro.store import ArtifactStore
from repro.utils.iox import to_jsonable, write_json

_PROFILES = {
    "tiny": DatasetConfig.tiny,
    "small": DatasetConfig.small,
    "default": DatasetConfig.default,
}


def _dataset_config(profile: str, seed: int) -> DatasetConfig:
    try:
        factory = _PROFILES[profile]
    except KeyError:
        raise SystemExit(f"unknown profile {profile!r}; choose from {sorted(_PROFILES)}")
    return factory(seed=seed)


def _cmd_build_dataset(args: argparse.Namespace) -> int:
    config = _dataset_config(args.profile, args.seed)
    print(f"Building dataset (profile={args.profile}, seed={args.seed}) ...")
    dataset = build_dataset(config)
    stats = compute_statistics(dataset)
    print(
        f"  entities={stats.num_entities} sentences={stats.num_sentences} "
        f"ultra_classes={stats.num_ultra_classes} queries={stats.num_queries}"
    )
    if args.output:
        dataset.save(args.output)
        print(f"  saved to {Path(args.output).resolve()}")
    return 0


def _cmd_list_experiments(args: argparse.Namespace) -> int:
    width = max(len(spec.experiment_id) for spec in EXPERIMENTS)
    for spec in EXPERIMENTS:
        print(f"{spec.experiment_id.ljust(width)}  {spec.title}  [{spec.bench_target}]")
    return 0


def _cmd_run_experiment(args: argparse.Namespace) -> int:
    spec = experiment_by_id(args.experiment_id)
    config = _dataset_config(args.profile, args.seed)
    print(f"Running {spec.experiment_id}: {spec.title}")
    print(f"  profile={args.profile} max_queries={args.max_queries} "
          f"genexpan_max_queries={args.genexpan_max_queries}")
    context = ExperimentContext(
        dataset_config=config,
        max_queries=args.max_queries,
        genexpan_max_queries=args.genexpan_max_queries,
        seed=args.seed,
    )
    output = spec.runner(context)
    print()
    print(output.get("text", "(no text output)"))
    if args.json:
        serialisable = {
            key: value for key, value in output.items() if key != "text"
        }
        write_json(args.json, to_jsonable(serialisable))
        print(f"\nwrote JSON output to {Path(args.json).resolve()}")
    return 0


def _load_or_build_dataset(args: argparse.Namespace) -> UltraWikiDataset:
    """A dataset from ``--dataset DIR`` (saved) or ``--profile`` (built)."""
    if args.dataset:
        print(f"Loading dataset from {Path(args.dataset).resolve()} ...")
        return UltraWikiDataset.load(args.dataset)
    print(f"Building dataset (profile={args.profile}, seed={args.seed}) ...")
    return build_dataset(_dataset_config(args.profile, args.seed))


def _service_config(args: argparse.Namespace) -> ServiceConfig:
    """The worker config of ``serve`` / ``cluster serve`` arguments."""
    config = ServiceConfig(
        cache_capacity=args.cache_capacity,
        host=args.host,
        port=args.port,
        store_dir=args.store,
        access_log=args.access_log,
        slow_query_ms=args.slow_query_ms,
        keyfile=args.keyfile,
        default_quota=args.default_quota,
        admission_max_concurrent=args.admission_max_concurrent,
        admission_queue_depth=args.admission_queue_depth,
        admission_timeout_seconds=args.admission_timeout,
    )
    config.validate()
    return config


def _attach_json_log_handler(logger: logging.Logger) -> None:
    """Send a structured JSON-lines logger to stderr (once)."""
    if logger.handlers:
        return
    handler = logging.StreamHandler()
    handler.setFormatter(logging.Formatter("%(message)s"))
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)


def _fit_substrates(registry: "ExpanderRegistry", store: ArtifactStore, force: bool) -> int:
    """Prefit and persist only the shared substrates (no method artifacts)."""
    resources = registry.resources
    provider = resources.provider
    for kind, params in resources.default_substrate_specs():
        if force:
            # Honour --force for substrates too: drop the stored artifact so
            # the get below pays (and republishes) a fresh fit.
            store.evict_substrate(
                kind, provider.key(kind, params).content_hash, force=True
            )
        before = provider.stats()
        started = time.perf_counter()
        provider.get(kind, params)
        elapsed = time.perf_counter() - started
        after = provider.stats()
        if after["fits"] > before["fits"]:
            action = "fitted + persisted"
        elif after["restores"] > before["restores"]:
            action = "restored"
        else:
            action = "already resident"
        content_hash = provider.key(kind, params).content_hash
        print(f"  {kind:26s} {content_hash}  {action} in {elapsed:.2f}s")
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    """Prefit methods and persist their artifacts (the warm-restart producer)."""
    dataset = _load_or_build_dataset(args)
    store = ArtifactStore(args.store)
    registry = ExpanderRegistry(dataset, store=store)
    fingerprint = dataset.fingerprint()
    print(f"Artifact store: {Path(args.store).resolve()} (fingerprint {fingerprint})")
    if args.substrates_only:
        _fit_substrates(registry, store, args.force)
    else:
        methods = args.methods or registry.methods()
        for method in methods:
            registry.ensure_known(method)
            name = method.strip().lower()  # registry stats are keyed normalized
            if args.force:
                store.evict(name, fingerprint)
            started = time.perf_counter()
            outcome = registry.fit(name)
            elapsed = time.perf_counter() - started
            action = "fitted + persisted" if outcome == "fitted" else outcome
            print(f"  {name:12s} {action} in {elapsed:.2f}s")
    store_stats = store.stats()
    print(
        f"store now holds {store_stats['artifacts']} artifact(s) "
        f"({store_stats['total_bytes'] / 1e6:.1f} MB) + "
        f"{store_stats['substrates']} substrate(s) "
        f"({store_stats['substrate_bytes'] / 1e6:.1f} MB)"
    )
    return 0


def _format_bytes(num_bytes: int, human: bool) -> str:
    """``1234567`` -> ``'1.2MB'`` either way; --human scales the unit."""
    if not human:
        return f"{num_bytes / 1e6:.1f}MB"
    value = float(num_bytes)
    for unit in ("B", "kB", "MB", "GB", "TB"):
        if value < 1000.0 or unit == "TB":
            if unit == "B":
                return f"{int(value)}{unit}"
            return f"{value:.1f}{unit}"
        value /= 1000.0
    return f"{value:.1f}TB"  # pragma: no cover - unreachable


def _cmd_store_ls(args: argparse.Namespace) -> int:
    store = ArtifactStore(args.store)
    infos = store.ls()
    substrates = store.ls_substrates()
    if not infos and not substrates:
        print(f"no artifacts under {Path(args.store).resolve()}")
        return 0
    human = getattr(args, "human", False)
    if infos:
        print(f"{'METHOD':<14}{'FINGERPRINT':<18}{'SIZE':>10}  {'AGE':>8}  CLASS")
        for info in infos:
            age_h = info.age_seconds / 3600.0
            print(
                f"{info.method:<14}{info.fingerprint:<18}"
                f"{_format_bytes(info.total_bytes, human):>10}  "
                f"{age_h:>7.1f}h  {info.expander_class}"
            )
    if substrates:
        references = store.substrate_references()
        print(f"{'SUBSTRATE':<26}{'HASH':<18}{'SIZE':>10}  {'AGE':>8}  REFS")
        for info in substrates:
            age_h = info.age_seconds / 3600.0
            referencing = references.get((info.kind, info.content_hash), [])
            methods = sorted({label.split("/", 1)[0] for label in referencing})
            refs = ",".join(methods) if methods else "-"
            print(
                f"{info.kind:<26}{info.content_hash:<18}"
                f"{_format_bytes(info.total_bytes, human):>10}  "
                f"{age_h:>7.1f}h  {refs}"
            )
    stats = store.stats()
    print(
        f"total: {stats['artifacts']} artifact(s) "
        f"({_format_bytes(stats['total_bytes'], human)}) + "
        f"{stats['substrates']} substrate(s) "
        f"({_format_bytes(stats['substrate_bytes'], human)})"
    )
    return 0


def _cmd_store_gc(args: argparse.Namespace) -> int:
    store = ArtifactStore(args.store)
    keep: set[str] | None = None
    if args.keep_dataset:
        dataset = UltraWikiDataset.load(args.keep_dataset)
        keep = {dataset.fingerprint()}
    if args.keep_fingerprint:
        keep = (keep or set()) | set(args.keep_fingerprint)
    max_age = args.max_age_hours * 3600.0 if args.max_age_hours is not None else None
    if keep is None and max_age is None:
        print("no --keep-dataset/--keep-fingerprint/--max-age-hours filter; "
              "cleaning the staging area only")
    removed = store.gc(keep_fingerprints=keep, max_age_seconds=max_age)
    for info in removed:
        # gc returns method artifacts and (orphaned) substrate artifacts.
        if hasattr(info, "method"):
            label, key = info.method, info.fingerprint
        else:
            label, key = f"substrate:{info.kind}", info.content_hash
        print(f"  removed {label}/{key} ({info.total_bytes / 1e6:.1f} MB)")
    stats = store.stats()
    print(
        f"removed {len(removed)} artifact(s); {stats['artifacts']} artifact(s) + "
        f"{stats['substrates']} substrate(s) remain "
        f"({(stats['total_bytes'] + stats['substrate_bytes']) / 1e6:.1f} MB)"
    )
    return 0


def _install_sigterm_handler() -> None:
    """Turn SIGTERM into KeyboardInterrupt so ``finally:`` shutdown blocks
    run and the process exits 0 — the clean-stop contract the cluster
    worker pool relies on when it terminates workers."""

    def _on_sigterm(_signum, _frame):
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:
        # not the main thread (embedded use); graceful stop is best-effort.
        pass


def _cmd_serve(args: argparse.Namespace) -> int:
    dataset = _load_or_build_dataset(args)
    config = _service_config(args)
    if config.access_log:
        _attach_json_log_handler(access_logger)
    if config.slow_query_ms is not None:
        _attach_json_log_handler(slow_query_logger)
    service = ExpansionService(dataset, config=config)
    if args.store:
        print(f"Artifact store: {Path(args.store).resolve()} "
              f"(prefitted methods restore without refitting)")
    if args.warm:
        print(f"Warming up {args.warm} ...")
        service.warm_up(args.warm)
    server = ExpansionHTTPServer(service)
    host, port = server.address
    print(f"Serving expansion API v1 on http://{host}:{port}")
    print(
        "  endpoints: POST /v1/expand · POST /v1/fits"
    )
    print(
        "             GET /v1/methods · GET /v1/stats · GET /v1/metrics · "
        "GET /v1/healthz"
    )
    if service.gate is not None:
        anonymous = "allowed" if (
            config.keyfile is None or service.gate.directory.allows_anonymous
        ) else "rejected (401)"
        print(
            f"  front door: keyfile={config.keyfile or 'none'} "
            f"default-quota={config.default_quota or 'none'} "
            f"anonymous={anonymous}"
        )
    if service.admission is not None:
        print(
            f"  admission: {config.admission_max_concurrent} concurrent, "
            f"queue depth {config.admission_queue_depth}, shed after "
            f"{config.admission_timeout_seconds:g}s (retryable 503)"
        )
    _install_sigterm_handler()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.shutdown()
    return 0


def worker_command(
    dataset_dir: str, host: str, port: int, args: argparse.Namespace
) -> tuple[str, ...]:
    """The argv one cluster worker is spawned with: this same CLI's ``serve``
    verb against the shared saved dataset and (optionally) shared store."""
    command = [
        sys.executable,
        "-m",
        "repro.cli",
        "serve",
        "--dataset",
        dataset_dir,
        "--host",
        host,
        "--port",
        str(port),
        "--cache-capacity",
        str(args.cache_capacity),
    ]
    if args.store:
        command += ["--store", args.store]
    if getattr(args, "warm", None):
        command += ["--warm", *args.warm]
    if getattr(args, "access_log", False):
        command.append("--access-log")
    if getattr(args, "slow_query_ms", None) is not None:
        command += ["--slow-query-ms", str(args.slow_query_ms)]
    # Admission control is per-shard, so workers get it; auth + quota are NOT
    # forwarded — the gateway enforces them once at the front door.
    if getattr(args, "admission_max_concurrent", None) is not None:
        command += [
            "--admission-max-concurrent",
            str(args.admission_max_concurrent),
            "--admission-queue-depth",
            str(args.admission_queue_depth),
            "--admission-timeout",
            str(args.admission_timeout),
        ]
    return tuple(command)


def _cmd_cluster_serve(args: argparse.Namespace) -> int:
    """Gateway + N worker subprocesses over one saved dataset and store."""
    scratch_dir = None
    if args.dataset:
        dataset_dir = str(Path(args.dataset).resolve())
        dataset = UltraWikiDataset.load(dataset_dir)
        print(f"Loaded dataset from {dataset_dir}")
    else:
        # Workers load the dataset from disk, so a profile-built dataset is
        # saved once to a scratch directory every worker shares (removed
        # again at shutdown).
        print(f"Building dataset (profile={args.profile}, seed={args.seed}) ...")
        dataset = build_dataset(_dataset_config(args.profile, args.seed))
        scratch_dir = dataset_dir = tempfile.mkdtemp(prefix="repro-cluster-dataset-")
        dataset.save(dataset_dir)
        print(f"  saved shared dataset to {dataset_dir}")
    fingerprint = dataset.fingerprint()

    # Workers take their settings from their command line (worker_command);
    # checking them here fails a bad inherited flag before any worker starts.
    _service_config(args)
    config = ClusterConfig(
        num_workers=args.workers,
        worker_host=args.worker_host,
        worker_base_port=args.worker_base_port,
        gateway_host=args.host,
        gateway_port=args.port,
        gateway_access_log=getattr(args, "gateway_access_log", False),
        keyfile=getattr(args, "keyfile", None),
        default_quota=getattr(args, "default_quota", None),
    )
    config.validate()
    if config.gateway_access_log:
        _attach_json_log_handler(gateway_access_logger)

    specs = [
        WorkerSpec(
            worker_id=f"worker-{index}",
            url=config.worker_url(index),
            command=worker_command(
                dataset_dir, config.worker_host, config.worker_port(index), args
            ),
        )
        for index in range(config.num_workers)
    ]
    pool = WorkerPool(specs)
    print(f"Starting {config.num_workers} worker(s) ...")
    _install_sigterm_handler()
    try:
        pool.start(wait_healthy=True, timeout=args.startup_timeout)
        for endpoint in pool.endpoints():
            print(f"  {endpoint.worker_id}: {endpoint.url}")
        gateway = ClusterGateway(
            [(spec.worker_id, spec.url) for spec in specs],
            config=config,
            fingerprint=fingerprint,
        )
        host, port = gateway.address
        print(f"Gateway serving expansion API v1 on http://{host}:{port}")
        print(
            f"  routing: consistent hash of (method, {fingerprint}) over "
            f"{config.num_workers} shard(s)"
        )
        print(
            "  /v1/stats and /v1/healthz aggregate the whole fleet; "
            "`repro cluster top` renders /v1/stats"
        )
        if gateway.gate is not None:
            print(
                f"  front door: keyfile={config.keyfile or 'none'} "
                f"default-quota={config.default_quota or 'none'} "
                "(auth + quotas enforced at the gateway; workers run open "
                "behind it)"
            )
        try:
            gateway.serve_forever()
        except KeyboardInterrupt:
            print("\nshutting down cluster")
        finally:
            gateway.shutdown()
    finally:
        pool.stop()
        if scratch_dir is not None:
            shutil.rmtree(scratch_dir, ignore_errors=True)
    return 0


def _cmd_cluster_top(args: argparse.Namespace) -> int:
    """A refreshing terminal view of a gateway's fleet ``GET /v1/stats``
    (fleet health, per-shard traffic and latency, cache hit rates, resident
    methods, tenants): one read per refresh."""
    with ExpansionClient.connect(
        args.url, api_key=getattr(args, "api_key", None)
    ) as client:
        try:
            while True:
                stats = client.stats()
                if "workers" not in stats or "gateway" not in stats:
                    print(f"not a gateway: {args.url}", file=sys.stderr)
                    return 1
                frame = render_top(stats)
                if not args.once:
                    # clear screen + home, like watch(1)/top(1).
                    print("\x1b[2J\x1b[H", end="")
                print(frame)
                if args.once:
                    return 0
                time.sleep(args.interval)
        except KeyboardInterrupt:
            print()
        except TransportError:
            # A down gateway is an expected condition for a monitoring
            # command, not a crash: one clean line, exit code 1.
            print(f"gateway unreachable at {args.url}", file=sys.stderr)
            return 1
        except ReproError as exc:
            # an API error (missing or unknown key, throttled, a route the
            # server lacks): the same one line, never a traceback.
            print(f"cluster top: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
    return 0


def _positive_seconds(text: str) -> float:
    """argparse type for a refresh interval: a finite number above 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be above 0 seconds, got {text}")
    return value


def _print_expand_response(response, args: argparse.Namespace) -> None:
    print(
        f"{response.method} on {response.query_id}: top-{response.top_k} "
        f"(cached={response.cached}, {response.latency_ms:.1f} ms)"
    )
    for rank, item in enumerate(response.ranking, start=response.offset + 1):
        print(f"  {rank:>3}. {item.name}  (id={item.entity_id}, score={item.score:.4f})")
    if args.json:
        write_json(args.json, to_jsonable(response))
        print(f"wrote JSON response to {Path(args.json).resolve()}")


def _cmd_query(args: argparse.Namespace) -> int:
    """One expansion through the client SDK: HTTP with --url, else in-process."""
    options = ExpandOptions(top_k=args.top_k, offset=args.offset, limit=args.limit)
    if args.url:
        if not args.query_id:
            raise SystemExit("--url mode needs an explicit --query-id")
        with ExpansionClient.connect(
            args.url, api_key=getattr(args, "api_key", None)
        ) as client:
            response = client.expand(
                args.method, query_id=args.query_id, options=options
            )
            _print_expand_response(response, args)
        return 0
    dataset = _load_or_build_dataset(args)
    config = ServiceConfig(store_dir=args.store)
    with ExpansionService(dataset, config=config) as service:
        client = ExpansionClient.in_process(service)
        response = client.expand(
            args.method,
            query_id=args.query_id or dataset.queries[0].query_id,
            options=options,
        )
        _print_expand_response(response, args)
    return 0


def _add_dataset_source_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", default=None, help="directory of a saved dataset")
    parser.add_argument("--profile", default="small", choices=sorted(_PROFILES))
    parser.add_argument("--seed", type=int, default=13)


def _add_service_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache-capacity", type=int, default=ServiceConfig.cache_capacity)
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="artifact store directory: restore prefitted expanders from it "
        "and persist fresh fits into it",
    )
    parser.add_argument(
        "--slow-query-ms",
        type=float,
        default=None,
        metavar="MS",
        help="log one structured JSON line (with per-stage timings) to "
        "stderr for every expansion slower than this many milliseconds",
    )
    parser.add_argument(
        "--keyfile",
        default=None,
        metavar="FILE",
        help="JSON tenant keyfile enabling the multi-tenant front door "
        "(API keys, per-tenant quotas); re-statted at most once a second "
        "and hot-reloaded on change",
    )
    parser.add_argument(
        "--default-quota",
        default=None,
        metavar="RATE[:BURST]",
        help="token-bucket quota applied to every tenant without an explicit "
        "one (and to anonymous traffic when no keyfile is given), "
        "e.g. 50 or 50:100 requests/second",
    )
    parser.add_argument(
        "--admission-max-concurrent",
        type=int,
        default=None,
        metavar="N",
        help="cap concurrent expansions per worker; excess requests queue "
        "in two priority lanes (interactive expands preempt fits) and shed "
        "with a retryable 503 past --admission-queue-depth",
    )
    parser.add_argument(
        "--admission-queue-depth",
        type=int,
        default=ServiceConfig.admission_queue_depth,
        metavar="N",
        help="waiting requests allowed before load shedding kicks in",
    )
    parser.add_argument(
        "--admission-timeout",
        type=float,
        default=ServiceConfig.admission_timeout_seconds,
        metavar="SECONDS",
        help="longest a sheddable request waits for an admission slot",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="UltraWiki (Ultra-ESE) reproduction command-line interface",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    build = subparsers.add_parser("build-dataset", help="construct and optionally save a dataset")
    build.add_argument("--profile", default="small", choices=sorted(_PROFILES))
    build.add_argument("--seed", type=int, default=13)
    build.add_argument("--output", default=None, help="directory to save the dataset to")
    build.set_defaults(handler=_cmd_build_dataset)

    lister = subparsers.add_parser("list-experiments", help="list reproducible paper artefacts")
    lister.set_defaults(handler=_cmd_list_experiments)

    run = subparsers.add_parser("run-experiment", help="run one table/figure experiment")
    run.add_argument("experiment_id", help="e.g. table2, figure4")
    run.add_argument("--profile", default="small", choices=sorted(_PROFILES))
    run.add_argument("--seed", type=int, default=13)
    run.add_argument("--max-queries", type=int, default=40)
    run.add_argument("--genexpan-max-queries", type=int, default=20)
    run.add_argument("--json", default=None, help="path to write the raw output as JSON")
    run.set_defaults(handler=_cmd_run_experiment)

    fit = subparsers.add_parser(
        "fit", help="prefit methods and persist their artifacts for warm serving"
    )
    _add_dataset_source_arguments(fit)
    fit.add_argument("--store", required=True, metavar="DIR", help="artifact store directory")
    fit.add_argument(
        "--methods",
        nargs="*",
        default=[],
        metavar="METHOD",
        help="methods to prefit (default: every registered method)",
    )
    fit.add_argument(
        "--force", action="store_true", help="refit even when an artifact already exists"
    )
    fit.add_argument(
        "--substrates-only",
        action="store_true",
        help="prefit and persist only the shared substrates (co-occurrence "
        "embeddings, entity representations, causal LM) so later method "
        "fits — on this host or any worker sharing the store — skip them",
    )
    fit.set_defaults(handler=_cmd_fit)

    store = subparsers.add_parser("store", help="inspect or clean the artifact store")
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_ls = store_sub.add_parser(
        "ls", help="list persisted artifacts and shared substrates"
    )
    store_ls.add_argument("--store", required=True, metavar="DIR")
    store_ls.add_argument(
        "--human",
        action="store_true",
        help="human-readable sizes and per-substrate back-references",
    )
    store_ls.set_defaults(handler=_cmd_store_ls)
    store_gc = store_sub.add_parser("gc", help="remove stale artifacts")
    store_gc.add_argument("--store", required=True, metavar="DIR")
    store_gc.add_argument(
        "--keep-dataset",
        default=None,
        metavar="DIR",
        help="keep only artifacts matching this saved dataset's fingerprint",
    )
    store_gc.add_argument(
        "--keep-fingerprint",
        action="append",
        default=[],
        metavar="FP",
        help="additional fingerprint to keep (repeatable)",
    )
    store_gc.add_argument(
        "--max-age-hours",
        type=float,
        default=None,
        help="also remove artifacts older than this many hours",
    )
    store_gc.set_defaults(handler=_cmd_store_gc)

    serve = subparsers.add_parser("serve", help="start the online expansion HTTP service")
    _add_dataset_source_arguments(serve)
    _add_service_arguments(serve)
    serve.add_argument("--host", default=ServiceConfig.host)
    serve.add_argument("--port", type=int, default=ServiceConfig.port)
    serve.add_argument(
        "--warm",
        nargs="*",
        default=[],
        metavar="METHOD",
        help="methods to fit before accepting traffic (e.g. retexpan); every "
        "method is fitted once and kept for the life of the process",
    )
    serve.add_argument(
        "--access-log",
        action="store_true",
        help="emit one structured JSON access-log line per request",
    )
    serve.set_defaults(handler=_cmd_serve)

    cluster = subparsers.add_parser(
        "cluster", help="multi-worker sharded serving behind a routing gateway"
    )
    cluster_sub = cluster.add_subparsers(dest="cluster_command", required=True)
    cluster_serve = cluster_sub.add_parser(
        "serve",
        help="spawn N serving workers and route v1 traffic through a gateway",
    )
    _add_dataset_source_arguments(cluster_serve)
    _add_service_arguments(cluster_serve)
    cluster_serve.add_argument(
        "--workers", type=int, default=ClusterConfig.num_workers,
        help="number of serving worker processes",
    )
    cluster_serve.add_argument("--worker-host", default=ClusterConfig.worker_host)
    cluster_serve.add_argument(
        "--worker-base-port", type=int, default=ClusterConfig.worker_base_port,
        help="workers listen on consecutive ports starting here",
    )
    cluster_serve.add_argument(
        "--host", default=ClusterConfig.gateway_host, help="gateway bind address"
    )
    cluster_serve.add_argument(
        "--port", type=int, default=ClusterConfig.gateway_port,
        help="gateway port (0 picks an ephemeral port)",
    )
    cluster_serve.add_argument(
        "--warm", nargs="*", default=[], metavar="METHOD",
        help="methods each worker fits before accepting traffic; a worker "
        "keeps every method it fits for its whole life",
    )
    cluster_serve.add_argument(
        "--access-log", action="store_true",
        help="workers emit structured JSON access-log lines",
    )
    cluster_serve.add_argument(
        "--gateway-access-log", action="store_true",
        help="the gateway emits one structured JSON access-log line per "
        "request (workers keep their own --access-log)",
    )
    cluster_serve.add_argument(
        "--startup-timeout", type=float, default=120.0,
        help="seconds to wait for every worker's first healthy probe",
    )
    cluster_serve.set_defaults(handler=_cmd_cluster_serve)

    cluster_top = cluster_sub.add_parser(
        "top",
        help="live terminal view of a running gateway's /v1/stats",
    )
    cluster_top.add_argument(
        "--url", required=True, metavar="URL", help="gateway base URL"
    )
    cluster_top.add_argument(
        "--interval", type=_positive_seconds, default=2.0,
        help="seconds between refreshes (above 0)",
    )
    cluster_top.add_argument(
        "--once", action="store_true",
        help="render a single frame and exit (no screen clearing)",
    )
    cluster_top.add_argument(
        "--api-key", default=None, metavar="KEY",
        help="API key for a gateway running the multi-tenant front door",
    )
    cluster_top.set_defaults(handler=_cmd_cluster_top)

    query = subparsers.add_parser(
        "query", help="run one expansion request through the client SDK"
    )
    _add_dataset_source_arguments(query)
    query.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="artifact store the in-process service restores prefitted "
        "expanders from and persists fresh fits into",
    )
    query.add_argument(
        "--url",
        default=None,
        metavar="URL",
        help="query a running server over HTTP instead of serving in-process "
        "(requires --query-id; the dataset flags and --store are ignored)",
    )
    query.add_argument("--method", default="retexpan", help="e.g. retexpan, genexpan, setexpan")
    query.add_argument("--query-id", default=None, help="dataset query id (default: first)")
    query.add_argument("--top-k", type=int, default=20)
    query.add_argument("--offset", type=int, default=0, help="pagination offset into the ranking")
    query.add_argument("--limit", type=int, default=None, help="page size (default: the rest)")
    query.add_argument("--json", default=None, help="path to write the response as JSON")
    query.add_argument(
        "--api-key", default=None, metavar="KEY",
        help="API key sent with --url against a server running the "
        "multi-tenant front door",
    )
    query.set_defaults(handler=_cmd_query)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
