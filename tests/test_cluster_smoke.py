"""End-to-end cluster smoke: real ``repro serve`` subprocesses.

This is the deployment shape ``repro cluster serve`` assembles — a gateway
in front of N worker *processes* loading one saved dataset — boiled down to
the cheapest real configuration: 2 workers, the tiny dataset, the fast
``setexpan`` method.  It proves the pieces compose across process
boundaries: workers boot and pass health checks, the gateway routes each
expand and aggregates fleet reads through real sockets, answers match a
single-process service, and SIGTERM shuts every worker down cleanly (exit
code 0).  Two
``repro fit --substrates-only`` processes racing on one fresh store show
that the fit lock makes each substrate fit single-payer across processes.

CI runs this file as its cluster smoke job.
"""

from __future__ import annotations

import dataclasses
import socket
import subprocess
import sys

import pytest

from repro.cli import _service_config, build_parser, worker_command
from repro.client import ExpansionClient
from repro.cluster import ClusterGateway, WorkerPool, WorkerSpec
from repro.config import ClusterConfig, ServiceConfig
from repro.serve import ExpansionService

#: the method driven through the gateway: fits in milliseconds, so each
#: worker subprocess stays cheap even on a cold start.
METHOD = "setexpan"


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.fixture(scope="module")
def dataset_dir(tiny_dataset, tmp_path_factory):
    path = tmp_path_factory.mktemp("cluster-dataset")
    tiny_dataset.save(path)
    return str(path)


@pytest.fixture(scope="module")
def cluster(dataset_dir, tiny_dataset):
    """2 real ``repro serve`` subprocesses behind a gateway."""
    parser = build_parser()
    specs = []
    for index in range(2):
        port = _free_port()
        args = parser.parse_args(
            ["serve", "--dataset", dataset_dir, "--port", str(port)]
        )
        specs.append(
            WorkerSpec(
                worker_id=f"worker-{index}",
                url=f"http://127.0.0.1:{port}",
                command=worker_command(dataset_dir, "127.0.0.1", port, args),
            )
        )
    pool = WorkerPool(specs, health_interval=0.2, health_timeout=2.0)
    pool.start(wait_healthy=True, timeout=90.0)
    gateway = ClusterGateway(
        [(spec.worker_id, spec.url) for spec in specs],
        config=ClusterConfig(proxy_timeout_seconds=60.0),
        fingerprint=tiny_dataset.fingerprint(),
        port=0,
    ).start()
    yield gateway, pool
    gateway.shutdown()
    pool.stop()


def test_expand_and_batch_through_the_gateway(cluster, tiny_dataset):
    gateway, pool = cluster
    assert pool.healthy_count() == 2
    queries = tiny_dataset.queries[:3]

    # single-process reference for the same requests
    with ExpansionService(
        tiny_dataset, config=ServiceConfig(port=0)
    ) as single:
        reference_client = ExpansionClient.in_process(single)
        references = {
            query.query_id: reference_client.expand(
                METHOD, query_id=query.query_id, top_k=10, use_cache=False
            ).entity_ids()
            for query in queries
        }

    with ExpansionClient.connect(gateway.url, timeout=60.0) as client:
        assert client.healthz()["status"] == "ok"

        # a batch of queries is one expand request each.
        for query in queries:
            response = client.expand(
                METHOD, query_id=query.query_id, top_k=10, use_cache=False
            )
            assert response.entity_ids() == references[query.query_id]

        stats = client.stats()
        assert stats["cluster"]["requests"] >= len(queries)
        assert stats["gateway"]["proxied"] >= len(queries)


def test_sigterm_shutdown_is_clean(dataset_dir):
    """Workers terminated by the pool exit 0 (the serve CLI handles SIGTERM)."""
    port = _free_port()
    parser = build_parser()
    args = parser.parse_args(["serve", "--dataset", dataset_dir, "--port", str(port)])
    spec = WorkerSpec(
        worker_id="solo",
        url=f"http://127.0.0.1:{port}",
        command=worker_command(dataset_dir, "127.0.0.1", port, args),
    )
    pool = WorkerPool([spec], health_interval=0.2)
    pool.start(wait_healthy=True, timeout=90.0)
    pool.stop()
    stats = pool.stats()["workers"]["solo"]
    assert stats["state"] == "stopped"
    assert stats["exit_codes"][-1] == 0, f"unclean worker exit: {stats}"


def test_worker_command_points_at_this_interpreter(dataset_dir, tmp_path):
    parser = build_parser()
    args = parser.parse_args(["serve", "--dataset", dataset_dir, "--port", "0"])
    command = worker_command(dataset_dir, "127.0.0.1", 8123, args)
    assert command[0] == sys.executable
    assert command[1:4] == ("-m", "repro.cli", "serve")
    assert "--port" in command and "8123" in command

    # Round trip: every flag a worker inherits, set to a non-default value,
    # must come back out of the worker's own argv parse unchanged.
    cluster_args = parser.parse_args(
        [
            "cluster", "serve", "--dataset", dataset_dir,
            "--worker-host", "127.0.0.2",
            "--cache-capacity", "7",
            "--store", str(tmp_path / "store"),
            "--warm", "setexpan", "retexpan",
            "--access-log",
            "--slow-query-ms", "25",
            "--keyfile", str(tmp_path / "keys.json"), "--default-quota", "5:10",
            "--admission-max-concurrent", "3", "--admission-queue-depth", "5",
            "--admission-timeout", "2.5",
        ]
    )
    command = worker_command(dataset_dir, cluster_args.worker_host, 8123, cluster_args)
    worker_args = parser.parse_args(list(command[3:]))
    assert worker_args.dataset == dataset_dir
    assert worker_args.warm == ["setexpan", "retexpan"]
    cluster_config = _service_config(cluster_args)
    # The documented differences: workers bind their own host and port and
    # leave auth and quotas to the gateway.
    assert _service_config(worker_args) == dataclasses.replace(
        cluster_config,
        host="127.0.0.2",
        port=8123,
        keyfile=None,
        default_quota=None,
    )


def test_two_fit_processes_pay_each_substrate_once(tmp_path):
    """Two processes prefit the substrates on one fresh store at once:
    between them, each of the 3 substrates is fitted once and restored once."""
    command = [
        sys.executable, "-m", "repro.cli", "fit", "--substrates-only",
        "--profile", "tiny", "--store", str(tmp_path / "store"),
    ]
    processes = [
        subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
        )
        for _ in range(2)
    ]
    try:
        outputs = [process.communicate(timeout=180)[0] for process in processes]
    finally:
        for process in processes:
            process.kill()
            process.wait()
    assert [process.returncode for process in processes] == [0, 0], outputs
    text = "".join(outputs)
    assert text.count("fitted + persisted") == 3, text
    assert text.count("restored") == 3, text
