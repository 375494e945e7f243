"""Tests for the command-line interface."""

import argparse
import json
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_build_dataset_defaults(self):
        args = build_parser().parse_args(["build-dataset"])
        assert args.profile == "small"
        assert args.seed == 13
        assert args.output is None

    def test_run_experiment_arguments(self):
        args = build_parser().parse_args(
            ["run-experiment", "table1", "--profile", "tiny", "--max-queries", "5"]
        )
        assert args.experiment_id == "table1"
        assert args.profile == "tiny"
        assert args.max_queries == 5

    def test_unknown_profile_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["build-dataset", "--profile", "huge"])

    def test_serve_arguments(self):
        args = build_parser().parse_args(
            ["serve", "--profile", "tiny", "--port", "0", "--warm", "retexpan", "setexpan"]
        )
        assert args.profile == "tiny"
        assert args.port == 0
        assert args.warm == ["retexpan", "setexpan"]
        assert args.dataset is None

    def test_query_arguments(self):
        args = build_parser().parse_args(
            ["query", "--dataset", "./ds", "--method", "setexpan", "--top-k", "7"]
        )
        assert args.dataset == "./ds"
        assert args.method == "setexpan"
        assert args.top_k == 7
        assert args.query_id is None
        assert args.url is None
        assert args.offset == 0
        assert args.limit is None

    def test_query_takes_only_the_flags_it_uses(self, capsys):
        """In-process ``query`` answers one request and exits, and ``--url``
        mode ignores every service flag: of those, only ``--store`` is left."""
        for flag, value in (
            ("--keyfile", "/tmp/keys.json"),
            ("--default-quota", "5"),
            ("--admission-max-concurrent", "2"),
            ("--admission-queue-depth", "4"),
            ("--admission-timeout", "1"),
            ("--trace-sample-rate", "1.0"),
            ("--trace-buffer-size", "8"),
            ("--trace-sample-seed", "3"),
            ("--usage-metering", None),
            ("--slow-query-ms", "25"),
            ("--cache-capacity", "16"),
            ("--cache-ttl", "5"),
        ):
            argv = ["query", flag] if value is None else ["query", flag, value]
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(argv)
            assert excinfo.value.code == 2, flag
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        args = build_parser().parse_args(["query", "--store", "./artifacts"])
        assert args.store == "./artifacts"
        assert build_parser().parse_args(["query"]).store is None

    def test_serve_access_log_flag(self):
        args = build_parser().parse_args(["serve", "--profile", "tiny", "--access-log"])
        assert args.access_log is True
        assert build_parser().parse_args(["serve"]).access_log is False

    def test_serve_telemetry_export_arguments(self, capsys):
        """No telemetry file flags remain: slow-query lines go to stderr and
        usage totals to /v1/stats, so each former file flag is a usage error
        on every subcommand that takes the service flags (``query`` takes
        none of them but ``--store``).  Usage is always metered, the
        gateway keeps no result cache, a worker's cached results never
        expire, and no process keeps a ring of sampled traces, so their
        switches are gone too."""
        for command in (["serve"], ["cluster", "serve"]):
            for flag, value in (
                ("--usage-ledger", "/tmp/usage.jsonl"),
                ("--usage-rollup-interval-seconds", "1"),
                ("--slow-query-log", "/tmp/slow.jsonl"),
                ("--slow-query-max-bytes", "4096"),
                ("--usage-metering", None),
                ("--gateway-cache-size", "64"),
                ("--gateway-cache-ttl", "60"),
                ("--cache-ttl", "5"),
                ("--trace-sample-rate", "1.0"),
                ("--trace-buffer-size", "8"),
                ("--trace-sample-seed", "3"),
            ):
                argv = [*command, flag] if value is None else [*command, flag, value]
                with pytest.raises(SystemExit) as excinfo:
                    build_parser().parse_args(argv)
                assert excinfo.value.code == 2
                assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        args = build_parser().parse_args(["serve", "--slow-query-ms", "25"])
        assert args.slow_query_ms == 25.0

    def test_usage_report_is_gone(self, capsys):
        """Usage is metered in memory only: there is no ledger to report on."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["usage", "report", "--ledger", "/tmp/u.jsonl"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'usage'" in capsys.readouterr().err

    def test_cluster_serve_gateway_exporter_arguments(self, capsys):
        """The push-exporter flags are gone: each is a usage error."""
        for argv, flag in (
            (["serve", "--exporter", "statsd"], "--exporter"),
            (["serve", "--trace-export"], "--trace-export"),
            (["cluster", "serve", "--gateway-exporter", "json"], "--gateway-exporter"),
        ):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(argv)
            assert excinfo.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_every_flag_the_readme_names_exists(self):
        """README.md names no ``--flag`` that no subcommand defines (lines
        about ``perfbench/``, which parses its own flags, are skipped)."""
        options: set[str] = set()
        parsers = [build_parser()]
        while parsers:
            parser = parsers.pop()
            for action in parser._actions:
                options.update(action.option_strings)
                if isinstance(action, argparse._SubParsersAction):
                    parsers.extend(action.choices.values())
        readme = Path(__file__).resolve().parents[1] / "README.md"
        unknown = [
            (number, flag)
            for number, line in enumerate(readme.read_text().splitlines(), start=1)
            if "perfbench/" not in line
            for flag in re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", line)
            if flag not in options
        ]
        assert unknown == []


class TestCommands:
    def test_list_experiments(self, capsys):
        assert main(["list-experiments"]) == 0
        output = capsys.readouterr().out
        assert "table2" in output
        assert "figure7" in output
        assert "benchmarks/" in output

    def test_build_dataset_and_save(self, tmp_path, capsys):
        output_dir = tmp_path / "ds"
        code = main(
            ["build-dataset", "--profile", "tiny", "--seed", "7", "--output", str(output_dir)]
        )
        assert code == 0
        assert (output_dir / "dataset.json").exists()
        assert (output_dir / "corpus.jsonl").exists()
        assert "entities=" in capsys.readouterr().out

    def test_run_experiment_table1(self, tmp_path, capsys):
        json_path = tmp_path / "table1.json"
        code = main(
            [
                "run-experiment",
                "table1",
                "--profile",
                "tiny",
                "--max-queries",
                "6",
                "--genexpan-max-queries",
                "3",
                "--json",
                str(json_path),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "UltraWiki" in output
        payload = json.loads(json_path.read_text())
        assert payload["experiment"] == "table1"
        assert payload["rows"]

    def test_run_unknown_experiment_fails(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(["run-experiment", "table42", "--profile", "tiny"])

    def test_query_command_round_trip(self, tmp_path, capsys):
        """``repro query`` serves one request through the full service stack."""
        dataset_dir = tmp_path / "ds"
        assert main(
            ["build-dataset", "--profile", "tiny", "--seed", "7", "--output", str(dataset_dir)]
        ) == 0
        json_path = tmp_path / "response.json"
        store_dir = tmp_path / "store"
        code = main(
            [
                "query",
                "--dataset",
                str(dataset_dir),
                "--store",
                str(store_dir),
                "--method",
                "setexpan",
                "--top-k",
                "5",
                "--json",
                str(json_path),
            ]
        )
        assert code == 0
        # --store reaches the in-process service: the fit was published.
        from repro.store import ArtifactStore

        assert [info.method for info in ArtifactStore(store_dir).ls()] == ["setexpan"]
        output = capsys.readouterr().out
        assert "setexpan on" in output
        payload = json.loads(json_path.read_text())
        assert payload["method"] == "setexpan"
        assert payload["cached"] is False
        assert 1 <= len(payload["ranking"]) <= 5

    def test_query_command_over_http(self, tiny_dataset, capsys):
        """``repro query --url`` round-trips through the HTTP transport."""
        from repro.config import ServiceConfig
        from repro.core.base import Expander
        from repro.serve import ExpansionHTTPServer, ExpansionService
        from repro.types import ExpansionResult

        class StubExpander(Expander):
            name = "stub"

            def _expand(self, query, top_k):
                scored = [
                    (eid, 1.0 / (1.0 + eid)) for eid in self.candidate_ids(query)
                ]
                return ExpansionResult.from_scores(query.query_id, scored)

        service = ExpansionService(
            tiny_dataset,
            config=ServiceConfig(port=0),
            factories={"stub": lambda _resources: StubExpander()},
        )
        query_id = tiny_dataset.queries[0].query_id
        with ExpansionHTTPServer(service, port=0).start() as server:
            code = main(
                [
                    "query",
                    "--url",
                    server.url,
                    "--method",
                    "stub",
                    "--query-id",
                    query_id,
                    "--top-k",
                    "5",
                ]
            )
        assert code == 0
        output = capsys.readouterr().out
        assert f"stub on {query_id}" in output

    def test_query_over_http_requires_query_id(self):
        with pytest.raises(SystemExit):
            main(["query", "--url", "http://127.0.0.1:1", "--method", "stub"])


class TestClusterTopCommand:
    def test_unreachable_gateway_exits_with_one_clean_line(self, capsys):
        import socket

        # grab a port with nothing listening on it.
        placeholder = socket.socket()
        placeholder.bind(("127.0.0.1", 0))
        port = placeholder.getsockname()[1]
        placeholder.close()

        url = f"http://127.0.0.1:{port}"
        code = main(["cluster", "top", "--url", url, "--once"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.strip() == f"gateway unreachable at {url}"
        assert captured.out == ""  # no traceback, no partial frame

    @pytest.fixture()
    def gated_gateway(self, tiny_dataset, tmp_path):
        """One stub worker behind a gateway whose keyfile knows one tenant."""
        from repro.cluster import ClusterConfig, ClusterGateway
        from repro.config import ServiceConfig
        from repro.serve import ExpansionHTTPServer, ExpansionService

        keyfile = tmp_path / "keys.json"
        keyfile.write_text(
            json.dumps({"tenants": [{"tenant": "ops", "key": "ops-key"}]}),
            encoding="utf-8",
        )
        service = ExpansionService(tiny_dataset, config=ServiceConfig(port=0))
        with ExpansionHTTPServer(service, port=0).start() as worker:
            gateway = ClusterGateway(
                [("worker-0", worker.url)],
                config=ClusterConfig(keyfile=str(keyfile)),
                fingerprint=tiny_dataset.fingerprint(),
                port=0,
            )
            with gateway.start():
                yield gateway, worker

    def test_one_frame_from_the_fleet_stats(self, gated_gateway, capsys):
        gateway, _worker = gated_gateway
        code = main(
            ["cluster", "top", "--url", gateway.url, "--once", "--api-key", "ops-key"]
        )
        assert code == 0
        frame = capsys.readouterr().out
        assert frame.startswith("repro cluster top — fleet OK (1/1 workers healthy)")
        # the reading tenant's own stats read is already on the gate's books.
        assert re.search(r"^ops +1 +0$", frame, re.MULTILINE)

    def test_missing_api_key_exits_with_one_clean_line(self, gated_gateway, capsys):
        gateway, _worker = gated_gateway
        code = main(["cluster", "top", "--url", gateway.url, "--once"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.strip() == (
            "cluster top: AuthenticationError: "
            "missing API key (X-Api-Key header required)"
        )
        assert captured.out == ""

    def test_a_worker_url_is_not_a_gateway(self, gated_gateway, capsys):
        _gateway, worker = gated_gateway
        code = main(["cluster", "top", "--url", worker.url, "--once"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.strip() == f"not a gateway: {worker.url}"
        assert captured.out == ""

    @pytest.mark.parametrize("interval", ["0", "-1", "nan", "soon"])
    def test_interval_must_be_above_zero(self, interval, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["cluster", "top", "--url", "http://127.0.0.1:1", "--interval", interval])
        assert excinfo.value.code == 2
        assert "--interval" in capsys.readouterr().err
