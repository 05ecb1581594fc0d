"""Tests for the command-line interface."""

import json
import threading
import time

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_table_command(self):
        args = build_parser().parse_args(["table", "4.1"])
        assert args.command == "table"
        assert args.number == "4.1"

    def test_invalid_table_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "9.9"])

    def test_scale_option(self):
        args = build_parser().parse_args(["--scale", "smoke", "protocols"])
        assert args.scale == "smoke"

    def test_invalid_scale_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--scale", "huge", "protocols"])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.protocol == "rr"
        assert args.agents == 10

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestExecution:
    def test_protocols_lists_registry(self, capsys):
        assert main(["protocols"]) == 0
        out = capsys.readouterr().out
        for name in ("rr", "fcfs", "aap1", "central-rr", "hybrid"):
            assert name in out

    def test_run_prints_metrics(self, capsys):
        code = main(
            ["--scale", "smoke", "run", "--protocol", "fcfs", "--agents", "6", "--load", "2.0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mean W" in out
        assert "fairness" in out

    def test_table_smoke(self, capsys):
        assert main(["--scale", "smoke", "table", "4.5"]) == 0
        out = capsys.readouterr().out
        assert "Table 4.5" in out
        assert "10 agents" in out

    def test_figure_smoke(self, capsys):
        assert main(["--scale", "smoke", "figure"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4.1" in out
        assert "FCFS" in out

    def test_run_with_invalid_load_reports_error(self, capsys):
        code = main(["--scale", "smoke", "run", "--agents", "4", "--load", "8.0"])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestCompareCommand:
    def test_compare_prints_all_requested_protocols(self, capsys):
        code = main(
            [
                "--scale", "smoke", "compare",
                "--protocols", "rr", "fcfs",
                "--agents", "6", "--load", "2.0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "rr" in out and "fcfs" in out and "t_N/t_1" in out

    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.protocols == ["rr", "fcfs", "aap1", "aap2"]

    def test_compare_rejects_unknown_protocol(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--protocols", "lottery"])


class TestFigureCSVOption:
    def test_csv_written(self, tmp_path, capsys):
        target = tmp_path / "figure.csv"
        code = main(["--scale", "smoke", "figure", "--csv", str(target)])
        assert code == 0
        assert target.read_text().startswith("x,fcfs,rr")
        assert "series written" in capsys.readouterr().out


class TestWorkloadOptions:
    def test_urgent_fraction_overlays_the_priority_class(self, capsys):
        code = main(
            ["--scale", "smoke", "run", "--agents", "4", "--load", "1.0",
             "--urgent-fraction", "0.25"]
        )
        assert code == 0
        assert "scenario          : equal-load-n4-L1-cv1-u0.25" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "arrival, name",
        [("poisson", "open-loop-n4-L0.5-r2"), ("bursty", "bursty-n4-L0.5-on0.5-c20")],
    )
    def test_open_loop_arrival_models(self, capsys, arrival, name):
        code = main(
            ["--scale", "smoke", "run", "--protocol", "fcfs", "--agents", "4",
             "--load", "0.5", "--arrival", arrival, "--outstanding", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"scenario          : {name}" in out
        assert "mean W" in out

    def test_outstanding_needs_an_open_loop_model(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--outstanding", "2"])
        assert exit_info.value.code == 2
        assert "--outstanding needs an open-loop" in capsys.readouterr().err


class TestCommandsEndToEnd:
    def test_all_prints_every_table_and_the_figure(self, capsys):
        assert main(["--scale", "smoke", "all"]) == 0
        out = capsys.readouterr().out
        for title in ("Table 4.1", "Table 4.2", "Table 4.3", "Table 4.4", "Table 4.5"):
            assert title in out
        assert "Figure 4.1" in out

    @pytest.mark.parametrize("number, title", [("E3", "Table E3"), ("E5", "Table E5")])
    def test_extension_tables_that_take_a_scale(self, capsys, number, title):
        assert main(["--scale", "smoke", "table", number]) == 0
        assert title in capsys.readouterr().out

    def test_cache_dir_replays_a_repeated_run(self, tmp_path, capsys):
        argv = ["--scale", "smoke", "--cache-dir", str(tmp_path), "run",
                "--agents", "4", "--load", "1.0"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        entries = sorted(tmp_path.iterdir())
        assert len(entries) == 1
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert sorted(tmp_path.iterdir()) == entries

    def test_compare_marks_a_starved_lowest_identity(self, capsys):
        code = main(
            ["--scale", "smoke", "compare", "--protocols", "fixed", "rr",
             "--agents", "10", "--load", "7.5"]
        )
        assert code == 0
        rows = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()[2:]}
        assert rows["fixed"].endswith("starved")
        assert not rows["rr"].endswith("starved")

    def test_trace_to_a_file_reports_the_event_count(self, tmp_path, capsys):
        target = tmp_path / "trace.jsonl"
        code = main(
            ["--scale", "smoke", "trace", "--agents", "3", "--load", "1.0",
             "--out", str(target)]
        )
        assert code == 0
        lines = target.read_text().splitlines()
        assert lines and json.loads(lines[0])["index"] == 0
        assert capsys.readouterr().out == (
            f"{len(lines)} arbitration events written to {target}\n"
        )

    def test_trace_to_stdout_is_pure_jsonl(self, capsys):
        code = main(["--scale", "smoke", "trace", "--agents", "3", "--load", "1.0"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert [json.loads(line)["index"] for line in lines] == list(range(len(lines)))

    def test_metrics_closed_loop_has_no_fairness_block(self, capsys):
        code = main(["--scale", "smoke", "metrics", "--agents", "3", "--load", "1.0"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("protocol rr on equal-load-n3-L1-cv1")
        assert "arbitrations" in out
        assert "jain(flows)" not in out

    def test_metrics_open_loop_adds_the_fairness_block(self, capsys):
        code = main(
            ["--scale", "smoke", "metrics", "--agents", "3", "--load", "0.5",
             "--arrival", "poisson"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "jain(flows)" in out
        assert "share[agent 3, normal]" in out

    def test_faults_metrics_prints_telemetry_totals(self, capsys):
        code = main(
            ["--scale", "smoke", "faults", "--protocols", "rr", "--rates", "0.05",
             "--metrics"]
        )
        assert code == 0
        totals = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("telemetry totals: ")
        ]
        assert len(totals) == 1
        assert "arbitrations=" in totals[0] and "completions=" in totals[0]


@pytest.fixture()
def served_cli(tmp_path):
    """``repro-arb serve`` (serial, with a result cache) in a background
    thread; yields the socket path and a function that starts the server
    with extra ``serve`` options."""
    from repro.service.client import ServiceClient

    socket_path = tmp_path / "cli.sock"
    exits = []

    def serve(*options):
        argv = ["--cache-dir", str(tmp_path / "cache"), "serve",
                "--socket", str(socket_path), "--serial", *options]
        thread = threading.Thread(target=lambda: exits.append(main(argv)), daemon=True)
        thread.start()
        deadline = time.monotonic() + 10.0
        while not socket_path.exists():
            assert time.monotonic() < deadline, "server socket never appeared"
            time.sleep(0.01)
        return thread

    threads = []
    yield socket_path, lambda *options: threads.append(serve(*options))
    for thread in threads:
        ServiceClient(socket_path).shutdown()
        thread.join(15)
        assert not thread.is_alive()
    assert exits == [0] * len(threads)


class TestServeAndSubmit:
    def _submit(self, socket_path, *options):
        return main(
            ["--scale", "smoke", "submit", "--socket", str(socket_path),
             "--agents", "3", "--load", "1.0", *options]
        )

    def test_submit_waits_and_prints_one_row_per_protocol(self, served_cli, capsys):
        socket_path, serve = served_cli
        serve()
        assert self._submit(socket_path, "--protocols", "rr", "fcfs", "--tag", "t") == 0
        out = capsys.readouterr().out
        assert f"serving on {socket_path} (serial)" in out
        lines = out.splitlines()
        job_line = next(line for line in lines if line.startswith("job "))
        assert ": done in " in job_line
        rows = [line.split() for line in lines[lines.index(job_line) + 2:]]
        assert [row[0] for row in rows] == ["rr", "fcfs"]
        assert all(row[1] == "lanes" for row in rows)
        # The server's --cache-dir serves the repeat from its cache.
        assert self._submit(socket_path, "--protocols", "rr") == 0
        assert capsys.readouterr().out.splitlines()[-1].split()[:2] == ["rr", "cache"]

    def test_no_wait_prints_the_job_id_on_admission(self, served_cli, capsys):
        socket_path, serve = served_cli
        serve()
        assert self._submit(socket_path, "--no-wait") == 0
        last = capsys.readouterr().out.splitlines()[-1].split()
        assert last[0].startswith("job-")
        assert last[1] in ("queued", "running", "done")

    def test_budget_rejection_exits_nonzero(self, served_cli, capsys):
        socket_path, serve = served_cli
        serve("--max-cells", "1")
        assert self._submit(socket_path, "--protocols", "rr", "fcfs") == 1
        assert "job rejected: budget exceeded" in capsys.readouterr().err

    def test_timed_out_job_exits_nonzero(self, served_cli, capsys):
        socket_path, serve = served_cli
        serve("--deadline", "0")
        assert self._submit(socket_path) == 1
        captured = capsys.readouterr()
        assert ": timeout" in captured.out
        assert "deadline expired" in captured.err
