"""Tests for the ``python -m repro`` command-line interface."""

import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A generated dataset and a built index, shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "rw.npz"
    index = root / "idx"
    assert main(["generate", "--dataset", "Rw", "--count", "2000",
                 "--seed", "1", "--out", str(data)]) == 0
    assert main(["build", "--data", str(data), "--out", str(index),
                 "--partition-capacity", "300", "--leaf-capacity", "30"]) == 0
    return root, data, index


class TestGenerate:
    def test_writes_loadable_npz(self, workspace):
        _root, data, _index = workspace
        payload = np.load(data, allow_pickle=False)
        assert payload["values"].shape == (2000, 256)

    def test_all_dataset_keys(self, tmp_path):
        for key in ("Rw", "Tx", "Dn", "Na"):
            out = tmp_path / f"{key}.npz"
            assert main(["generate", "--dataset", key, "--count", "50",
                         "--out", str(out)]) == 0
            assert out.exists()

    def test_unknown_dataset_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "--dataset", "Zz", "--count", "10",
                  "--out", str(tmp_path / "x.npz")])


class TestInfo:
    def test_prints_summary(self, workspace, capsys):
        _root, _data, index = workspace
        assert main(["info", "--index", str(index)]) == 0
        out = capsys.readouterr().out
        assert "partitions" in out
        assert "2,000" in out


class TestExact:
    def test_present_row_found(self, workspace, capsys):
        _root, data, index = workspace
        code = main(["exact", "--index", str(index), "--data", str(data),
                     "--row", "7"])
        assert code == 0
        assert "found record ids: [7]" in capsys.readouterr().out

    def test_absent_query_exit_code(self, workspace, tmp_path, capsys):
        _root, _data, index = workspace
        rng = np.random.default_rng(0)
        q = rng.standard_normal(256)
        q = (q - q.mean()) / q.std()
        query_file = tmp_path / "q.npy"
        np.save(query_file, q)
        code = main(["exact", "--index", str(index), "--query",
                     str(query_file)])
        assert code == 1
        assert "not found" in capsys.readouterr().out

    def test_no_bloom_flag(self, workspace, capsys):
        _root, data, index = workspace
        code = main(["exact", "--index", str(index), "--data", str(data),
                     "--row", "3", "--no-bloom"])
        assert code == 0

    def test_missing_query_spec(self, workspace):
        _root, _data, index = workspace
        with pytest.raises(SystemExit):
            main(["exact", "--index", str(index)])


class TestKnn:
    @pytest.mark.parametrize(
        "strategy", ["target-node", "one-partition", "multi-partitions"]
    )
    def test_strategies_return_k(self, workspace, capsys, strategy):
        _root, data, index = workspace
        code = main(["knn", "--index", str(index), "--data", str(data),
                     "--row", "11", "--k", "5", "--strategy", strategy])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("record ") == 5
        assert "distance 0.0000" in out  # the query itself is in the data


class TestKnnExactAndRange:
    def test_exact_strategy(self, workspace, capsys):
        _root, data, index = workspace
        code = main(["knn", "--index", str(index), "--data", str(data),
                     "--row", "2", "--k", "3", "--strategy", "exact"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("record ") == 3
        assert "distance 0.0000" in out

    def test_range_command(self, workspace, capsys):
        _root, data, index = workspace
        code = main(["range", "--index", str(index), "--data", str(data),
                     "--row", "2", "--radius", "0.01"])
        assert code == 0
        out = capsys.readouterr().out
        assert "1 series within radius" in out

    @pytest.mark.parametrize("command", (
        ["exact"],
        ["knn", "--k", "3", "--strategy", "exact"],
        ["range", "--radius", "5"],
    ))
    def test_lost_partition_is_a_partial_result(self, workspace, tmp_path,
                                                capsys, command):
        """An exact answer that needs an unloadable partition prints the
        typed error and exits 2 — no traceback."""
        from repro.faults import clear_injector

        _root, data, index = workspace
        plan = tmp_path / "loss.json"
        plan.write_text(json.dumps({
            "schema": "repro.faults/v1", "seed": 1,
            "rules": [{"kind": "partition-load-error"}],
        }))
        try:
            code = main([*command, "--index", str(index), "--data", str(data),
                         "--row", "2", "--faults", str(plan)])
        finally:
            clear_injector()  # --faults installs a process-wide plan
        assert code == 2
        assert "partial result: partitions [" in capsys.readouterr().out

    def test_range_limit_truncates(self, workspace, capsys):
        _root, data, index = workspace
        code = main(["range", "--index", str(index), "--data", str(data),
                     "--row", "2", "--radius", "50", "--limit", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "more" in out


class TestTelemetryFlags:
    def test_knn_writes_valid_trace_and_metrics(self, workspace, tmp_path):
        import json

        from repro.telemetry import validate_metrics_text, validate_trace

        _root, data, index = workspace
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.prom"
        code = main(["knn", "--index", str(index), "--data", str(data),
                     "--row", "5", "--k", "3",
                     "--trace", str(trace), "--metrics", str(metrics)])
        assert code == 0
        doc = json.loads(trace.read_text())
        assert validate_trace(doc) >= 3
        names = {span["name"] for span in doc["spans"]}
        assert "query/knn" in names
        assert validate_metrics_text(metrics.read_text()) > 0
        assert "queries_total" in metrics.read_text()

    def test_build_trace_covers_both_phases(self, workspace, tmp_path):
        import json

        _root, data, _index = workspace
        trace = tmp_path / "build_trace.json"
        code = main(["build", "--data", str(data),
                     "--out", str(tmp_path / "idx2"),
                     "--partition-capacity", "300", "--leaf-capacity", "30",
                     "--trace", str(trace)])
        assert code == 0
        text = trace.read_text()
        assert "build/global phase" in text
        assert "build/local phase" in text
        assert "stage/" in text
        # The tracer is switched back off after the command.
        from repro.telemetry import get_tracer
        assert not get_tracer().enabled

    def test_trace_written_even_on_nonzero_exit(self, workspace, tmp_path):
        _root, _data, index = workspace
        q = np.zeros(256)
        q[0], q[1] = 1.0, -1.0
        query_file = tmp_path / "ghost.npy"
        np.save(query_file, (q - q.mean()) / q.std())
        trace = tmp_path / "miss_trace.json"
        code = main(["exact", "--index", str(index),
                     "--query", str(query_file), "--trace", str(trace)])
        assert code == 1
        assert trace.exists()

    def test_stats_command_renders_tree(self, workspace, tmp_path, capsys):
        _root, data, index = workspace
        trace = tmp_path / "t.json"
        main(["knn", "--index", str(index), "--data", str(data),
              "--row", "8", "--trace", str(trace)])
        capsys.readouterr()
        assert main(["stats", str(trace)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("trace:")
        assert "query/knn" in out
        assert "simulated" in out

    def test_stats_depth_limits_output(self, workspace, tmp_path, capsys):
        _root, data, index = workspace
        trace = tmp_path / "t.json"
        main(["knn", "--index", str(index), "--data", str(data),
              "--row", "8", "--trace", str(trace)])
        capsys.readouterr()
        assert main(["stats", str(trace), "--depth", "0"]) == 0
        assert "query/route" not in capsys.readouterr().out

    def test_stats_rejects_missing_and_invalid(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["stats", str(tmp_path / "absent.json")])
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "other/v9", "spans": []}')
        with pytest.raises(SystemExit, match="invalid trace"):
            main(["stats", str(bad)])

    def test_verbosity_flags_accepted_both_sides(self, workspace, capsys):
        _root, _data, index = workspace
        assert main(["-v", "info", "--index", str(index)]) == 0
        assert main(["info", "--index", str(index), "-q"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["knn", "exact", "range", "serve"])
    def test_removed_cache_flag_is_rejected(self, workspace, capsys,
                                            command):
        _root, data, index = workspace
        argv = [command, "--index", str(index), "--cache", "8"]
        if command != "serve":
            argv += ["--data", str(data), "--row", "4"]
        if command == "range":
            argv += ["--radius", "5"]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "unrecognized arguments: --cache 8" in capsys.readouterr().err


class TestMultiFormatBuild:
    def test_build_from_csv(self, tmp_path, capsys):
        from repro.tsdb import random_walk
        from repro.tsdb.io import write_csv_dataset

        data = tmp_path / "d.csv"
        write_csv_dataset(
            random_walk(300, length=32, seed=7).z_normalized(),
            data, include_record_ids=False,
        )
        assert main(["build", "--data", str(data), "--out",
                     str(tmp_path / "idx"), "--partition-capacity", "100",
                     "--leaf-capacity", "10"]) == 0
        assert "300 series" in capsys.readouterr().out

    def test_build_from_ucr(self, tmp_path, capsys):
        lines = []
        rng = np.random.default_rng(1)
        for i in range(200):
            values = ",".join(f"{v:.5f}" for v in rng.standard_normal(32))
            lines.append(f"{i % 2},{values}")
        data = tmp_path / "Synth_TRAIN.txt"
        data.write_text("\n".join(lines))
        assert main(["build", "--data", str(data), "--out",
                     str(tmp_path / "idx"), "--partition-capacity", "100",
                     "--leaf-capacity", "10"]) == 0
        assert "200 series" in capsys.readouterr().out

    def test_unknown_format_rejected(self, tmp_path):
        bad = tmp_path / "d.parquet"
        bad.write_text("x")
        with pytest.raises(SystemExit, match="unsupported"):
            main(["build", "--data", str(bad), "--out", str(tmp_path / "i")])


class TestSharedFlags:
    """``-v`` / ``-q`` / ``--faults`` mean the same before and after the
    subcommand: the subcommand's defaults must not overwrite a value
    given before it."""

    @pytest.mark.parametrize("flag, dest, expected", [
        (["-v"], "verbose", 1),
        (["-q", "-q"], "quiet", 2),
        (["--faults", "plan.json"], "faults", "plan.json"),
    ])
    @pytest.mark.parametrize("position", ["before", "after"])
    def test_flag_survives_either_position(self, flag, dest, expected,
                                           position):
        from repro.cli import build_parser

        command = ["info", "--index", "idx"]
        argv = flag + command if position == "before" else command + flag
        args = build_parser().parse_args(argv)
        assert getattr(args, dest) == expected

    @pytest.mark.parametrize("argv_head, level", [
        (["-v"], "DEBUG"), (["-q"], "WARNING"), ([], "INFO"),
    ])
    def test_verbosity_before_subcommand_reaches_the_logger(
        self, workspace, capsys, argv_head, level
    ):
        import logging

        _root, _data, index = workspace
        assert main(argv_head + ["info", "--index", str(index)]) == 0
        capsys.readouterr()
        logger = logging.getLogger("repro")
        assert logging.getLevelName(logger.level) == level

    @pytest.mark.parametrize("flag", [["--profile-spans"],
                                      ["--folded", "knn.folded"]])
    def test_removed_profile_flags_are_rejected(self, workspace, flag):
        _root, data, index = workspace
        with pytest.raises(SystemExit):
            main(["knn", "--index", str(index), "--data", str(data),
                  "--row", "0"] + flag)

    @pytest.mark.parametrize("flag", [["--executor", "serial"],
                                      ["--jobs", "2"]])
    @pytest.mark.parametrize("position", ["before", "after"])
    def test_removed_executor_flags_are_rejected(self, workspace, tmp_path,
                                                 capsys, flag, position):
        _root, data, _index = workspace
        out = tmp_path / "idx"
        command = ["build", "--data", str(data), "--out", str(out)]
        argv = flag + command if position == "before" else command + flag
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2  # an argparse usage error
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


class TestServeWalRestart:
    """``serve --wal`` over a non-empty log replays it onto the base
    first, so a second server life keeps the first life's writes and
    hands out record ids after them."""

    SRC = Path(__file__).resolve().parents[1] / "src"

    def _life(self, index, wal, rows):
        """Start ``repro serve``, write ``rows``, stop it with SIGINT;
        returns the lines printed before "serving" and the acked ids."""
        from repro.serving.server import ServingClient

        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(self.SRC), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--index", str(index),
             "--port", "0", "--wal", str(wal), "--max-seconds", "60", "-q"],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        try:
            before = []
            while not (line := proc.stdout.readline()).startswith("serving"):
                assert line, "serve exited before it was serving"
                before.append(line)
            port = int(re.search(r" on [^ ]+:(\d+) ", line).group(1))
            with ServingClient("127.0.0.1", port) as client:
                acked = client.write_batch(rows)["record_ids"]
        finally:
            proc.send_signal(signal.SIGINT)
            proc.communicate(timeout=30)
        return before, acked

    def test_second_life_replays_and_keeps_ids_unique(self, workspace,
                                                      tmp_path):
        from repro.core import load_index, read_wal, replay_wal

        _root, data, index = workspace
        rows = np.load(data)["values"][:6] + 0.5
        wal = tmp_path / "serve.wal"
        before, first = self._life(index, wal, rows[:4])
        assert before == []  # a fresh log: nothing to replay
        before, second = self._life(index, wal, rows[4:])
        assert min(second) > max(first)
        assert len(before) == 1 and before[0].startswith(
            f"replayed {wal}: 4 appends"), before
        records, torn = read_wal(wal)
        logged = [r["record_id"] for r in records if r["kind"] == "append"]
        assert not torn
        assert logged == first + second
        base = load_index(index)
        n_base = base.n_records
        replay_wal(base, wal)
        assert base.n_records == n_base + len(first) + len(second)
