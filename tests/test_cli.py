"""Tests for the repro-lrd command-line interface."""

from __future__ import annotations

import re

import pytest

from repro.cli import build_parser, main


@pytest.fixture(autouse=True)
def _isolated_cache(monkeypatch, tmp_path):
    """Keep CLI runs from touching the user's real solve cache."""
    monkeypatch.setenv("REPRO_LRD_CACHE_DIR", str(tmp_path / "cli-cache"))


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_number_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "99"])

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.hurst == 0.8
        assert args.utilization == 0.8

    def test_engine_flag_defaults(self):
        for command in (["figure", "4"], ["solve"]):
            args = build_parser().parse_args(command)
            assert args.jobs == 1
            assert args.no_cache is False
            assert args.cache_dir is None

    def test_engine_flags_parsed(self):
        args = build_parser().parse_args(
            ["figure", "4", "--jobs", "4", "--no-cache", "--cache-dir", "/tmp/c"]
        )
        assert args.jobs == 4
        assert args.no_cache is True
        assert args.cache_dir == "/tmp/c"

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8787
        assert args.batch_size == 16
        assert args.batch_delay == 0.02
        assert args.max_queue == 256
        assert args.timeout == 30.0
        assert args.jobs == 1

    def test_serve_flags_parsed(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--jobs", "4", "--batch-size", "8",
             "--batch-delay", "0.05", "--max-queue", "64", "--timeout", "5"]
        )
        assert args.port == 0
        assert args.jobs == 4
        assert args.batch_size == 8
        assert args.max_queue == 64

    def test_netsim_defaults(self):
        args = build_parser().parse_args(["netsim", "tandem"])
        assert args.preset == "tandem"
        assert args.hops == 2
        assert args.sources == 8
        assert args.utilizations is None and args.buffers is None
        assert args.duration == 200.0
        assert args.warmup == 20.0
        assert args.seed == 0
        assert args.hurst == 0.8
        assert args.detail is False

    def test_netsim_flags_parsed(self):
        args = build_parser().parse_args(
            ["netsim", "mux", "--sources", "4", "--utilization", "0.8",
             "--utilization", "0.95", "--buffer", "0.2", "--duration", "50",
             "--warmup", "5", "--seed", "7", "--detail"]
        )
        assert args.preset == "mux"
        assert args.sources == 4
        assert args.utilizations == [0.8, 0.95]
        assert args.buffers == [0.2]
        assert args.detail is True

    def test_netsim_rejects_unknown_preset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["netsim", "ring"])

    def test_cache_actions_are_exclusive(self):
        args = build_parser().parse_args(["cache", "--stats"])
        assert args.stats and not args.compact
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "--stats", "--compact"])


class TestCommands:
    def test_solve_prints_result(self, capsys):
        code = main(["solve", "--hurst", "0.7", "--cutoff", "2.0", "--buffer", "0.3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "loss ~" in out

    def test_horizon_prints_estimates(self, capsys):
        code = main(["horizon", "--hurst", "0.75", "--buffer", "0.5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "eq26_horizon_s" in out
        assert "norros_horizon_s" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--hurst", "1.5", "--buffer", "0.1"],
            ["horizon", "--hurst", "1.5", "--buffer", "0.1"],
            ["dimension", "--hurst", "1.5", "--buffer", "0.1"],
            ["compare", "--hurst", "1.5", "--buffer", "0.1"],
            ["solve", "--utilization", "-1", "--buffer", "0.1"],
            ["horizon", "--utilization", "-1", "--buffer", "0.1"],
            ["horizon", "--buffer", "-1"],
            ["horizon", "--no-reset-probability", "2", "--buffer", "0.1"],
            ["dimension", "--buffer", "-1"],
            ["dimension", "--target-loss", "2", "--buffer", "0.1"],
            ["netsim", "mux", "--sources", "0"],
            ["netsim", "tandem", "--hops", "0"],
            ["netsim", "mux", "--duration", "-1"],
            ["netsim", "tandem", "--warmup", "-1", "--duration", "1"],
        ],
    )
    def test_out_of_range_model_flag_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("repro-lrd: ") and err.count("\n") == 1

    def test_trace_mtv(self, capsys):
        code = main(["trace", "mtv", "--bins", "1024"])
        assert code == 0
        out = capsys.readouterr().out
        assert "mean_epoch_s" in out
        assert "alpha" in out

    def test_trace_bellcore(self, capsys):
        code = main(["trace", "bellcore", "--bins", "1024"])
        assert code == 0
        assert "theta" in capsys.readouterr().out

    def test_figure_2_quick(self, capsys):
        code = main(["figure", "2", "--quick"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Fig. 2" in out
        assert "n=  5" in out or "n=5" in out.replace(" ", "")

    def test_figure_3_quick_with_out(self, capsys, tmp_path):
        target = tmp_path / "fig3.txt"
        code = main(["figure", "3", "--quick", "--out", str(target)])
        assert code == 0
        assert target.exists()
        assert "MTV marginal" in target.read_text()

    def test_figure_6_quick(self, capsys):
        code = main(["figure", "6", "--quick"])
        assert code == 0
        assert "shuffling" in capsys.readouterr().out

    def test_list(self, capsys):
        code = main(["list"])
        assert code == 0
        out = capsys.readouterr().out
        assert "figure  2" in out
        assert "figure 14" in out
        assert "correlation-horizon scaling" in out

    def test_solve_warm_cache_replays_without_iterations(self, capsys, tmp_path):
        argv = ["solve", "--hurst", "0.7", "--cutoff", "2.0", "--buffer", "0.3",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert "1 cells, 0 cache hits" in cold.err

        assert main(argv) == 0
        warm = capsys.readouterr()
        assert "1 cells, 1 cache hits" in warm.err
        assert "0 solver iterations" in warm.err
        # Identical numbers either way.
        assert warm.out == cold.out

    def test_cache_dir_at_a_file_fails_cleanly(self, tmp_path):
        target = tmp_path / "not-a-dir"
        target.touch()
        with pytest.raises(SystemExit, match="not a directory"):
            main(["solve", "--buffer", "0.2", "--cache-dir", str(target)])

    def test_solve_no_cache_writes_nothing(self, capsys, tmp_path):
        code = main(["solve", "--buffer", "0.3", "--no-cache",
                     "--cache-dir", str(tmp_path)])
        assert code == 0
        assert not (tmp_path / "solve_cache.jsonl").exists()

    def test_dimension(self, capsys):
        code = main(["dimension", "--target-loss", "1e-3", "--buffer", "0.3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "effective_bandwidth" in out
        assert "achievable_utilization" in out

    def test_dimension_with_streams(self, capsys):
        code = main(
            ["dimension", "--target-loss", "1e-2", "--buffer", "0.2", "--streams", "4"]
        )
        assert code == 0
        assert "Multiplexing gain" in capsys.readouterr().out

    def test_cache_stats_on_populated_cache(self, capsys, tmp_path):
        assert main(["solve", "--hurst", "0.7", "--cutoff", "2.0", "--buffer", "0.3",
                     "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["cache", "--stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Solve cache" in out
        assert "entries" in out
        assert "stale_lines" in out

    def test_cache_stats_counts_corrupt_lines(self, capsys, tmp_path):
        from repro.core.results import LossRateResult
        from repro.exec import SolveCache

        cache = SolveCache(tmp_path)
        cache.put("k1", LossRateResult(lower=0.1, upper=0.2, iterations=8, bins=32,
                                       converged=True, negligible=False))
        with cache.path.open("a") as handle:
            handle.write("garbage\n")
        assert main(["cache", "--stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert re.search(r"corrupt_lines\s*=\s*1\b", out), out
        assert re.search(r"entries\s*=\s*1\b", out), out

    def test_cache_default_action_is_stats(self, capsys, tmp_path):
        assert main(["cache", "--cache-dir", str(tmp_path)]) == 0
        assert "entries" in capsys.readouterr().out

    def test_cache_compact(self, capsys, tmp_path):
        from repro.core.results import LossRateResult
        from repro.exec import SolveCache

        cache = SolveCache(tmp_path)
        result = LossRateResult(lower=0.1, upper=0.2, iterations=8, bins=32,
                                converged=True, negligible=False)
        cache.put("k1", result)
        line = cache.path.read_text()
        cache.path.write_text(line * 4)  # three stale duplicates
        assert main(["cache", "--compact", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "4 -> 1 lines" in out
        assert len(SolveCache(tmp_path)) == 1

    def test_netsim_tandem_prints_table(self, capsys):
        code = main(["netsim", "tandem", "--utilization", "0.9",
                     "--buffer", "0.1", "--duration", "20", "--warmup", "2"])
        assert code == 0
        captured = capsys.readouterr()
        assert "Tandem preset" in captured.out
        assert "loss_rate" in captured.out
        assert "events/s" in captured.err

    def test_netsim_mux_detail_and_out(self, capsys, tmp_path):
        target = tmp_path / "mux.txt"
        code = main(["netsim", "mux", "--sources", "3", "--utilization", "0.9",
                     "--buffer", "0.1", "--duration", "20", "--warmup", "2",
                     "--detail", "--out", str(target)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Multiplexer preset" in out
        assert "queue.loss_rate" in out  # per-node detail block
        assert target.exists()
        assert "Multiplexer preset" in target.read_text()

    def test_cache_dir_at_a_file_fails_cleanly_for_cache_cmd(self, tmp_path):
        target = tmp_path / "not-a-dir"
        target.touch()
        with pytest.raises(SystemExit, match="not a directory"):
            main(["cache", "--stats", "--cache-dir", str(target)])
