"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.command == "solve"
        assert args.algorithm == "RMA"
        assert args.dataset == "lastfm_like"

    def test_compare_algorithm_list(self):
        args = build_parser().parse_args(["compare", "--algorithms", "RMA", "TI-CSRM"])
        assert args.algorithms == ["RMA", "TI-CSRM"]

    def test_dataset_defaults(self):
        args = build_parser().parse_args(["dataset", "--name", "dblp_like"])
        assert args.name == "dblp_like"

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--algorithm", "Mystery"])

    def test_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--dataset", "facebook"])

    def test_numeric_options_parsed(self):
        args = build_parser().parse_args(
            ["solve", "--alpha", "0.3", "--epsilon", "0.2", "--max-rr-sets", "1000"]
        )
        assert args.alpha == 0.3
        assert args.epsilon == 0.2
        assert args.max_rr_sets == 1000


class TestCommands:
    def test_dataset_command_prints_stats(self, capsys):
        exit_code = main(["dataset", "--name", "lastfm_like", "--scale", "0.1", "--seed", "1"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "lastfm_like" in captured.out
        assert "nodes" in captured.out

    def test_solve_command_runs_small_instance(self, capsys):
        exit_code = main(
            [
                "solve",
                "--dataset", "lastfm_like",
                "--advertisers", "2",
                "--scale", "0.1",
                "--seed", "1",
                "--algorithm", "OneBatchRM",
                "--initial-rr-sets", "128",
                "--max-rr-sets", "256",
                "--evaluation-rr-sets", "800",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "OneBatchRM" in captured.out
        assert "revenue" in captured.out
        assert "capped at" not in captured.out  # OneBatchRM has no stopping rule

    def test_solve_prints_a_binding_cap_under_the_table(self, capsys):
        exit_code = main(
            [
                "solve",
                "--dataset", "lastfm_like",
                "--advertisers", "2",
                "--scale", "0.1",
                "--seed", "1",
                "--algorithm", "RMA",
                "--initial-rr-sets", "128",
                "--max-rr-sets", "256",
                "--evaluation-rr-sets", "800",
            ]
        )
        lines = capsys.readouterr().out.splitlines()
        assert exit_code == 0
        assert lines[-1].startswith("RMA: capped at θ = 256 of θ_max = ")
        assert lines[-1].endswith("not passed") or "removed to fit" in lines[-1]

    def test_compare_command_runs_two_algorithms(self, capsys):
        exit_code = main(
            [
                "compare",
                "--dataset", "lastfm_like",
                "--advertisers", "2",
                "--scale", "0.1",
                "--seed", "1",
                "--algorithms", "OneBatchRM", "TI-CSRM",
                "--initial-rr-sets", "128",
                "--max-rr-sets", "256",
                "--evaluation-rr-sets", "800",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Best revenue" in captured.out
        assert "TI-CSRM" in captured.out


class TestPolicyFlags:
    def test_solve_defaults_to_fast_policy(self, capsys):
        exit_code = main(
            [
                "solve",
                "--dataset", "lastfm_like",
                "--advertisers", "2",
                "--scale", "0.1",
                "--seed", "1",
                "--algorithm", "OneBatchRM",
                "--initial-rr-sets", "128",
                "--max-rr-sets", "256",
                "--evaluation-rr-sets", "800",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "effective policy: fast:" in captured.out

    def test_policy_seed_is_the_escape_hatch(self, capsys):
        exit_code = main(
            [
                "solve",
                "--dataset", "lastfm_like",
                "--advertisers", "2",
                "--scale", "0.1",
                "--seed", "1",
                "--algorithm", "OneBatchRM",
                "--policy", "seed",
                "--initial-rr-sets", "128",
                "--max-rr-sets", "256",
                "--evaluation-rr-sets", "800",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "effective policy: seed:" in captured.out

    @pytest.mark.parametrize("flag", ["--subsim", "--batched-greedy", "--fast"])
    def test_retired_engine_flags_exit_with_pointed_message(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", flag])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "has been removed" in captured.err
        assert "--policy seed" in captured.err

    def test_retired_flags_are_hidden_from_help(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--help"])
        captured = capsys.readouterr()
        assert "--policy" in captured.out
        for retired in ("--subsim", "--batched-greedy", "--fast"):
            assert retired not in captured.out


class TestRefresh:
    def test_refresh_parser_defaults(self):
        args = build_parser().parse_args(["refresh"])
        assert args.command == "refresh"
        assert args.rr_sets == 2000
        assert args.deltas == 8
        assert args.rounds == 1
        assert not args.verify

    def test_refresh_rejects_unknown_maintenance_mode(self, capsys):
        # --maintenance is retired: every value exits 2 with a pointed hint,
        # on refresh and on serve, and the flag is gone from --help.
        for command in ("refresh", "serve"):
            for mode in ("inline", "warp"):
                with pytest.raises(SystemExit) as excinfo:
                    main([command, "--maintenance", mode])
                assert excinfo.value.code == 2
                assert "--maintenance has been removed" in capsys.readouterr().err
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--help"])
            assert "--maintenance" not in capsys.readouterr().out

    def test_refresh_command_runs_and_verifies(self, capsys):
        exit_code = main(
            [
                "refresh",
                "--scale", "0.05",
                "--rr-sets", "150",
                "--deltas", "4",
                "--rounds", "2",
                "--seed", "3",
                "--jobs", "1",
                "--verify",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "effective policy:" in captured.out
        assert "redrawn" in captured.out
        assert captured.out.count("bit-identical") == 2
