"""Tests for the ``c2pi`` command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_arch(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--arch", "resnet"])

    def test_attack_requires_layer(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["attack", "--arch", "vgg16"])

    def test_costs_accepts_repeated_boundaries(self):
        args = build_parser().parse_args(
            ["costs", "--arch", "vgg16", "--boundary", "9", "--boundary", "13.5"]
        )
        assert args.boundary == [9.0, 13.5]

    def test_defaults(self):
        args = build_parser().parse_args(["boundary"])
        assert args.arch == "vgg16" and args.dataset == "cifar10"
        assert args.sigma == 0.3 and args.noise == 0.1

    def test_serve_bench_is_the_placement_run(self):
        args = build_parser().parse_args(
            ["serve-bench", "--check", "X", "--requests", "4", "--json",
             "--output", "Y"]
        )
        assert (args.check, args.requests, args.json, args.output) == (
            "X", 4, True, "Y"
        )
        assert build_parser().parse_args(["serve-bench"]).requests == 8

    @pytest.mark.parametrize(
        "command, option, value",
        [
            ("serve-bench", "arch", "resnet20"),
            ("serve-bench", "dataset", "cifar10"),
            ("serve-bench", "boundary", "3.5"),
            ("serve-bench", "batch", "4"),
            ("serve-bench", "noise", "0.1"),
            ("serve-bench", "networked", None),
            ("serve-bench", "networks", "lan"),
            ("serve-bench", "clients", "2"),
            ("serve-bench", "clients-network", "wan"),
            ("serve-bench", "placements", None),
            ("serve-bench", "tolerance", "0.2"),
            ("bench", "serve-requests", "0"),
            ("bench", "tolerance", "0.2"),
            ("loadgen", "tolerance", "0.2"),
        ],
    )
    def test_removed_options_are_rejected(self, command, option, value, capsys):
        """One serving benchmark, one kind of gate: the drivers' knobs and
        the latency-band tolerance are gone, not hidden."""
        argv = [command, f"--{option}"] + ([value] if value else [])
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_bench_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.elements == 8192 and args.repeats == 3
        assert args.check is None and args.output is None and not args.json
        args = build_parser().parse_args(["bench", "--json", "--check", "snap.json"])
        assert args.json and args.check == "snap.json"

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.listen == "127.0.0.1:0" and args.arch == "resnet20"
        assert args.untrained_width is None and not args.once
        assert args.request_timeout == 120.0
        args = build_parser().parse_args(["serve", "--request-timeout", "0.5"])
        assert args.request_timeout == 0.5

    def test_client_retries_flag(self):
        args = build_parser().parse_args(["client", "--connect", "h:1"])
        assert args.retries == 0
        args = build_parser().parse_args(
            ["client", "--connect", "h:1", "--retries", "3"]
        )
        assert args.retries == 3

    def test_chaos_check_defaults(self):
        args = build_parser().parse_args(["chaos-check"])
        assert args.seed == 0 and args.request_timeout == 0.5
        args = build_parser().parse_args(["chaos-check", "--seed", "7"])
        assert args.seed == 7

    def test_client_requires_endpoint(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["client"])
        args = build_parser().parse_args(
            ["client", "--connect", "host:1234", "--network", "wan"]
        )
        assert args.connect == "host:1234" and args.network == "wan"

    def test_endpoint_parsing(self):
        from repro.cli import _parse_endpoint

        assert _parse_endpoint("127.0.0.1:9123") == ("127.0.0.1", 9123)
        assert _parse_endpoint(":0") == ("127.0.0.1", 0)
        with pytest.raises(SystemExit, match="expected host:port"):
            _parse_endpoint("localhost")  # a port-less endpoint is an error
        with pytest.raises(SystemExit, match="expected host:port"):
            _parse_endpoint("host:notaport")


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        output = capsys.readouterr().out
        assert "smoke" in output and "paper" in output

    def test_costs_prints_table(self, capsys):
        assert main(["costs", "--arch", "vgg16", "--boundary", "9"]) == 0
        output = capsys.readouterr().out
        assert "Delphi" in output and "Cheetah" in output and "CrypTFlow2" in output
        assert "b=9.0" in output

    def test_costs_full_only(self, capsys):
        assert main(["costs", "--arch", "alexnet"]) == 0
        output = capsys.readouterr().out
        assert output.count("full") == 3  # one row per backend (incl. CrypTFlow2)

    def test_serve_bench_alone_runs_the_placement_report(self, capsys):
        assert main(["serve-bench"]) == 0
        output = capsys.readouterr().out
        assert "8 requests, logits identical: True" in output
        for placement in ("in-process", "socket-loopback", "shared-memory"):
            assert placement in output

    def test_secure_infer_dealer(self, capsys):
        assert main(["secure-infer", "--suite", "dealer", "--boundary", "1.5"]) == 0
        output = capsys.readouterr().out
        assert "max err" in output and "rounds" in output

    def test_secure_infer_rejects_unknown_suite(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["secure-infer", "--suite", "spdz"])

    def test_train_uses_cache(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("C2PI_CACHE_DIR", str(tmp_path))
        # Shrink the work: reuse the smoke profile but a tiny dataset via
        # monkeypatched budgets.
        from repro.bench import scale as scale_module

        tiny = scale_module.ScaleProfile(
            name="smoke", width_mult=0.125, train_size=64, test_size=32,
            victim_epochs=1, victim_batch=32, attacker_images=16, eval_images=2,
            attack_epochs=1, attack_batch=16, mla_iterations=10, layer_stride=4,
        )
        monkeypatch.setitem(scale_module.PROFILES, "smoke", tiny)
        # Clear the in-memory victim cache so the tiny profile takes effect.
        from repro.bench import victims as victims_module

        monkeypatch.setattr(victims_module, "_memory_cache", {})
        assert main(["train", "--arch", "alexnet", "--dataset", "cifar10"]) == 0
        first = capsys.readouterr().out
        assert "test accuracy" in first
        # Second call must hit the on-disk cache (same accuracy reported).
        monkeypatch.setattr(victims_module, "_memory_cache", {})
        assert main(["train", "--arch", "alexnet", "--dataset", "cifar10"]) == 0
        second = capsys.readouterr().out
        assert first.splitlines()[0] == second.splitlines()[0]
