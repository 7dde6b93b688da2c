"""CLI smoke tests."""

import numpy as np
import pytest

from repro.cli import main
from repro.nn import Dense, Network, save_network


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    rng = np.random.default_rng(0)
    net = Network(
        (3,), [Dense(3, 4, relu=True, rng=rng), Dense(4, 2, rng=rng)]
    )
    path = tmp_path_factory.mktemp("cli") / "model.npz"
    save_network(net, path)
    return str(path)


class TestCli:
    def test_info(self, model_path, capsys):
        assert main(["info", model_path]) == 0
        out = capsys.readouterr().out
        assert "hidden ReLU neurons" in out
        assert "L-inf gain" in out

    def test_certify_algorithm1(self, model_path, capsys):
        code = main(
            ["certify", model_path, "--delta", "0.01", "--window", "2",
             "--refine", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "itne-nd-lpr" in out
        assert "output 1" in out

    def test_certify_exact(self, model_path, capsys):
        assert main(["certify", model_path, "--delta", "0.01",
                     "--method", "exact"]) == 0
        assert "exact" in capsys.readouterr().out

    def test_certify_reluplex(self, model_path, capsys):
        assert main(["certify", model_path, "--delta", "0.01",
                     "--method", "reluplex"]) == 0
        assert "reluplex" in capsys.readouterr().out

    def test_attack(self, model_path, capsys):
        assert main(
            ["attack", model_path, "--delta", "0.05", "--samples", "3",
             "--steps", "5"]
        ) == 0
        assert "pgd-under" in capsys.readouterr().out

    def test_bounds(self, model_path, capsys):
        assert main(["bounds", model_path]) == 0
        out = capsys.readouterr().out
        assert "y-width ibp" in out and "y-width sym" in out
        assert "overall stable neurons" in out
        assert "Δy-width" not in out  # no delta: no distance columns

    def test_bounds_with_delta(self, model_path, capsys):
        assert main(["bounds", model_path, "--delta", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "Δy-width ibp" in out
        assert "output variation bound" in out

    def test_certify_symbolic_bounds(self, model_path, capsys):
        assert main(["certify", model_path, "--delta", "0.01",
                     "--bounds", "symbolic"]) == 0
        assert "itne-nd-lpr-symbolic" in capsys.readouterr().out

    def test_certify_symbolic_dominates_exact(self, model_path, capsys):
        main(["certify", model_path, "--delta", "0.01", "--method", "exact"])
        exact_out = capsys.readouterr().out
        main(["certify", model_path, "--delta", "0.01", "--bounds", "symbolic"])
        sym_out = capsys.readouterr().out

        def worst(text):
            vals = [float(line.rsplit("=", 1)[1])
                    for line in text.splitlines() if "output" in line]
            return max(vals)

        assert worst(sym_out) >= worst(exact_out) - 1e-7

    def test_batch_epsilon_presolve(self, model_path, capsys):
        code = main(
            ["batch", model_path, "--delta", "0.01", "--samples", "3",
             "--workers", "1", "--epsilon", "1000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "presolve (certified)" in out
        assert "presolve tier answered 3/3 queries" in out

    def test_batch_no_presolve_flag(self, model_path, capsys):
        code = main(
            ["batch", model_path, "--delta", "0.01", "--samples", "2",
             "--workers", "1", "--epsilon", "1000", "--no-presolve"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "presolve tier answered 0/2 queries" in out
        assert "local-exact" in out

    def test_batch(self, model_path, capsys):
        code = main(
            ["batch", model_path, "--delta", "0.02", "--samples", "3",
             "--method", "exact", "--workers", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "batch local-exact certification" in out
        assert "sample[2]" in out
        assert "worst eps over 3 certified samples" in out

    def test_batch_inputs_file(self, model_path, capsys, tmp_path):
        samples = np.random.default_rng(3).random((2, 3))
        inputs = tmp_path / "inputs.npy"
        np.save(inputs, samples)
        code = main(
            ["batch", model_path, "--delta", "0.02", "--inputs", str(inputs),
             "--method", "lpr", "--workers", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sample[1]" in out and "sample[2]" not in out

    def test_certify_split(self, model_path, capsys):
        code = main(
            ["certify", model_path, "--delta", "0.02", "--epsilon", "1000",
             "--split", "--max-domains", "32", "--split-depth", "6"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "[split]" in out
        assert "verdict: certified" in out

    def test_certify_split_needs_epsilon(self, model_path, capsys):
        code = main(["certify", model_path, "--delta", "0.02", "--split"])
        assert code == 2
        assert "--epsilon" in capsys.readouterr().err

    def test_batch_split(self, model_path, capsys):
        code = main(
            ["batch", model_path, "--delta", "0.02", "--samples", "2",
             "--workers", "1", "--epsilon", "1000", "--split",
             "--no-presolve"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "split (certified)" in out
        assert "split tier decided 2/2 escalated queries" in out

    def test_batch_split_needs_epsilon(self, model_path, capsys):
        code = main(
            ["batch", model_path, "--delta", "0.02", "--split",
             "--samples", "2"]
        )
        assert code == 2
        assert "--epsilon" in capsys.readouterr().err

    def test_batch_split_needs_exact_method(self, model_path, capsys):
        code = main(
            ["batch", model_path, "--delta", "0.02", "--split",
             "--epsilon", "1", "--method", "lpr", "--samples", "2"]
        )
        assert code == 2
        assert "exact" in capsys.readouterr().err

    def test_batch_epsilon_zero_rejected(self, model_path, capsys):
        with pytest.raises(SystemExit):
            main(["batch", model_path, "--delta", "0.01", "--epsilon", "0"])
        assert "positive variation target" in capsys.readouterr().err

    def test_time_limit_zero_rejected(self, model_path, capsys):
        with pytest.raises(SystemExit):
            main(["certify", model_path, "--delta", "0.01",
                  "--time-limit", "0"])
        err = capsys.readouterr().err
        assert "must be > 0" in err

    @pytest.mark.parametrize("command", ["certify", "batch"])
    def test_unknown_backend_is_a_usage_error(self, model_path, capsys, command):
        # HiGHS is the only solver and --backend is gone: an old script
        # passing it fails loudly instead of running.
        with pytest.raises(SystemExit) as exit_info:
            main([command, model_path, "--delta", "0.01", "--backend", "scipy"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --backend scipy" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["certify", "--window", "0"], "--window"),
            (["certify", "--refine", "-1"], "--refine"),
            (["batch", "--window", "0"], "--window"),
            # Before, --workers 0 died in BatchCertifier with a traceback
            # and --samples 0 printed an empty table.
            (["batch", "--workers", "0"], "--workers"),
            (["batch", "--samples", "0"], "--samples"),
            (["attack", "--samples", "0"], "--samples"),
        ],
    )
    def test_window_and_refine_range_is_a_usage_error(
        self, model_path, capsys, argv, flag
    ):
        with pytest.raises(SystemExit) as exit_info:
            main([argv[0], model_path, "--delta", "0.01", *argv[1:]])
        assert exit_info.value.code == 2
        assert f"argument {flag}: must be >= " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["certify", "batch"])
    @pytest.mark.parametrize(
        "knob,flag", [(["--max-domains", "0"], "--max-domains"),
                      (["--split-depth", "-1"], "--split-depth")],
    )
    def test_split_knob_range_is_a_usage_error(
        self, model_path, capsys, command, knob, flag
    ):
        # Before, `certify --split --max-domains 0` exited 0 with a verdict.
        with pytest.raises(SystemExit) as exit_info:
            main([command, model_path, "--delta", "0.01", "--split",
                  "--epsilon", "0.001", *knob])
        assert exit_info.value.code == 2
        assert f"argument {flag}: must be >= " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["bounds", "certify", "attack", "batch"])
    @pytest.mark.parametrize("delta", ["-0.01", "nan", "inf"])
    def test_delta_range_is_a_usage_error(self, model_path, capsys, command, delta):
        # Before, a negative --delta ended in a `Box` traceback.
        with pytest.raises(SystemExit) as exit_info:
            main([command, model_path, "--delta", delta])
        assert exit_info.value.code == 2
        assert "argument --delta: must be a finite number >= 0" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "argv,message",
        [
            # Before, --steps -1 exited 0 from an attack that ran no steps
            # and a negative --seed died in numpy's default_rng.
            (["attack", "--steps", "-1"], "argument --steps: must be >= 0"),
            (["attack", "--seed", "-1"], "argument --seed: must be >= 0"),
            (["batch", "--seed", "-1"], "argument --seed: must be >= 0"),
            # Before, an inverted domain died in the Box constructor.
            (["bounds", "--lo", "1", "--hi", "0"], "--lo 1 exceeds --hi 0"),
            (["certify", "--lo", "1", "--hi", "0"], "--lo 1 exceeds --hi 0"),
            (["attack", "--lo", "1", "--hi", "0"], "--lo 1 exceeds --hi 0"),
            (["batch", "--lo", "1", "--hi", "0"], "--lo 1 exceeds --hi 0"),
        ],
    )
    def test_attack_seed_and_domain_range_is_a_usage_error(
        self, model_path, capsys, argv, message
    ):
        with pytest.raises(SystemExit) as exit_info:
            main([argv[0], model_path, "--delta", "0.01", *argv[1:]])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

    def test_time_limit_negative_rejected(self, model_path, capsys):
        with pytest.raises(SystemExit):
            main(["certify", model_path, "--delta", "0.01",
                  "--time-limit", "-3"])
        assert "must be > 0" in capsys.readouterr().err

    def test_small_time_limit_honored_not_dropped(self, model_path, capsys):
        # Regression: `args.time_limit or 30.0` used to turn small
        # limits falsy-adjacent semantics; an explicit 0.5 must reach
        # the certifier and the run must still succeed (sound bounds).
        code = main(["certify", model_path, "--delta", "0.01",
                     "--refine", "2", "--time-limit", "0.5"])
        assert code == 0
        assert "itne-nd-lpr" in capsys.readouterr().out

    def test_time_limit_inf_allowed(self, model_path, capsys):
        assert main(["certify", model_path, "--delta", "0.01",
                     "--method", "exact", "--time-limit", "inf"]) == 0
        assert "exact" in capsys.readouterr().out

    def test_exact_dominates_cli_roundtrip(self, model_path, capsys):
        """Certify twice via CLI and parse: ours >= exact."""
        main(["certify", model_path, "--delta", "0.01", "--method", "exact"])
        exact_out = capsys.readouterr().out
        main(["certify", model_path, "--delta", "0.01"])
        ours_out = capsys.readouterr().out

        def worst(text):
            vals = [float(line.rsplit("=", 1)[1])
                    for line in text.splitlines() if "output" in line]
            return max(vals)

        assert worst(ours_out) >= worst(exact_out) - 1e-9
