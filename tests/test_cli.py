import json
import math
from pathlib import Path

import numpy as np
import pytest

from disorder import (
    ModelSpec,
    ValueIterConfig,
    build_joint,
    load_spec,
    save_spec,
    spec_to_dict,
    state_init,
    state_step,
)
from disorder.cli import main
from disorder.simulate import TrajectorySampler, mix_seeds
from disorder.stopping import ValueTable, stop_decision

from conftest import make_m1, make_m2, make_m3

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture
def m2_config(tmp_path):
    path = tmp_path / "m2.json"
    save_spec(make_m2(), path)
    return str(path)


@pytest.fixture
def zero_support_config(tmp_path):
    # configs/m3.json with transition 1 -> 1 impossible under every kernel
    payload = json.loads((ROOT / "configs" / "m3.json").read_text())
    for kernels in (payload["pre_kernels"], payload["post_kernels"]):
        for kernel in kernels:
            kernel[1] = [1.0, 0.0]
    path = tmp_path / "m3_zero.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def near_one_config(tmp_path):
    # configs/m4_d1.json with p near 1: the tail bound is 99 times the last
    # growth, so decisions stay unproved and value iteration climbs to --kmax
    payload = json.loads((ROOT / "configs" / "m4_d1.json").read_text())
    payload["p"] = [[0.99], [0.98]]
    path = tmp_path / "m4_d1_near_one.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def bad_config(tmp_path):
    payload = spec_to_dict(make_m1())
    payload["p"] = [[1.0]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestValidateCommand:
    def test_good_config(self, m2_config, capsys):
        assert main(["validate", m2_config]) == 0
        assert "OK" in capsys.readouterr().out

    def test_bad_config_exit_2(self, bad_config, capsys):
        assert main(["validate", bad_config]) == 2
        captured = capsys.readouterr()
        assert "VIOLATION" in captured.out
        record = json.loads(captured.err.splitlines()[0])
        assert record["error"] == "validation"

    def test_overflowing_payoff_exit_2(self, tmp_path, capsys):
        # pre 0 -> 0 at 1e-160: the window (0, 0, 0)'s payoff coefficient overflows
        spec = ModelSpec(2, [[[1e-160, 1 - 1e-160], [0.5, 0.5]]], [[[0.5, 0.5], [0.5, 0.5]]], [[1.0]], [[0.0]], [[0.5]], 1, 0)
        path = tmp_path / "overflow.json"
        save_spec(spec, path)
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert "VIOLATION" in captured.out and "payoff coefficients overflow" in captured.out
        record = json.loads(captured.err.splitlines()[0])
        assert record["error"] == "validation"

    def test_entry_under_the_density_floor_exit_2(self, tmp_path, capsys):
        tiny = [[[1.0, 1e-301], [0.5, 0.5]]]
        path = tmp_path / "tiny.json"
        save_spec(ModelSpec(2, tiny, tiny, [[1.0]], [[0.0]], [[0.8]], 0, 0), path)
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert "VIOLATION" in captured.out and "pre kernel has entries in (0, 1e-300)" in captured.out
        record = json.loads(captured.err.splitlines()[0])
        assert record["error"] == "validation"

    def test_unknown_key_exit_2(self, tmp_path, capsys):
        payload = spec_to_dict(make_m1())
        payload["bogus"] = 1
        path = tmp_path / "unknown.json"
        path.write_text(json.dumps(payload))
        assert main(["validate", str(path)]) == 2
        record = json.loads(capsys.readouterr().err.splitlines()[0])
        assert record["error"] == "config"

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == 2


class TestUsageErrors:
    def test_no_command(self, capsys):
        assert main([]) == 1
        record = json.loads(capsys.readouterr().err.splitlines()[0])
        assert record["error"] == "usage"

    def test_unknown_rule(self, m2_config, tmp_path):
        code = main(
            [
                "evaluate", "--config", m2_config, "--rules", "wat",
                "--n", "10", "--horizon", "4", "--seed", "1",
                "--out", str(tmp_path / "r.csv"),
            ]
        )
        assert code == 1

    def test_missing_required_flag(self, m2_config):
        assert main(["simulate", "--config", m2_config, "--n", "5"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["value-iterate", "--kmax", "0"],
            ["value-iterate", "--tol", "-1"],
            ["value-iterate", "--tol", "0"],
            ["value-iterate", "--tol", "nan"],
            ["value-iterate", "--probe", "0"],
            ["evaluate", "--n", "0", "--horizon", "4", "--seed", "1", "--out", "r.csv"],
            ["evaluate", "--n", "5", "--horizon", "0", "--seed", "1", "--out", "r.csv"],
            ["evaluate", "--n", "5", "--horizon", "4", "--seed", "1", "--out", "r.csv",
             "--kmax", "0"],
            ["evaluate", "--n", "5", "--horizon", "4", "--seed", "1", "--out", "r.csv",
             "--tol", "-1e-3"],
            ["simulate", "--n", "5", "--horizon", "0", "--seed", "1", "--out", "s.csv"],
            ["simulate", "--n", "-2", "--horizon", "4", "--seed", "1", "--out", "s.csv"],
            ["oracle", "--horizon", "0"],
            ["crosscheck", "--horizon", "-1"],
        ],
    )
    def test_out_of_range_argument(self, argv, m2_config, tmp_path, monkeypatch, capsys):
        out_dir = tmp_path / "outputs"
        monkeypatch.setenv("DISORDER_OUT_DIR", str(out_dir))
        assert main(argv[:1] + ["--config", m2_config] + argv[1:]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "usage"
        assert "Traceback" not in captured.err + captured.out
        assert not out_dir.exists()


class TestSimulateCommand:
    def test_deterministic_bytes(self, m2_config, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--config", m2_config, "--n", "50", "--horizon", "6"]
        assert main(args + ["--seed", "9", "--out", str(out1)]) == 0
        assert main(args + ["--seed", "9", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[0]
        assert header.startswith("trajectory,seed,theta,beta1,beta2,x0")

    def test_different_seed_differs(self, m2_config, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--config", m2_config, "--n", "50", "--horizon", "6"]
        main(args + ["--seed", "1", "--out", str(out1)])
        main(args + ["--seed", "2", "--out", str(out2)])
        assert out1.read_bytes() != out2.read_bytes()

    def test_matches_golden(self, tmp_path, monkeypatch, capsys):
        # the golden trajectories were written by the np.random.Philox
        # sampler; the numpy Philox must reproduce them byte for byte
        monkeypatch.chdir(ROOT)
        out = tmp_path / "s.csv"
        argv = ["simulate", "--config", "configs/m3.json", "--n", "200", "--horizon", "16"]
        assert main([*argv, "--seed", "11", "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "simulate_m3.csv").read_bytes()


class TestEvaluateCommand:
    def test_deterministic_bytes(self, m2_config, tmp_path):
        args = [
            "evaluate", "--config", m2_config, "--rules", "fixed,threshold",
            "--n", "200", "--horizon", "6",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--seed", "4", "--out", str(out1)]) == 0
        assert main(args + ["--seed", "4", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_optimal_rule_and_json(self, m2_config, tmp_path, capsys):
        out = tmp_path / "r.csv"
        js = tmp_path / "r.json"
        code = main(
            [
                "evaluate", "--config", m2_config, "--rules", "optimal,fixed",
                "--n", "100", "--horizon", "6", "--seed", "3",
                "--out", str(out), "--json-out", str(js), "--kmax", "6",
            ]
        )
        assert code == 0
        assert out.exists() and js.exists()
        payload = json.loads(js.read_text())
        assert set(payload["rules"]) == {"optimal", "fixed"}

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["--config", "configs/m4.json", "--kmax", "4", "--horizon", "5"],
             "optimal: windows certified at K=2, stop after (0,2) (1,2) (2,2)"),
            (["--config", "configs/m3_d1.json", "--variant", "literal", "--kmax", "5", "--horizon", "8"],
             "optimal: 4 of 8 windows open at K=4: (0,0,1) (0,1,0) (1,0,1) (1,1,0)"),
        ],
    )
    def test_optimal_rule_explains_its_windows(self, argv, line, tmp_path, monkeypatch, capsys):
        # one stdout line on the window table, after the rules' lines; the report is unchanged
        monkeypatch.chdir(ROOT)
        out = tmp_path / "r.csv"
        assert main(["evaluate", *argv, "--rules", "fixed,optimal", "--n", "200", "--seed", "11", "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [text.split(":")[0] for text in lines[:2]] == ["fixed", "optimal"]
        assert lines[2:] == [line, f"wrote report to {out}"]
        assert main(["evaluate", *argv, "--rules", "fixed", "--n", "200", "--seed", "11", "--out", str(out)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_out_dir_override(self, m2_config, tmp_path, monkeypatch):
        monkeypatch.setenv("DISORDER_OUT_DIR", str(tmp_path / "outputs"))
        code = main(
            [
                "evaluate", "--config", m2_config, "--rules", "fixed",
                "--n", "20", "--horizon", "4", "--seed", "1", "--out", "rep.csv",
            ]
        )
        assert code == 0
        assert (tmp_path / "outputs" / "rep.csv").exists()


    @pytest.mark.parametrize(
        "golden, argv",
        [
            ("evaluate_m3.csv", ["--config", "configs/m3.json", "--rules", "fixed,threshold",
                                 "--horizon", "16"]),
            ("evaluate_m4.csv", ["--config", "configs/m4.json", "--rules", "optimal,fixed,threshold",
                                 "--kmax", "4", "--horizon", "5"]),
            ("evaluate_m3_d1_literal.csv", ["--config", "configs/m3_d1.json",
                                            "--variant", "literal",
                                            "--rules", "optimal,fixed,threshold", "--kmax", "5",
                                            "--horizon", "8"]),
        ],
    )
    def test_matches_golden(self, golden, argv, tmp_path, monkeypatch, capsys):
        # the golden reports were written by an earlier version of the
        # package; the filter and the rules must reproduce them byte for byte
        monkeypatch.chdir(ROOT)
        out = tmp_path / "r.csv"
        assert main(["evaluate", *argv, "--n", "200", "--seed", "11", "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / golden).read_bytes()


class TestBudgetErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle", "--config", "configs/m4.json", "--horizon", "16"],
            ["evaluate", "--config", "near_one_config", "--rules", "optimal", "--n", "3",
             "--horizon", "6", "--kmax", "30", "--seed", "1", "--out", "r.csv"],
        ],
    )
    def test_budget_record_and_exit_code(
        self, argv, near_one_config, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(ROOT)
        monkeypatch.setenv("DISORDER_OUT_DIR", str(tmp_path))
        argv = [near_one_config if arg == "near_one_config" else arg for arg in argv]
        assert main(argv) == 4
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "budget"
        assert "Traceback" not in captured.err + captured.out


class TestValueIterateCommand:
    def test_probe_output(self, tmp_path, capsys):
        out = tmp_path / "probes.csv"
        path = tmp_path / "m3_d1.json"
        save_spec(make_m3(d=1), path)
        code = main(
            [
                "value-iterate", "--config", str(path), "--kmax", "2",
                "--probe", "12", "--seed", "5", "--out", str(out),
            ]
        )
        assert code == 0
        text = out.read_text()
        captured = capsys.readouterr()
        assert captured.out == text
        assert captured.err == ""
        lines = text.splitlines()
        assert lines[0] == "probe,k_used,s_k,bound,stop_value,converged"
        assert len(lines) == 13
        rows = [line.split(",") for line in lines[1:]]
        assert [int(row[0]) for row in rows] == list(range(12))
        for _, k_used, s_k, bound, stop_value, converged in rows:
            s_k, bound, stop_value = float(s_k), float(bound), float(stop_value)
            assert 1 <= int(k_used) <= 2 and bound >= 0.0
            if converged == "1":
                assert stop_value < s_k or stop_value >= s_k + bound
            else:
                assert converged == "0" and int(k_used) == 2
        # m3_d1 has states that K = 2 cannot decide
        assert {row[5] for row in rows} == {"0", "1"}

    @pytest.mark.parametrize("config", sorted((ROOT / "configs").glob("*.json")), ids=lambda path: path.stem)
    def test_rows_are_per_probe_decisions(self, config, capsys):
        # the batched filter and decision give each probe the row of its own
        # state_step filter and one-row decision, byte for byte
        spec, cfg = load_spec(config), ValueIterConfig(k_max=3)
        assert main(["value-iterate", "--config", str(config), "--kmax", "3", "--probe", "16", "--seed", "5"]) == 0
        table = ValueTable(spec)
        paths = TrajectorySampler(spec, spec.d + 3).sample_batch(mix_seeds(5, np.arange(16))).observations
        lines = ["probe,k_used,s_k,bound,stop_value,converged"]
        for idx, path in enumerate(paths.tolist()):
            state = state_init(spec)
            for sym in path[1:]:
                state = state_step(spec, state, sym)
            dec = stop_decision(table, state, cfg)
            lines.append(
                f"{idx},{dec.k_used},{dec.continue_value:.17g},{dec.bound:.17g},"
                f"{dec.stop_value:.17g},{int(dec.converged)}"
            )
        assert capsys.readouterr().out == "\n".join(lines) + "\n"


class TestOracleCommand:
    def test_summary_and_dump(self, m2_config, tmp_path, capsys):
        dump = tmp_path / "dump"
        code = main(
            ["oracle", "--config", m2_config, "--horizon", "5", "--dump", str(dump)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "optimal value" in out
        assert (dump / "value_tree.csv").exists()
        assert (dump / "joint_level_5.csv").exists()

    @pytest.mark.parametrize("config", ["m2", "m3_d1"])
    @pytest.mark.parametrize("horizon", [3, 4, 5, 6])
    def test_total_mass_is_per_path_sum(self, config, horizon, capsys):
        # the line sums each path's fsum left to right, as one call per path did
        path = ROOT / "configs" / f"{config}.json"
        spec = load_spec(path)
        table = build_joint(spec, horizon)
        deep_mass = sum(math.fsum(joint.ravel()) for joint in table.levels[horizon].values())
        assert main(["oracle", "--config", str(path), "--horizon", str(horizon)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert f"paths at horizon: {spec.alphabet_size**horizon}" in lines
        assert f"total mass at horizon: {deep_mass:.15f}" in lines


class TestCrosscheckCommand:
    def test_all_identities_pass(self, tmp_path, capsys):
        path = tmp_path / "m3.json"
        save_spec(make_m3(d=1), path)
        code = main(["crosscheck", "--config", str(path), "--horizon", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        for name in (
            "path_unity",
            "joint_consistency",
            "filter_vs_oracle",
            "survival_projection",
            "lagged_change",
            "payoff_criterion",
            "multistep_composition",
            "backshift_inversion",
            "continuation_normalization",
            "predictive_chain",
            "continuation_vs_oracle",
        ):
            assert f"PASS {name}" in out

    def test_deterministic_stdout(self, m2_config, capsys):
        assert main(["crosscheck", "--config", m2_config, "--horizon", "4"]) == 0
        first = capsys.readouterr().out
        assert main(["crosscheck", "--config", m2_config, "--horizon", "4"]) == 0
        second = capsys.readouterr().out
        assert first == second


class TestZeroSupport:
    def test_crosscheck_on_a_path_under_the_density_floor(self, tmp_path, capsys):
        # valid, but a path taking the 1e-290 transition twice has probability
        # under the floor: the oracle's SupportError is one runtime record
        tiny = [[[1.0, 1e-290], [0.5, 0.5]]]
        path = tmp_path / "tiny.json"
        save_spec(ModelSpec(2, tiny, tiny, [[1.0]], [[0.0]], [[0.8]], 0, 0), path)
        assert main(["validate", str(path)]) == 0
        capsys.readouterr()
        assert main(["crosscheck", "--config", str(path), "--horizon", "4"]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and "Traceback" not in captured.err + captured.out
        assert json.loads(lines[0]) == {"error": "runtime", "detail": "path has zero probability"}

    def test_evaluate_all_rules(self, zero_support_config, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = main(
            [
                "evaluate", "--config", zero_support_config,
                "--rules", "optimal,fixed,threshold", "--n", "200", "--horizon", "8",
                "--kmax", "5", "--seed", "3", "--out", str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        assert capsys.readouterr().err == ""

    def test_crosscheck(self, zero_support_config, capsys):
        assert main(["crosscheck", "--config", zero_support_config, "--horizon", "5"]) == 0
        captured = capsys.readouterr()
        assert "FAIL" not in captured.out and captured.err == ""
