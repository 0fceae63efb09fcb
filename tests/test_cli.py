"""End-to-end tests of the command-line front end.

Exit-code contract: 0 success, 1 numerical failure, 2 configuration
error. All tables are fixed 6-decimal CSV for golden stability.
"""

import json
from pathlib import Path

import pytest

from enrichci._kernels import CondLaw
from enrichci.cli import main

DATA_DIR = Path(__file__).resolve().parent / "data"

CI_CONFIG = {
    "k": 2,
    "p": [0.5, 0.5],
    "n1": 200,
    "n2": 100,
    "sigma": 0.36,
    "rule": {"type": "d2", "threshold": 0.025},
    "co_primary": True,
    "stage1_means": [0.113, 0.013],
    "stage2_means": [0.155, -0.064],
}

SIM_CONFIG = {
    "k": 2,
    "p": [0.5, 0.5],
    "n1": 244,
    "n2": 244,
    "sigma": 8.0,
    "rule": {"type": "d2", "threshold": 1.0},
    "deltas": [0.0, 0.0],
    "replicates": 1500,
    "seed": 7,
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out.strip().splitlines(), captured.err


class TestCmdCi:
    def test_worked_example_table(self, tmp_path, capsys):
        cfg = write_config(tmp_path, CI_CONFIG)
        code, lines, _ = run(["ci", "--config", cfg], capsys)
        assert code == 0
        assert lines[0] == "decision,full"
        assert lines[1] == "target,method,lower,upper"
        cells = {}
        for row in lines[2:]:
            target, method, lo, hi = row.split(",")
            cells[(target, method)] = (float(lo), float(hi))
        assert len(cells) == 9
        assert cells[("full", "umau")][0] == pytest.approx(-0.079, abs=1e-3)
        assert cells[("full", "umau")][1] == pytest.approx(0.131, abs=1e-3)
        assert cells[("delta2", "tost")][0] == pytest.approx(-0.198, abs=1e-3)
        assert cells[("delta1", "naive")][1] == pytest.approx(0.242, abs=1e-3)

    def test_futility_prints_decision_only(self, tmp_path, capsys):
        payload = dict(CI_CONFIG, stage1_means=[0.01, 0.02])
        cfg = write_config(tmp_path, payload)
        code, lines, _ = run(["ci", "--config", cfg], capsys)
        assert code == 0
        assert lines == ["decision,stop"]

    def test_numerical_failure_exits_1(self, tmp_path, capsys, monkeypatch):
        # A CDF off by 1e-4 relative fails the solvers' slope check.
        cdf = CondLaw.cdf
        monkeypatch.setattr(CondLaw, "cdf",
                            lambda law, x: (1.0 + 1e-4) * cdf(law, x))
        cfg = write_config(tmp_path, CI_CONFIG)
        code, lines, err = run(["ci", "--config", cfg], capsys)
        assert code == 1
        assert "numerical failure" in err

    def test_missing_sigma_is_config_error(self, tmp_path, capsys):
        payload = {k: v for k, v in CI_CONFIG.items() if k != "sigma"}
        cfg = write_config(tmp_path, payload)
        code, _, err = run(["ci", "--config", cfg], capsys)
        assert code == 2
        assert "sigma" in err

    def test_unreadable_config(self, capsys):
        code, _, err = run(["ci", "--config", "/nonexistent.json"], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "key,values",
        [
            ("stage2_means", [0.155]),
            ("stage2_means", [0.155, -0.064, 0.02]),
            ("stage1_means", [0.113]),
        ],
    )
    def test_mean_count_must_match_k(self, tmp_path, capsys, key, values):
        payload = dict(CI_CONFIG, **{key: values})
        if key == "stage1_means":
            payload["rule"] = {"type": "kimani2018", "threshold": 0.025}
            payload["co_primary"] = False
        cfg = write_config(tmp_path, payload)
        code, _, err = run(["ci", "--config", cfg], capsys)
        assert code == 2
        assert f"{key} has {len(values)} entries" in err

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_co_primary_must_be_a_json_boolean(self, tmp_path, capsys, value):
        # bool("false") is True: a string would turn co-primary targets on.
        cfg = write_config(tmp_path, dict(CI_CONFIG, co_primary=value))
        code, lines, err = run(["ci", "--config", cfg], capsys)
        assert code == 2
        assert lines == []
        assert f"co_primary must be a boolean: {value!r}" in err

    def test_co_primary_false_has_no_subpopulation_targets(self, tmp_path,
                                                          capsys):
        cfg = write_config(tmp_path, dict(CI_CONFIG, co_primary=False))
        code, lines, _ = run(["ci", "--config", cfg], capsys)
        assert code == 0
        assert lines[0] == "decision,full"
        assert {row.split(",")[0] for row in lines[2:]} == {"full"}

    def test_co_primary_rejected_for_kimani_rules(self, tmp_path, capsys):
        for variant in ("kimani2015", "kimani2018"):
            payload = dict(CI_CONFIG, rule={"type": variant, "threshold": 0.02})
            cfg = write_config(tmp_path, payload)
            code, _, err = run(["ci", "--config", cfg], capsys)
            assert code == 2
            assert "co_primary" in err


@pytest.mark.parametrize(
    "command",
    [["ci", "--config", "unused.json"], ["example"]],
    ids=["ci", "example"],
)
@pytest.mark.parametrize("flag", ["--seed", "--replicates"])
def test_simulation_flags_only_on_simulate(capsys, command, flag):
    with pytest.raises(SystemExit) as info:
        main(command + [flag, "5"])
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--methods", "naive"], ["--co-primary"]])
def test_trial_flags_not_on_example(capsys, flags):
    with pytest.raises(SystemExit) as info:
        main(["example"] + flags)
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


class TestCmdSimulate:
    def test_csv_schema_and_roundtrip(self, tmp_path, capsys):
        from enrichci import DecisionRule, Scenario, TrialDesign, run_scenario

        cfg = write_config(tmp_path, SIM_CONFIG)
        code, lines, _ = run(["simulate", "--config", cfg], capsys)
        assert code == 0
        header = "branch,proportion,method,coverage,mean_width,width_ratio,mc_halfwidth"
        assert lines[0] == header

        # Parse-roundtrip against the in-memory result.
        result = run_scenario(
            Scenario(
                TrialDesign(k=2, p=(0.5, 0.5), n1=244, n2=244, sigma=8.0),
                DecisionRule("d2", 1.0),
                (0.0, 0.0),
                1500,
                7,
            )
        )
        rows = [line.split(",") for line in lines[1:]]
        by_branch = {(r[0], r[2]): r for r in rows}
        for b in result.branches:
            if not b.stats:
                row = by_branch[(b.branch, "none")]
                assert float(row[1]) == pytest.approx(b.proportion, abs=1e-6)
                continue
            for s in b.stats:
                row = by_branch[(b.branch, s.method)]
                assert float(row[1]) == pytest.approx(b.proportion, abs=1e-6)
                assert float(row[3]) == pytest.approx(s.coverage, abs=1e-6)
                assert float(row[5]) == pytest.approx(s.width_ratio, abs=1e-6)
        for s in result.overall:
            row = by_branch[("overall", s.method)]
            assert float(row[3]) == pytest.approx(s.coverage, abs=1e-6)

    def test_byte_identical_reruns(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SIM_CONFIG)
        _, first, _ = run(["simulate", "--config", cfg], capsys)
        _, second, _ = run(["simulate", "--config", cfg], capsys)
        assert first == second

    def test_single_replicate(self, tmp_path, capsys):
        payload = dict(SIM_CONFIG, replicates=1, deltas=[5.0, 5.0])
        cfg = write_config(tmp_path, payload)
        code, lines, _ = run(["simulate", "--config", cfg], capsys)
        assert code == 0
        branches = {line.split(",")[0] for line in lines[1:]}
        assert branches == {"full", "overall"}

    def test_flag_overrides(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SIM_CONFIG)
        code, lines, _ = run(
            [
                "simulate", "--config", cfg, "--replicates", "200",
                "--seed", "11", "--methods", "naive",
            ],
            capsys,
        )
        assert code == 0
        methods = {line.split(",")[2] for line in lines[1:]}
        assert methods <= {"naive", "none"}

    def test_zero_replicates_flag_is_config_error(self, tmp_path, capsys):
        # 0 is an override, not an absent flag: the scenario rejects it.
        cfg = write_config(tmp_path, SIM_CONFIG)
        code, lines, err = run(
            ["simulate", "--config", cfg, "--replicates", "0"], capsys
        )
        assert code == 2
        assert lines == []
        assert "replicates must be >= 1, got 0" in err

    @pytest.mark.parametrize("key,value", [
        ("n1", 244.9), ("n2", True), ("k", 2.5), ("replicates", 50.7),
        ("seed", 3.9), ("seed", False), ("replicates", float("inf"))])
    def test_fractional_or_bool_count_is_config_error(self, tmp_path, capsys,
                                                       key, value):
        # int() would truncate these and run a different scenario.
        cfg = write_config(tmp_path, dict(SIM_CONFIG, **{key: value}))
        code, lines, err = run(["simulate", "--config", cfg], capsys)
        assert code == 2
        assert lines == []
        assert f"{key} must be an integer, got {value!r}" in err

    def test_whole_float_count_is_an_integer(self, tmp_path, capsys):
        outputs = []
        for payload in (dict(SIM_CONFIG, replicates=50),
                        dict(SIM_CONFIG, replicates=50.0, n1=244.0, seed=7.0)):
            cfg = write_config(tmp_path, payload)
            code, lines, _ = run(["simulate", "--config", cfg], capsys)
            assert code == 0
            outputs.append(lines)
        assert outputs[0] == outputs[1]

    def test_umau_coverage_within_band(self, tmp_path, capsys):
        # Scenario 3 fast tier: every umau coverage lies in the binomial
        # band around 95% at the total replicate count.
        payload = dict(SIM_CONFIG, replicates=20_000, methods=["umau"])
        cfg = write_config(tmp_path, payload)
        code, lines, _ = run(["simulate", "--config", cfg], capsys)
        assert code == 0
        for line in lines[1:]:
            parts = line.split(",")
            if parts[2] != "umau":
                continue
            cov, prop = float(parts[3]), float(parts[1])
            # 99% binomial band at this branch's replicate count.
            band = 2.576 * (0.95 * 0.05 / (prop * 20_000)) ** 0.5
            assert abs(cov - 0.95) <= band, line

    @pytest.mark.parametrize("name", sorted(
        p.stem for p in DATA_DIR.glob("simulate-*.json")
    ))
    def test_golden_csv(self, tmp_path, name):
        # Outputs stored from an earlier version of the package: a change
        # to the draws, decisions, bounds or solvers that moves any printed
        # digit fails here. Regenerate a CSV (simulate --config NAME.json
        # --out NAME.csv) only for an intended change of results.
        out = tmp_path / "out.csv"
        code = main([
            "simulate", "--config", str(DATA_DIR / f"{name}.json"),
            "--out", str(out),
        ])
        assert code == 0
        assert out.read_bytes() == (DATA_DIR / f"{name}.csv").read_bytes()

    def test_invalid_rule_type(self, tmp_path, capsys):
        payload = dict(SIM_CONFIG, rule={"type": "d9", "threshold": 1.0})
        cfg = write_config(tmp_path, payload)
        code, _, err = run(["simulate", "--config", cfg], capsys)
        assert code == 2


class TestCmdExample:
    def test_all_nine_cells_pass(self, capsys):
        code, lines, _ = run(["example"], capsys)
        assert code == 0
        assert lines[0] == "decision,full"
        estimates = {
            line.split(",")[1]: float(line.split(",")[2])
            for line in lines if line.startswith("estimate,")
        }
        assert estimates["full"] == pytest.approx(0.057, abs=1e-3)
        assert estimates["delta1"] == pytest.approx(0.127, abs=1e-3)
        assert estimates["delta2"] == pytest.approx(-0.013, abs=1e-3)
        checks = [
            line.split(",")[-1]
            for line in lines[2:]
            if line.count(",") == 4 and not line.startswith("target,")
        ]
        assert checks and all(c == "pass" for c in checks)

    def test_mismatch_fails_nonzero(self, capsys):
        # Negative control: perturb one expected endpoint and verify the
        # failure path trips.
        from enrichci import cli

        original = dict(cli._EXAMPLE_EXPECTED)
        try:
            cli._EXAMPLE_EXPECTED[("full", "umau")] = (-0.5, 0.5)
            code, lines, err = run(["example"], capsys)
        finally:
            cli._EXAMPLE_EXPECTED.clear()
            cli._EXAMPLE_EXPECTED.update(original)
        assert code == 1
        assert "full/umau" in err

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        code = main(["example", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        assert out.read_text().startswith("decision,full")
