import json
import os
import subprocess
import sys
from math import cos, pi, sin, sqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import belllab
from belllab import cli, correlations, experiment, qlinalg, states
from belllab.cli import ConfigError, main, run

INV_SQRT2 = 1 / sqrt(2)

SINGLET_STATE = {"n": 3, "c1": INV_SQRT2, "c2": -INV_SQRT2, "labels": [1, -1, 1]}

CHSH_CONFIG = {
    "command": "chsh",
    "state": SINGLET_STATE,
    "branch": 1,
    "directions": {
        "e1": [0.0, 0.0],
        "e1p": [pi / 2, 0.0],
        "e2": [pi / 4, 0.0],
        "e2p": [-pi / 4, 0.0],
        "e3": [pi / 2, 0.0],
    },
}

# a correct program's sampled checks in the tails of the binomial: a rare selection (p = 1.05e-3,
# so most runs of 100 shots select nothing) and a near-perfect conditional correlation
RARE_SELECTION = {
    "command": "simulate",
    "state": {"n": 3, "c1": cos(0.02), "c2": sin(0.02), "labels": [1, 1, 1]},
    "directions": {"e1": [0.3, 0.1], "e2": [1.1, 2.0], "e3": [0.05, 0.0]},
    "selector": {"particle": 3, "outcome": -1},
    "shots": 100,
}
SHARP_CORRELATION = {
    "command": "simulate",
    "state": {"n": 3, "c1": cos(0.4), "c2": sin(0.4), "labels": [1, 1, 1]},
    "directions": {"e1": [0.001, 0.0], "e2": [0.001, 0.0], "e3": [pi / 2, 0.0]},
    "selector": {"particle": 3, "outcome": 1},
    "shots": 20000,
}


def write_config(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


class TestRun:
    def test_chsh_singlet_maximal(self):
        status, payload = run(dict(CHSH_CONFIG))
        assert status == 0
        report = json.loads(payload)
        assert report["command"] == "chsh"
        assert report["results"]["lhs"] == pytest.approx(2 * sqrt(2), abs=1e-9)
        assert report["results"]["violated"] is True
        assert report["results"]["bound"] == 2.0

    def test_chsh_verdict_and_margin(self):
        # with e3 along z the kept pair is a product state: |S| stays below the bound
        config = {**CHSH_CONFIG, "directions": {**CHSH_CONFIG["directions"], "e3": [0.0, 0.0]}}
        for cfg, violated in ((CHSH_CONFIG, True), (config, False)):
            status, payload = run(cfg)
            results = json.loads(payload)["results"]
            assert status == 0 and results["violated"] is violated and results["bound"] == 2.0
            assert results["margin"] == results["lhs"] - 2
        assert results["lhs"] == pytest.approx(sqrt(2), abs=1e-12)

    def test_config_echoed(self):
        _, payload = run(dict(CHSH_CONFIG))
        assert json.loads(payload)["config"] == CHSH_CONFIG

    def test_corr_unconditional(self):
        config = {
            "command": "corr",
            "state": {"n": 3, "c1": 1.0, "c2": 0.0, "labels": [1, -1, 1]},
            "directions": {"e1": [0.3, 0.0], "e2": [1.1, 0.5]},
        }
        status, payload = run(config)
        report = json.loads(payload)
        assert status == 0
        assert report["results"]["kind"] == "unconditional"
        assert report["results"]["value"] == pytest.approx(-cos(0.3) * cos(1.1), abs=1e-12)
        assert "violated" not in report["results"]
        assert all(c["pass"] for c in report["checks"])

    def test_corr_unconditional_one_direction(self):
        # one particle read: <sigma(e1)> = (c1^2 - c2^2) z1 cos(theta1)
        config = {
            "command": "corr",
            "state": {"n": 3, "c1": 0.8, "c2": 0.6, "labels": [-1, 1, 1]},
            "directions": {"e1": [0.3, 0.2]},
        }
        status, payload = run(config)
        report = json.loads(payload)
        assert status == 0 and report["results"]["kind"] == "unconditional"
        assert report["results"]["value"] == pytest.approx((0.8**2 - 0.6**2) * -1 * cos(0.3), abs=1e-12)
        assert [c["pass"] for c in report["checks"]] == [True]

    def test_corr_conditional_check_passes(self):
        config = {
            "command": "corr",
            "state": dict(SINGLET_STATE),
            "branch": 1,
            "directions": {"e1": [0.4, 0.1], "e2": [1.3, 2.0], "e3": [pi / 2, 0.9]},
        }
        status, payload = run(config)
        report = json.loads(payload)
        assert status == 0 and report["results"]["kind"] == "conditional-plus"
        assert all(c["pass"] for c in report["checks"])

    def test_corr_check_sees_a_branch_factor_swap(self, monkeypatch):
        # the Born-table oracle reads states.branch_factors on its read side too, where the closed
        # form keeps its cos/sin formula: swapping f and g moves the two routes apart
        config = {
            "command": "corr",
            "state": {"n": 3, "c1": 0.6, "c2": 0.8, "labels": [1, 1, 1]},
            "branch": 1,
            "directions": {"e1": [0.4, 0.3], "e2": [1.2, 0.5], "e3": [0.9, 0.7]},
        }
        status, payload = run(config)
        assert status == 0 and [c["pass"] for c in json.loads(payload)["checks"]] == [True]
        branch_factors = states.branch_factors
        monkeypatch.setattr(states, "branch_factors", lambda spec, p, d: branch_factors(spec, p, d)[::-1])
        status, payload = run(config)
        checks = json.loads(payload)["checks"]
        assert status == 0 and [(c["name"], c["pass"]) for c in checks] == [("closed_form_vs_born_table_oracle", False)]

    def test_corr_builds_no_state_or_operator(self, monkeypatch):
        # both kinds check the closed form against the Born-table parity: no 2^n state,
        # no projection, no reduced density and no Kronecker product is reached
        def unreachable(*args):
            raise AssertionError("corr built a dense state or operator")

        for module, name in ((qlinalg, "tensor_product"), (states, "make_triorthogonal"),
                             (states, "condition_on"), (states, "reduced_density")):
            monkeypatch.setattr(module, name, unreachable)
        for config in (_with(CORR_CONFIG, branch=-1), _with(CORR_CONFIG, directions=_dirs(2))):
            status, payload = run(config)
            report = json.loads(payload)
            assert status == 0 and [c["pass"] for c in report["checks"]] == [True]

    def test_corr_unconditional_past_twelve_directions(self):
        # 13 read particles: a 2^13 Born table, where a 4^13-entry reduced density was over the cap
        config = _with(CORR_CONFIG, state=dict(WIDE_STATE, n=14, labels=[1, -1] * 7), directions=_dirs(13))
        status, payload = run(config)
        report = json.loads(payload)
        assert status == 0 and report["results"]["kind"] == "unconditional"
        assert [c["pass"] for c in report["checks"]] == [True]

    def test_corr_cap_is_on_the_born_table(self, monkeypatch):
        # the cap counts the 2^N table of N directions, not a 4^N operator
        monkeypatch.setattr(cli, "MAX_DENSE_ENTRIES", 32)
        wide = dict(WIDE_STATE, n=7, labels=[1] * 7)
        with pytest.raises(ConfigError, match="6-particle Born table needs 64 entries"):
            run(_with(CORR_CONFIG, state=wide, directions=_dirs(6)))
        status, payload = run(_with(CORR_CONFIG, state=wide, directions=_dirs(5)))
        assert status == 0 and all(c["pass"] for c in json.loads(payload)["checks"])

    def test_eigen_check_passes(self):
        config = {"command": "eigen", "directions": dict(CHSH_CONFIG["directions"])}
        del config["directions"]["e3"]
        status, payload = run(config)
        report = json.loads(payload)
        assert status == 0 and report["results"]["kind"] == "chsh"
        assert report["checks"][0]["pass"] is True
        assert len(report["results"]["eigenvalues"]) == 4

    def test_family_csv(self):
        config = {
            "command": "family",
            "family": {"phi0": [0.0, 1.0, 3], "theta0": [0.1, 0.9, 4]},
        }
        status, payload = run(config)
        assert status == 0
        lines = payload.strip().splitlines()
        assert lines[0].split(",") == ["phi0", "theta0", "lhs", "deviation"]
        assert len(lines) == 1 + 3 * 4
        for line in lines[1:]:
            _, _, lhs, deviation = (float(v) for v in line.split(","))
            assert lhs == pytest.approx(2 * sqrt(2), abs=1e-12)
            assert deviation == pytest.approx(0.0, abs=1e-12)

    def test_family_cap_is_on_the_grid_size(self, monkeypatch):
        # the cap bounds phi0 points x theta0 points, not either count alone
        monkeypatch.setattr(cli, "MAX_DENSE_ENTRIES", 100)
        with pytest.raises(ConfigError, match="family grid needs 110 entries"):
            run({"command": "family", "family": {"phi0": [0.0, 1.0, 11], "theta0": [0.1, 0.9, 10]}})
        status, payload = run({"command": "family", "family": {"phi0": [0.0, 1.0, 10], "theta0": [0.1, 0.9, 10]}})
        assert status == 0 and len(payload.strip().splitlines()) == 1 + 100

    def test_simulate_checks_pass(self):
        config = {
            "command": "simulate",
            "state": dict(SINGLET_STATE),
            "directions": {"e1": [0.0, 0.0], "e2": [pi / 4, 0.0], "e3": [pi / 2, 0.0]},
            "selector": {"particle": 3, "outcome": 1},
            "shots": 50000,
            "seed": 7,
        }
        status, payload = run(config)
        report = json.loads(payload)
        assert status == 0
        assert report["results"]["shots_total"] == 50000
        assert all(c["pass"] for c in report["checks"])
        results = report["results"]
        assert results["stderr"] == sqrt(max(0.0, 1.0 - results["e12_hat"] ** 2) / results["shots_selected"])

    @pytest.mark.parametrize("module, name, failing", [
        (states, "branch_probability", "p_hat_vs_closed_form_chernoff"),
        (correlations, "conditional_correlation_closed", "e12_hat_vs_closed_form_chernoff"),
    ], ids=["p_hat", "e12_hat"])
    def test_simulate_check_fails_on_a_shifted_closed_form(self, monkeypatch, module, name, failing):
        # a closed form off by 0.05 puts N D(k/N || p) at 242 (p_hat) or 59 (e12_hat) at 50000
        # shots, far above the limit of 15.07: the check reports it, and the command still exits 0
        closed = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: closed(*args) + 0.05)
        status, payload = run(_with(SIMULATE_CONFIG, shots=50000, seed=7))
        checks = json.loads(payload)["checks"]
        assert status == 0 and failing in [c["name"] for c in checks]
        assert all(c["pass"] is (c["name"] != failing) for c in checks)

    def test_simulate_check_on_a_count_the_closed_form_rules_out(self, monkeypatch):
        # a closed form of e = 1 rules out the disagreeing pairs the sample holds: N D is
        # infinite, reported as the largest float so that the report stays strict JSON
        monkeypatch.setattr(correlations, "conditional_correlation_closed", lambda *args: 1.0)
        status, payload = run(_with(SIMULATE_CONFIG, shots=50000, seed=7))
        checks = json.loads(payload, parse_constant=lambda literal: pytest.fail(f"{literal} in a report"))["checks"]
        assert status == 0 and [c["pass"] for c in checks] == [True, False]
        assert checks[1]["lhs"] == sys.float_info.max

    @pytest.mark.parametrize("config, ran", [
        pytest.param(RARE_SELECTION, 87, id="rare-selection"),
        pytest.param(SHARP_CORRELATION, 1000, id="sharp-correlation"),
    ])
    def test_simulate_checks_hold_over_seeds(self, config, ran):
        # a correct program over seeds 0-999: the normal 5 sigma bands failed p_hat at
        # seeds 159, 406, 595, 658, 701 and 852 of the rare selection (p = 1.05e-3 at 100
        # shots), and e12_hat at seeds 159 and 658 of the sharp correlation (e = 1 - 2.8e-7)
        statuses, failed = [], []
        for seed in range(1000):
            status, payload = run(_with(config, seed=seed))
            statuses.append(status)
            if status == 0:
                failed += [(seed, c["name"]) for c in json.loads(payload)["checks"] if not c["pass"]]
            else:  # an empty subensemble, the only runtime error either config can meet
                assert status == 2 and "no shot matched" in json.loads(payload)["error"]
        assert failed == [] and statuses.count(0) == ran

    @pytest.mark.parametrize("outcome", [1, -1])
    def test_simulate_checks_at_certain_outcomes(self, outcome):
        # GHZ along x: the selector's outcome fixes the pair's product, so e = +-1 and every
        # selected pair agrees (+1) or none does (-1); with c2 = 0 and e3 = z the selection
        # has p = 1 (outcome +1) or p = 0, which no shot matches (exit 2)
        ghz = _with(SIMULATE_CONFIG, state={"n": 3, "c1": INV_SQRT2, "c2": INV_SQRT2, "labels": [1, 1, 1]},
                    directions={f"e{i}": [pi / 2, 0.0] for i in (1, 2, 3)},
                    selector={"particle": 3, "outcome": outcome}, shots=20000, seed=3)
        status, payload = run(ghz)
        report = json.loads(payload)
        assert status == 0 and report["results"]["e12_hat"] == outcome
        assert all(c["pass"] for c in report["checks"]) and 0.0 <= report["checks"][1]["lhs"] <= 1e-10
        product = _with(ghz, state={"n": 3, "c1": 1.0, "c2": 0.0, "labels": [1, 1, 1]},
                        directions={"e1": [0.3, 0.1], "e2": [1.1, 2.0], "e3": [0.0, 0.0]})
        status, payload = run(product)
        if outcome == 1:
            report = json.loads(payload)
            assert status == 0 and report["results"]["p_hat"] == 1.0
            assert report["checks"][0]["lhs"] == 0.0 and all(c["pass"] for c in report["checks"])
        else:
            assert status == 2 and "no shot matched" in json.loads(payload)["error"]

    @pytest.mark.parametrize("shots", [1, 2])
    def test_simulate_checks_pass_at_few_shots(self, shots):
        # at seed 4 every shot is selected and every selected product agrees, so the
        # sample's own stderr is 0
        config = {
            "command": "simulate",
            "state": {"n": 3, "c1": 0.8, "c2": 0.6, "labels": [1, 1, 1]},
            "directions": {"e1": [0.3, 0.1], "e2": [1.0, 0.5], "e3": [1.2, 0.0]},
            "selector": {"particle": 3, "outcome": 1},
            "shots": shots,
            "seed": 4,
        }
        status, payload = run(config)
        report = json.loads(payload)
        assert status == 0 and report["results"]["stderr"] == 0.0
        assert all(c["pass"] for c in report["checks"])

    @pytest.mark.parametrize("selector", [1, 2, 3, 9, 14])
    def test_simulate_wide_checks_pass(self, selector):
        # shaped like the wide benchmark's commands: n = 14, 10^6 shots, random axes
        rng = np.random.default_rng(selector)
        config = {
            "command": "simulate",
            "state": {"n": 14, "c1": cos(0.6), "c2": -sin(0.6), "labels": [1, -1] * 7},
            "directions": {f"e{i}": [rng.uniform(0, pi), rng.uniform(0, 2 * pi)] for i in range(1, 15)},
            "selector": {"particle": selector, "outcome": -1},
            "shots": 1_000_000,
            "seed": selector,
        }
        status, payload = run(config)
        report = json.loads(payload)
        assert status == 0
        assert [c["name"] for c in report["checks"]] == ["p_hat_vs_closed_form_chernoff", "e12_hat_vs_closed_form_chernoff"]
        assert all(c["pass"] for c in report["checks"])

    @pytest.mark.parametrize("selector", [1, 2])
    @pytest.mark.parametrize("outcome", [1, -1])
    def test_simulate_selector_in_singlet_pair_exact(self, selector, outcome):
        # along one shared axis the singlet's outcomes are always opposite, whichever side selects
        config = {
            "command": "simulate",
            "state": {"n": 2, "c1": INV_SQRT2, "c2": -INV_SQRT2, "labels": [1, -1]},
            "directions": {"e1": [0.7, 1.9], "e2": [0.7, 1.9]},
            "selector": {"particle": selector, "outcome": outcome},
            "shots": 20000,
            "seed": 5,
        }
        status, payload = run(config)
        report = json.loads(payload)
        assert status == 0 and report["results"]["e12_hat"] == -1.0
        e12_check = report["checks"][1]
        assert e12_check["name"] == "e12_hat_vs_closed_form_chernoff" and e12_check["pass"] is True
        # no selected pair agrees, so lhs = -selected log(1 - q), about selected q, with q = (1 + e_closed) / 2:
        # e_closed within 1e-12 of -1 puts it below selected * 0.5e-12
        assert 0.0 <= e12_check["lhs"] <= report["results"]["shots_selected"] * 0.5e-12

    def test_shot_cap_is_on_shots_alone(self):
        # simulate holds outcome counts, not shots: the cap bounds the shots field, not
        # shots x particles, so n = 6 with selector 6 runs at MAX_SHOTS = 2^28 exactly
        config = {
            "command": "simulate",
            "state": {"n": 6, "c1": cos(0.6), "c2": sin(0.6), "labels": [1, -1, 1, 1, -1, 1]},
            "directions": {f"e{i}": [0.3 * i, 0.2 * i] for i in range(1, 7)},
            "selector": {"particle": 6, "outcome": 1},
            "shots": cli.MAX_SHOTS,
            "seed": 3,
        }
        status, payload = run(config)
        report = json.loads(payload)
        assert status == 0 and report["results"]["shots_total"] == 1 << 28
        assert all(c["pass"] for c in report["checks"])
        with pytest.raises(ConfigError, match=r"^shots must be in 1\.\.268435456, got 268435457$"):
            run(dict(config, shots=cli.MAX_SHOTS + 1))

    def test_simulate_table_entry_rounded_above_one(self):
        # a product state measured along z: |e^(-i phi/2)|^2 rounds to 1 + 4 ulp in the
        # Born table, which numpy's multinomial rejects unless it is normalised first
        config = {
            "command": "simulate",
            "state": {"n": 3, "c1": 1.0, "c2": 0.0, "labels": [1, 1, 1]},
            "directions": {"e1": [0, 5.8752333142921085], "e2": [0, 5.126159064066656],
                           "e3": [0, 0.017206504032783308]},
            "selector": {"particle": 3, "outcome": 1},
            "shots": 1000,
            "seed": 0,
        }
        status, payload = run(config)
        report = json.loads(payload)
        assert status == 0 and len(report["checks"]) == 2
        assert all(c["pass"] for c in report["checks"])

    @pytest.mark.parametrize("selector", [3, 25, 64])
    def test_simulate_wide_state(self, selector):
        # n = 64 samples a 2^3 table of particles 1, 2 and the selector, wherever it is; no 2^64 state is built
        config = _with(SIMULATE_CONFIG, state=WIDE_STATE, directions=_dirs(64),
                       selector={"particle": selector, "outcome": 1})
        status, payload = run(config)
        report = json.loads(payload)
        assert status == 0 and len(report["checks"]) == 2
        assert all(c["pass"] for c in report["checks"])

    @pytest.mark.parametrize("selector", range(1, 9))
    def test_simulate_samples_pair_and_selector_only(self, monkeypatch, selector):
        # the table is built for {1, 2, s}: at most 3 particles, whatever s is
        sizes = []

        def recording(spec, dirs, measured):
            sizes.append(len(dirs))
            return born_table(spec, dirs, measured)

        born_table = states.born_table
        monkeypatch.setattr(states, "born_table", recording)
        config = {
            "command": "simulate",
            "state": {"n": 8, "c1": cos(0.6), "c2": -sin(0.6), "labels": [1, -1, -1, 1, 1, -1, 1, 1]},
            "directions": {f"e{i}": [0.3 + 0.2 * i, 0.4 * i] for i in range(1, 9)},
            "selector": {"particle": selector, "outcome": -1},
            "shots": 20000,
            "seed": selector,
        }
        status, payload = run(config)
        assert status == 0 and all(c["pass"] for c in json.loads(payload)["checks"])
        assert sizes and max(sizes) <= 3

    @pytest.mark.parametrize("n", [3, 20])
    def test_simulate_builds_no_state(self, monkeypatch, n):
        # the table comes from the branch factors: the dense state and its rotation are never reached
        def unreachable(*args):
            raise AssertionError("simulate built the dense state")

        monkeypatch.setattr(states, "make_triorthogonal", unreachable)
        monkeypatch.setattr(experiment, "outcome_probabilities", unreachable)
        config = {
            "command": "simulate",
            "state": {"n": n, "c1": cos(0.6), "c2": sin(0.6), "labels": [1, -1] * (n // 2) + [1] * (n % 2)},
            "directions": {f"e{i}": [0.3 + 0.1 * i, 0.2 * i] for i in range(1, n + 1)},
            "selector": {"particle": n, "outcome": 1},
            "shots": 20000,
            "seed": n,
        }
        status, payload = run(config)
        report = json.loads(payload)
        assert status == 0 and len(report["checks"]) == 2
        assert all(c["pass"] for c in report["checks"])

    def test_zero_probability_is_runtime_error(self):
        config = {
            "command": "corr",
            "state": {"n": 3, "c1": 0.0, "c2": 1.0, "labels": [1, 1, 1]},
            "branch": 1,
            "directions": {"e1": [0.0, 0.0], "e2": [0.0, 0.0], "e3": [0.0, 0.0]},
        }
        status, payload = run(config)
        assert status == 2
        assert "error" in json.loads(payload)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda c: c.pop("state"),
            lambda c: c["state"].update(c1=0.9),
            lambda c: c["directions"].pop("e2p"),
            lambda c: c.update(branch=3),
            lambda c: c.update(command="nonsense"),
        ],
    )
    def test_config_errors(self, mutate):
        config = json.loads(json.dumps(CHSH_CONFIG))
        mutate(config)
        with pytest.raises(ConfigError):
            run(config)


SIMULATE_CONFIG = {
    "command": "simulate",
    "state": SINGLET_STATE,
    "directions": {"e1": [0.0, 0.0], "e2": [pi / 4, 0.0], "e3": [pi / 2, 0.0]},
    "selector": {"particle": 3, "outcome": 1},
    "shots": 1000,
}
OPTIMIZE_CONFIG = {
    "command": "optimize",
    "kind": "chsh",
    "state": {"n": 2, "c1": INV_SQRT2, "c2": INV_SQRT2, "labels": [1, -1]},
}
CORR_CONFIG = {
    "command": "corr",
    "state": SINGLET_STATE,
    "directions": {"e1": [0.4, 0.1], "e2": [1.3, 2.0], "e3": [pi / 2, 0.9]},
}

# n = 64: a 63-particle Born table (2^63 entries) is far above the CLI's size cap
WIDE_STATE = {"n": 64, "c1": INV_SQRT2, "c2": INV_SQRT2, "labels": [1] * 64}


def _dirs(count):
    return {f"e{i}": [0.3, 0.0] for i in range(1, count + 1)}


# stop - start of this grid overflows to inf, so np.linspace yields non-finite angles
OVERFLOW_GRID = {"command": "family", "family": {"phi0": [0, 1, 3], "theta0": [-1e308, 1e308, 2]}}


def _with(base, **changes):
    config = json.loads(json.dumps(base))
    config.update(changes)
    return config


# (config, field): JSON integers too large for a float, in a state field and in an angle
BEYOND_FLOAT_CASES = [
    (_with(CORR_CONFIG, state=dict(SINGLET_STATE, c1=10**400), branch=1), r"state\.c1"),
    (_with(CORR_CONFIG, directions=dict(CORR_CONFIG["directions"], e1=[10**400, 0.1]), branch=1),
     r"directions\.e1"),
]

# (config, start of the error): 1000-digit integers, each shown shortened in an error naming its field
LONG_INTEGER_CASES = [
    (_with(SIMULATE_CONFIG, shots=10**1000), "shots must be in "),
    (_with(SIMULATE_CONFIG, seed=-(10**1000)), "seed must be >= 0, got -10"),
    (_with(CORR_CONFIG, state=dict(SINGLET_STATE, labels=[10**1000, 1, 1]), branch=1), r"state\.labels must be in "),
    # a state.n that the labels do not match is reported against the labels
    (_with(CORR_CONFIG, state=dict(SINGLET_STATE, n=10**1000), branch=1), r"state\.labels must be a JSON array of 10"),
]


class TestOptimize:
    def test_chsh_report_checks_horodecki(self):
        config = _with(OPTIMIZE_CONFIG, state={"n": 2, "c1": 0.8, "c2": 0.6, "labels": [1, -1]})
        status, payload = run(config)
        assert status == 0
        checks = {c["name"]: c for c in json.loads(payload)["checks"]}
        horodecki = checks["value_at_horodecki_maximum"]
        assert horodecki["pass"] is True
        assert checks["value_below_spectral_ceiling"]["pass"] is True
        assert horodecki["rhs"] == pytest.approx(2 * sqrt(1 + 4 * 0.8**2 * 0.6**2), abs=1e-12)

    def test_hardy_report_has_no_horodecki_check(self):
        config = _with(OPTIMIZE_CONFIG, kind="hardy", state=dict(SINGLET_STATE, c1=0.8, c2=0.6))
        status, payload = run(config)
        assert status == 0
        checks = json.loads(payload)["checks"]
        assert [c["name"] for c in checks] == ["value_below_spectral_ceiling", "value_at_closed_form_maximum"]
        assert all(c["pass"] for c in checks)
        spec = belllab.TriorthogonalSpec(3, 0.8, 0.6, tuple(SINGLET_STATE["labels"]))
        assert checks[1]["rhs"] == belllab.bell.hardy_maximum(spec) == pytest.approx(8 * 0.8 * 0.6, abs=1e-12)

    @pytest.mark.parametrize("c1, c2, labels, below, maximum", [
        (0.9812522371015824, 0.19272790971506923, [1, -1, -1], 1.5129, 1.8569),
        (0.9800758871444042, -0.19862340103348639, [-1, 1, -1], 1.5573, 1.8484),
        (0.9820532517487987, 0.18860384600959393, [-1, 1, -1], 1.4818, 1.8628),
    ], ids=["seed103-20", "seed201-33", "seed268-14"])
    def test_hardy_reaches_the_maximum_where_a_seesaw_stopped_short(self, c1, c2, labels, below, maximum):
        # benchmark optimize commands on which a 2-restart see-saw ended at 8|c1 c2| (``below``), under the maximum
        state = {"n": 3, "c1": c1, "c2": c2, "labels": labels}
        status, payload = run(_with(OPTIMIZE_CONFIG, kind="hardy", state=state, restarts=2, seed=1))
        report = json.loads(payload)
        assert status == 0 and all(c["pass"] for c in report["checks"])
        assert report["results"]["value"] == pytest.approx(maximum, abs=1e-4)
        assert report["results"]["value"] > below + 0.29

    @pytest.mark.parametrize("kind, n", [("chsh", 2), ("hardy", 3)])
    def test_restarts_and_seed_are_ignored(self, kind, n):
        # the settings are in closed form: fields that once steered a see-saw are ignored like any unknown field
        spec = {"n": n, "c1": 0.8, "c2": 0.6, "labels": [1, -1, 1][:n]}
        plain = json.loads(run(_with(OPTIMIZE_CONFIG, kind=kind, state=spec))[1])
        for extra in ({"restarts": 0, "seed": -1}, {"restarts": "x", "seed": 1.5}, {"restarts": 10**30, "seed": 7}):
            status, payload = run(_with(OPTIMIZE_CONFIG, kind=kind, state=spec, **extra))
            report = json.loads(payload)
            assert status == 0
            assert (report["results"], report["checks"]) == (plain["results"], plain["checks"])

    @pytest.mark.parametrize("kind, n", [("chsh", 2), ("hardy", 3)])
    def test_settings_round_trip(self, kind, n):
        # results.settings names each axis as a config does: fed back to eigen it passes,
        # and the Bell operator at those axes gives results.value
        spec = {"n": n, "c1": 0.8, "c2": 0.6, "labels": [1, -1, 1][:n]}
        status, payload = run(_with(OPTIMIZE_CONFIG, kind=kind, state=spec))
        results = json.loads(payload)["results"]
        settings = results["settings"]
        assert status == 0
        assert set(settings) == {f"e{k}{prime}" for k in range(1, n + 1) for prime in ("", "p")}
        assert all(set(axis) == {"phi", "theta"} for axis in settings.values())
        status, payload = run({"command": "eigen", "directions": settings})
        report = json.loads(payload)
        assert status == 0 and report["results"]["kind"] == kind
        assert report["checks"] and all(c["pass"] for c in report["checks"])
        pairs = tuple((belllab.Direction(**settings[f"e{k}"]), belllab.Direction(**settings[f"e{k}p"]))
                      for k in range(1, n + 1))
        state = belllab.make_triorthogonal(belllab.TriorthogonalSpec(n, 0.8, 0.6, tuple(spec["labels"])))
        _, beta, scale = belllab.bell.BELL_KINDS[kind]
        operator = scale * belllab.bell_operator(pairs, beta)
        assert abs(belllab.expectation(state, operator)) == pytest.approx(results["value"], abs=1e-12)

    @pytest.mark.parametrize("kind, n", [("chsh", 2), ("hardy", 3)])
    def test_builds_no_density_matrix(self, monkeypatch, kind, n):
        # T comes in closed form; rho = |psi><psi| would be np.outer(psi, psi*)
        def refuse(*args, **kwargs):
            raise AssertionError("optimize built a density matrix")

        monkeypatch.setattr(np, "outer", refuse)
        spec = {"n": n, "c1": 0.8, "c2": 0.6, "labels": [1, -1, 1][:n]}
        status, payload = run(_with(OPTIMIZE_CONFIG, kind=kind, state=spec))
        assert status == 0
        assert all(c["pass"] for c in json.loads(payload)["checks"])

    def test_chsh_settings_need_no_svd(self, monkeypatch):
        # the settings are a closed form in c1 c2 and the labels, not T's singular vectors
        def refuse(*args, **kwargs):
            raise AssertionError("optimize took a singular value decomposition")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        for labels in ([1, 1], [1, -1], [-1, 1], [-1, -1]):
            status, payload = run(_with(OPTIMIZE_CONFIG, state={"n": 2, "c1": 0.8, "c2": 0.6, "labels": labels}))
            assert status == 0
            assert all(c["pass"] for c in json.loads(payload)["checks"])

    def test_chsh_builds_the_correlation_tensor_once(self, monkeypatch):
        # only the Horodecki maximum reads T; the spy replaces every module's name for it
        calls = []
        closed = correlations.correlation_tensor_closed

        def spy(spec):
            calls.append(spec)
            return closed(spec)

        for module in (correlations, belllab.bell, cli):
            if hasattr(module, "correlation_tensor_closed"):
                monkeypatch.setattr(module, "correlation_tensor_closed", spy)
        status, payload = run(_with(OPTIMIZE_CONFIG, state={"n": 2, "c1": 0.8, "c2": 0.6, "labels": [1, -1]}))
        assert status == 0 and len(calls) == 1
        assert [c["name"] for c in json.loads(payload)["checks"]] == ["value_below_spectral_ceiling",
                                                                     "value_at_horodecki_maximum"]


def test_cli_import_leaves_scipy_unloaded():
    # belllab needs no scipy: importing the CLI and running optimize chsh and hardy load none of it
    code = (
        "import sys, belllab.cli\n"
        f"assert belllab.cli.run({OPTIMIZE_CONFIG!r})[0] == 0\n"
        f"assert belllab.cli.run({_with(OPTIMIZE_CONFIG, kind='hardy', state=dict(SINGLET_STATE, c1=0.8, c2=0.6))!r})[0] == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(belllab.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"


EIGEN_CONFIG = {"command": "eigen", "directions": _dirs(1) | {"e1p": [1.2, 0.0], "e2": [0.4, 1.0], "e2p": [2.0, 0.5]}}

# one valid config per command and route; the fuzz test below mutates their leaves
FUZZ_BASES = [
    CHSH_CONFIG,
    _with(CORR_CONFIG, branch=-1),
    _with(CORR_CONFIG, directions=_dirs(2)),
    EIGEN_CONFIG,
    {"command": "eigen", "directions": {name: [0.5 * i, 0.3] for i, name in enumerate(
        ("e1", "e1p", "e2", "e2p", "e3", "e3p"))}},
    {"command": "family", "family": {"phi0": [0.0, 1.0, 2], "theta0": [0.1, 0.9, 2]}},
    OPTIMIZE_CONFIG,
    _with(OPTIMIZE_CONFIG, kind="hardy", state=dict(SINGLET_STATE, c1=0.8, c2=0.6)),
    _with(SIMULATE_CONFIG, seed=1),
]
# any JSON value; integers stay small or extreme so a mutated shots field
# cannot make one example slow
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=3)
    | st.integers(-4, 4) | st.sampled_from([2**53 + 1, 10**30, -(10**30)]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)


def _nodes(node, path=()):
    """Paths to every node of a JSON tree but its root: objects and arrays as well as leaves."""
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield path + (key,)
            yield from _nodes(child, path + (key,))


@st.composite
def mutated_configs(draw):
    """A valid config with one or two of its nodes replaced by arbitrary JSON values."""
    config = json.loads(json.dumps(draw(st.sampled_from(FUZZ_BASES))))
    paths = draw(st.lists(st.sampled_from(list(_nodes(config))), min_size=1, max_size=2, unique=True))
    # deepest first, so that replacing a node never removes the parent of a path still to come
    for path in sorted(paths, key=len, reverse=True):
        node = config
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = draw(JSON_VALUES)
    return config


class TestConfigContract:
    """Malformed configs exit 1 with a 'config error:' line, never a traceback."""

    @pytest.mark.parametrize(
        "config",
        [
            _with(SIMULATE_CONFIG, shots="many"),
            _with(SIMULATE_CONFIG, shots=float("inf")),
            _with(SIMULATE_CONFIG, seed=-1),
            _with(SIMULATE_CONFIG, selector={"particle": 4, "outcome": 1}),
            _with(SIMULATE_CONFIG, selector={"particle": 3, "outcome": 0}),
            _with(SIMULATE_CONFIG, selector={"particle": 3, "outcome": True}),
            _with(CORR_CONFIG),  # unconditional with as many directions as particles
            _with(CORR_CONFIG, directions={}),
            {"command": "family", "family": [[0.0, 1.0, 3], [0.1, 0.9, 4]]},
            _with(CORR_CONFIG, branch=True),
            _with(CHSH_CONFIG, branch=True),
            _with(CORR_CONFIG, state=dict(SINGLET_STATE, labels=[True, 1, 1])),
            _with(CORR_CONFIG, state=dict(SINGLET_STATE, c1=float("nan")), branch=1),
            _with(CORR_CONFIG, state=dict(SINGLET_STATE, c2=float("nan")), branch=1),
            _with(SIMULATE_CONFIG, shots=1.5),
            _with(SIMULATE_CONFIG, seed=0.5),
            _with(SIMULATE_CONFIG, selector={"particle": 2.5, "outcome": 1}),
            _with(CORR_CONFIG, state=WIDE_STATE, directions=_dirs(63)),
            _with(CORR_CONFIG, state=dict(WIDE_STATE, n=26, labels=[1] * 26), directions=_dirs(25)),
            {"command": "family", "family": {"phi0": [0.0, 1.0, 1e12], "theta0": [0.1, 0.9, 4]}},
            {"command": "family", "family": {"phi0": [0.0, float("inf"), 2], "theta0": [0.1, 0.9, 4]}},
            _with(CORR_CONFIG, command=["corr"]),
            _with(SIMULATE_CONFIG, shots=10**30),
            _with(SIMULATE_CONFIG, shots=10**10),
            OVERFLOW_GRID,
            _with(CORR_CONFIG, state=dict(SINGLET_STATE, labels="111"), branch=1),
            _with(CORR_CONFIG, state=dict(SINGLET_STATE, c1=True, c2=0), branch=1),
            _with(CORR_CONFIG, directions=dict(CORR_CONFIG["directions"], e1="00"), branch=1),
            _with(CORR_CONFIG, state=dict(SINGLET_STATE, n="3"), branch=1),
            _with(CORR_CONFIG, state=dict(SINGLET_STATE, c1="0.6", c2=0.8), branch=1),
            _with(CORR_CONFIG, directions=dict(CORR_CONFIG["directions"], e1={"theta": "0", "phi": "0"}),
                  branch=1),
            _with(CORR_CONFIG, directions=dict(CORR_CONFIG["directions"], e1=[True, False]), branch=1),
            {"command": "family", "family": {"phi0": "013", "theta0": [0.1, 0.9, 4]}},
            3,
            None,
            [],
            "x",
            _with(CORR_CONFIG, command=[0] * 100_000),
            _with(OPTIMIZE_CONFIG, kind=[0] * 100_000),
            _with(CORR_CONFIG, directions={"x" * 100_000: 5}),
            _with(CORR_CONFIG, state=dict(SINGLET_STATE, n=4, labels=[1, -1, 1, 1]), branch=1),
            _with(CHSH_CONFIG, state=dict(SINGLET_STATE, n=4, labels=[1, -1, 1, 1])),
            _with(OPTIMIZE_CONFIG, state=SINGLET_STATE),
            *(config for config, _ in BEYOND_FLOAT_CASES),
            *(config for config, _ in LONG_INTEGER_CASES),
        ],
        ids=[
            "shots-string", "shots-infinite", "seed-negative", "selector-particle-4",
            "selector-outcome-0", "selector-outcome-true",
            "corr-n-directions", "corr-no-directions", "family-not-object", "corr-branch-true",
            "chsh-branch-true", "labels-true", "c1-nan", "c2-nan", "shots-1.5",
            "seed-0.5", "selector-particle-2.5",
            "corr-63-directions", "corr-25-directions", "family-1e12-points", "family-infinite-stop",
            "command-not-string", "shots-1e30", "shots-1e10-n3",
            "family-overflowing-span", "labels-string", "c1-true",
            "direction-string", "n-string", "c1-string", "direction-object-strings",
            "direction-booleans", "family-grid-string", "config-3", "config-null",
            "config-array", "config-string", "command-1e5-array", "kind-1e5-array",
            "direction-name-1e5", "corr-branch-n-4", "chsh-n-4",
            "optimize-chsh-n-3", "c1-int-1e400", "direction-int-1e400",
            "shots-int-1e1000", "seed-int-minus-1e1000", "labels-int-1e1000", "n-int-1e1000",
        ],
    )
    def test_exits_1_with_config_error(self, tmp_path, capsys, config):
        with pytest.raises(ConfigError):
            run(json.loads(json.dumps(config)))
        assert main(["--config", write_config(tmp_path, config)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:")
        # one line, with any long offending value shortened
        assert captured.err.count("\n") == 1 and len(captured.err.encode()) <= 500
        assert captured.out == ""

    @pytest.mark.parametrize("config, field", BEYOND_FLOAT_CASES, ids=["c1", "direction"])
    def test_integer_beyond_float_range_names_its_field(self, config, field):
        # float() of such an integer raises OverflowError rather than returning inf
        with pytest.raises(ConfigError, match=rf"^{field} must be a finite number"):
            run(json.loads(json.dumps(config)))

    @pytest.mark.parametrize("config, start", LONG_INTEGER_CASES, ids=["shots", "seed", "labels", "n"])
    def test_long_integer_names_its_field_shortened(self, config, start):
        with pytest.raises(ConfigError, match=f"^{start}") as caught:
            run(json.loads(json.dumps(config)))
        assert "..." in str(caught.value) and len(str(caught.value)) <= 200

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @example(config=OVERFLOW_GRID)
    @given(config=mutated_configs())
    def test_mutated_configs_keep_the_contract(self, config):
        try:
            status, _ = run(config)
        except ConfigError:
            return
        assert status in (0, 2)

    def test_integral_floats_accepted(self):
        as_ints = run(_with(SIMULATE_CONFIG, seed=3))
        as_floats = run(_with(SIMULATE_CONFIG, shots=1000.0, seed=3.0))
        assert as_floats[0] == 0
        assert json.loads(as_floats[1])["results"] == json.loads(as_ints[1])["results"]

    @pytest.mark.parametrize(
        "config, same_as",
        [
            (_with(SIMULATE_CONFIG, seed=2**70), None),
            (_with(SIMULATE_CONFIG, seed=2**200), None),
            (_with(SIMULATE_CONFIG, selector={"particle": 3, "outcome": -1.0}),
             _with(SIMULATE_CONFIG, selector={"particle": 3, "outcome": -1})),
            (_with(CORR_CONFIG, branch=-1.0), _with(CORR_CONFIG, branch=-1)),
            ({"command": "family", "family": {"phi0": [0.0, 1.0, 0], "theta0": [0.1, 0.9, 4]}}, None),
        ],
        ids=["seed-2**70", "seed-2**200", "selector-outcome-float", "branch-float", "family-num-0"],
    )
    def test_integer_field_edges_accepted(self, config, same_as):
        # seeds have no upper bound; integral floats pass as +-1; a grid may be empty
        status, payload = run(json.loads(json.dumps(config)))
        assert status == 0
        if config["command"] == "family":
            assert payload.splitlines() == ["phi0,theta0,lhs,deviation"]
        elif same_as is not None:
            assert json.loads(payload)["results"] == json.loads(run(same_as)[1])["results"]


class TestMain:
    def test_chsh_end_to_end(self, tmp_path, capsys):
        path = write_config(tmp_path, CHSH_CONFIG)
        assert main(["--config", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["violated"] is True

    def test_output_file(self, tmp_path):
        path = write_config(tmp_path, CHSH_CONFIG)
        out = tmp_path / "report.json"
        assert main(["--config", path, "--output", str(out)]) == 0
        assert json.loads(out.read_text())["command"] == "chsh"

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "missing.json")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["--config", str(path)]) == 1

    @pytest.mark.parametrize(
        "case",
        ["output-in-missing-dir", "output-is-dir", "config-not-utf8", "config-nested-1e5",
         "seed-not-int", "no-config-flag", "unknown-flag", "config-3-seed-override", "config-nan-literal",
         "config-1e999-literal", "config-minus-1e999-literal", "restarts-flag"],
    )
    def test_file_errors_exit_1_with_one_line(self, tmp_path, capsys, case):
        good = write_config(tmp_path, CHSH_CONFIG)
        bad = tmp_path / "bad.json"
        if case == "config-not-utf8":
            bad.write_bytes(b'{"command": "chsh\xff"}')
        elif case == "config-nested-1e5":
            bad.write_text("[" * 100_000 + "]" * 100_000)
        elif case == "config-3-seed-override":
            bad.write_text("3")
        elif case == "config-nan-literal":  # json.dumps writes the NaN that json.load would accept
            bad.write_text(json.dumps(_with(EIGEN_CONFIG, note=float("nan"))))
        elif case.endswith("1e999-literal"):  # a literal beyond the float range, which json.load reads as +-inf
            literal = "-1e999" if "minus" in case else "1e999"
            bad.write_text(json.dumps(_with(EIGEN_CONFIG, note="?")).replace('"?"', literal))
        argv = {
            "output-in-missing-dir": ["--config", good, "--output", str(tmp_path / "missing" / "r.json")],
            "output-is-dir": ["--config", good, "--output", str(tmp_path)],
            "config-not-utf8": ["--config", str(bad)],
            "config-nested-1e5": ["--config", str(bad)],
            "seed-not-int": ["--config", good, "--seed", "abc"],
            "no-config-flag": [],
            "unknown-flag": ["--config", good, "--bogus", "1"],
            "config-3-seed-override": ["--config", str(bad), "--seed", "1"],
            "config-nan-literal": ["--config", str(bad)],
            "config-1e999-literal": ["--config", str(bad)],
            "config-minus-1e999-literal": ["--config", str(bad)],
            "restarts-flag": ["--config", good, "--restarts", "2"],  # gone with the see-saw it steered
        }[case]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:") and captured.err.count("\n") == 1
        assert captured.out == ""

    def test_overflowing_literal_shown_shortened(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(_with(EIGEN_CONFIG, note="?")).replace('"?"', "9" * 1000 + ".0"))
        assert main(["--config", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "must be a finite number" in err and "..." in err and len(err.encode()) <= 500

    @pytest.mark.parametrize("fault", ["probability-sum", "eigensolver-no-convergence"])
    def test_numerical_fault_exits_2(self, tmp_path, capsys, monkeypatch, fault):
        if fault == "probability-sum":  # a basis scaled off unitarity breaks the Born-rule sum
            basis = states.measurement_basis
            monkeypatch.setattr(states, "measurement_basis", lambda d: 1.01 * basis(d))
            config = SIMULATE_CONFIG
        else:
            def no_convergence(h):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            monkeypatch.setattr(qlinalg, "hermitian_eigen", no_convergence)
            config = EIGEN_CONFIG
        assert main(["--config", write_config(tmp_path, config)]) == 2
        captured = capsys.readouterr()
        assert "error" in json.loads(captured.out)
        assert captured.err == ""

    def test_config_error_exit_code(self, tmp_path, capsys):
        config = dict(CHSH_CONFIG, command="nonsense")
        path = write_config(tmp_path, config)
        assert main(["--config", path]) == 1
        assert "config error" in capsys.readouterr().err

    def test_simulate_reruns_byte_identical(self, tmp_path):
        config = {
            "command": "simulate",
            "state": dict(SINGLET_STATE),
            "directions": {"e1": [0.0, 0.0], "e2": [pi / 4, 0.0], "e3": [pi / 2, 0.0]},
            "selector": {"particle": 3, "outcome": 1},
            "shots": 20000,
        }
        path = write_config(tmp_path, config)
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["--config", path, "--output", str(out_a), "--seed", "3"]) == 0
        assert main(["--config", path, "--output", str(out_b), "--seed", "3"]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_seed_override_changes_results(self, tmp_path):
        config = {
            "command": "simulate",
            "state": dict(SINGLET_STATE),
            "directions": {"e1": [0.0, 0.0], "e2": [pi / 4, 0.0], "e3": [pi / 2, 0.0]},
            "selector": {"particle": 3, "outcome": 1},
            "shots": 20000,
            "seed": 0,
        }
        path = write_config(tmp_path, config)
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["--config", path, "--output", str(out_a)]) == 0
        assert main(["--config", path, "--output", str(out_b), "--seed", "1"]) == 0
        a = json.loads(out_a.read_text())["results"]
        b = json.loads(out_b.read_text())["results"]
        assert a["e12_hat"] != b["e12_hat"] or a["p_hat"] != b["p_hat"]
