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
from belllab import cli, experiment, qlinalg
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
            "family": {"which": "singlet", "phi0": [0.0, 1.0, 3], "theta0": [0.1, 0.9, 4]},
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

    @pytest.mark.parametrize("shots", [1, 2])
    def test_simulate_checks_pass_at_few_shots(self, shots):
        # at seed 1 every selected product agrees, so the sample's own stderr is 0
        config = {
            "command": "simulate",
            "state": {"n": 3, "c1": 0.8, "c2": 0.6, "labels": [1, 1, 1]},
            "directions": {"e1": [0.3, 0.1], "e2": [1.0, 0.5], "e3": [1.2, 0.0]},
            "selector": {"particle": 3, "outcome": 1},
            "shots": shots,
            "seed": 1,
        }
        status, payload = run(config)
        report = json.loads(payload)
        assert status == 0 and report["results"]["stderr"] == 0.0
        assert all(c["pass"] for c in report["checks"])

    @pytest.mark.parametrize("selector", [1, 3, 9, 14])
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
        names = ["p_hat_vs_closed_form_5sigma", "e12_hat_vs_closed_form_5sigma"]
        assert status == 0
        # a selector inside the pair gets the probability check alone
        assert [c["name"] for c in report["checks"]] == (names if selector >= 3 else names[:1])
        assert all(c["pass"] for c in report["checks"])

    def test_shot_cap_counts_sampled_particles(self, monkeypatch):
        # n = 6 with selector 3 samples particles 1..3: the cap is on shots x 3, not shots x 6
        monkeypatch.setattr(cli, "MAX_SHOT_ENTRIES", 1000)
        config = {
            "command": "simulate",
            "state": {"n": 6, "c1": cos(0.6), "c2": sin(0.6), "labels": [1, -1, 1, 1, -1, 1]},
            "directions": {f"e{i}": [0.3 * i, 0.2 * i] for i in range(1, 7)},
            "selector": {"particle": 3, "outcome": 1},
            "shots": 300,
            "seed": 3,
        }
        status, payload = run(config)
        report = json.loads(payload)
        assert status == 0 and len(report["checks"]) == 2
        assert all(c["pass"] for c in report["checks"])
        with pytest.raises(ConfigError, match="needs 1002 entries"):
            run(dict(config, shots=334))

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
    "restarts": 1,
}
CORR_CONFIG = {
    "command": "corr",
    "state": SINGLET_STATE,
    "directions": {"e1": [0.4, 0.1], "e2": [1.3, 2.0], "e3": [pi / 2, 0.9]},
}

# n = 64: the dense state (2^64 amplitudes) and a 63-particle reduced density
# matrix (4^63 entries) are far above the CLI's size cap
WIDE_STATE = {"n": 64, "c1": INV_SQRT2, "c2": INV_SQRT2, "labels": [1] * 64}


def _dirs(count):
    return {f"e{i}": [0.3, 0.0] for i in range(1, count + 1)}


# stop - start of this grid overflows to inf, so np.linspace yields non-finite angles
OVERFLOW_GRID = {"command": "family", "family": {"phi0": [0, 1, 3], "theta0": [-1e308, 1e308, 2]}}


def _with(base, **changes):
    config = json.loads(json.dumps(base))
    config.update(changes)
    return config


class TestOptimize:
    def test_chsh_report_checks_horodecki(self):
        config = _with(OPTIMIZE_CONFIG, state={"n": 2, "c1": 0.8, "c2": 0.6, "labels": [1, -1]},
                       restarts=4)
        status, payload = run(config)
        assert status == 0
        checks = {c["name"]: c for c in json.loads(payload)["checks"]}
        horodecki = checks["value_at_horodecki_maximum"]
        assert horodecki["pass"] is True
        assert horodecki["rhs"] == pytest.approx(2 * sqrt(1 + 4 * 0.8**2 * 0.6**2), abs=1e-12)

    def test_hardy_report_has_no_horodecki_check(self):
        config = _with(OPTIMIZE_CONFIG, kind="hardy", state=dict(SINGLET_STATE, c1=0.8, c2=0.6))
        status, payload = run(config)
        assert status == 0
        assert [c["name"] for c in json.loads(payload)["checks"]] == ["value_below_spectral_ceiling"]


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
    {"command": "family", "family": {"which": "triplet", "phi0": [0.0, 1.0, 2], "theta0": [0.1, 0.9, 2]}},
    OPTIMIZE_CONFIG,
    _with(OPTIMIZE_CONFIG, kind="hardy", state=dict(SINGLET_STATE, c1=0.8, c2=0.6)),
    _with(SIMULATE_CONFIG, seed=1),
]
# any JSON value; integers stay small or extreme so a mutated shots or
# restarts field cannot make one example slow
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
            _with(OPTIMIZE_CONFIG, restarts=0),
            _with(OPTIMIZE_CONFIG, restarts="x"),
            _with(CORR_CONFIG),  # unconditional with as many directions as particles
            _with(CORR_CONFIG, directions={}),
            {"command": "family", "family": [[0.0, 1.0, 3], [0.1, 0.9, 4]]},
            _with(CORR_CONFIG, branch=True),
            _with(CHSH_CONFIG, branch=True),
            _with(CORR_CONFIG, state=dict(SINGLET_STATE, labels=[True, 1, 1])),
            _with(CORR_CONFIG, state=dict(SINGLET_STATE, c1=float("nan")), branch=1),
            _with(CORR_CONFIG, state=dict(SINGLET_STATE, c2=float("nan")), branch=1),
            _with(SIMULATE_CONFIG, shots=1.5),
            _with(OPTIMIZE_CONFIG, restarts=1.9),
            _with(SIMULATE_CONFIG, seed=0.5),
            _with(SIMULATE_CONFIG, selector={"particle": 2.5, "outcome": 1}),
            _with(SIMULATE_CONFIG, state=WIDE_STATE, directions=_dirs(64)),
            _with(CORR_CONFIG, state=WIDE_STATE, directions=_dirs(63)),
            {"command": "family", "family": {"phi0": [0.0, 1.0, 1e12], "theta0": [0.1, 0.9, 4]}},
            {"command": "family", "family": {"phi0": [0.0, float("inf"), 2], "theta0": [0.1, 0.9, 4]}},
            _with(CORR_CONFIG, command=["corr"]),
            _with(SIMULATE_CONFIG, shots=10**30),
            _with(SIMULATE_CONFIG, shots=10**10),
            _with(OPTIMIZE_CONFIG, restarts=10**30),
            _with(OPTIMIZE_CONFIG, restarts=1e308),
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
            {"command": "family",
             "family": {"which": [0] * 100_000, "phi0": [0.0, 1.0, 3], "theta0": [0.1, 0.9, 4]}},
            _with(CORR_CONFIG, directions={"x" * 100_000: 5}),
        ],
        ids=[
            "shots-string", "shots-infinite", "seed-negative", "selector-particle-4",
            "selector-outcome-0", "selector-outcome-true", "restarts-0", "restarts-string",
            "corr-n-directions", "corr-no-directions", "family-not-object", "corr-branch-true",
            "chsh-branch-true", "labels-true", "c1-nan", "c2-nan", "shots-1.5",
            "restarts-1.9", "seed-0.5", "selector-particle-2.5", "simulate-n-64",
            "corr-63-directions", "family-1e12-points", "family-infinite-stop",
            "command-not-string", "shots-1e30", "shots-1e10-n3", "restarts-1e30",
            "restarts-1e308", "family-overflowing-span", "labels-string", "c1-true",
            "direction-string", "n-string", "c1-string", "direction-object-strings",
            "direction-booleans", "family-grid-string", "config-3", "config-null",
            "config-array", "config-string", "command-1e5-array", "kind-1e5-array",
            "family-which-1e5-array", "direction-name-1e5",
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
         "seed-not-int", "no-config-flag", "unknown-flag", "config-3-seed-override", "config-nan-literal"],
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
        }[case]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:") and captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("fault", ["probability-sum", "eigensolver-no-convergence"])
    def test_numerical_fault_exits_2(self, tmp_path, capsys, monkeypatch, fault):
        if fault == "probability-sum":  # a basis scaled off unitarity breaks the Born-rule sum
            basis = experiment.measurement_basis
            monkeypatch.setattr(experiment, "measurement_basis", lambda d: 1.01 * basis(d))
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
