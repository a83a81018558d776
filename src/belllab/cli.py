"""Command-line front end: JSON config in, JSON (or CSV for sweeps) out.

Commands
--------
corr      closed-form correlation value (unconditional, or conditional when
          a branch is given)
chsh      conditional CHSH violation quantity and report
eigen     Bell-operator spectrum vs. the closed-form largest eigenvalue
family    sweep the maximal-violation setting family over a (phi0, theta0)
          grid; CSV columns phi0, theta0, lhs, deviation
optimize  settings maximizing |<B>|: closed form for chsh, a see-saw for hardy
simulate  Monte Carlo sampling + post-selection statistics

All angles are radians.  Exit codes: 0 success, 1 config/validation or
command-line error, 2 runtime error (e.g. conditioning on a zero-probability
outcome).  The config and its ``state``, ``directions``, ``selector`` and
``family`` fields are JSON objects; a config error names its field by dotted
path, such as ``state.c1`` or ``directions.e2``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import reprlib
import sys
from math import isfinite, sqrt

import numpy as np

from . import bell, correlations, experiment, qlinalg, states

COEFF_NORM_TOL = 1e-9  # looser than internal: user-typed decimals
# cap on what one command may build: 2^n amplitudes for simulate, a 2^N x 2^N
# operator for unconditional corr, grid points for family (2^24 complex = 256 MB)
MAX_DENSE_ENTRIES = 1 << 24
# the same 256 MB for simulate's (shots, max(2, s)) int8 outcome array
MAX_SHOT_ENTRIES = 16 * MAX_DENSE_ENTRIES
# hardy see-saw restarts run one after another, about 0.12 s each at the sweep cap
MAX_RESTARTS = 1024


class ConfigError(ValueError):
    pass


def _as_int(value, name: str, allowed=None) -> int:
    """``value`` as an int in ``allowed``: a range, a tuple, or an int that is the least value allowed."""
    # JSON true/false are ints to Python and would otherwise pass as 1/0,
    # int() would parse "3" and truncate 1.5 to 1; integral floats such as 1.0 pass
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (isinstance(value, float) and not value.is_integer())):
        raise ConfigError(f"{name} must be an integer, got {reprlib.repr(value)}")
    number = int(value)
    if isinstance(allowed, int) and number < allowed:
        raise ConfigError(f"{name} must be >= {allowed}, got {number}")
    if isinstance(allowed, (range, tuple)) and number not in allowed:
        shown = f"{allowed.start}..{allowed.stop - 1}" if isinstance(allowed, range) else allowed
        raise ConfigError(f"{name} must be in {shown}, got {number}")
    return number


def _as_float(value, name: str) -> float:
    # the float counterpart of _as_int: float() would take true, "0.6" and NaN
    try:
        if not isinstance(value, bool) and isinstance(value, (int, float)) and isfinite(value):
            return float(value)
    except OverflowError:  # an integer beyond the float range
        pass
    raise ConfigError(f"{name} must be a finite number, got {reprlib.repr(value)}")


def _choice(value, name: str, choices) -> str:
    """``value`` if it is one of the string ``choices`` (a dict's keys count)."""
    if not (isinstance(value, str) and value in choices):
        raise ConfigError(f"{name} must be one of {sorted(choices)}, got {reprlib.repr(value)}")
    return value


def _object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object, got {reprlib.repr(value)}")
    return value


def _field(obj, key: str, where: str | None = None):
    """``obj[key]``, with ``obj`` the JSON object at dotted path ``where`` (None: the config)."""
    path = f"{where}.{key}" if where else key
    if key not in _object(obj, where or "config"):
        raise ConfigError(f"missing config field {path!r}")
    return obj[key]


def _array(value, name: str, length: int | None = None) -> list:
    if not (isinstance(value, list) and length in (None, len(value))):
        shape = "a JSON array" if length is None else f"a JSON array of {length}"
        raise ConfigError(f"{name} must be {shape}, got {reprlib.repr(value)}")
    return value


def _parse_direction(obj, name: str) -> states.Direction:
    # the name is the config's own key: a long one is shortened like a long value
    where = "directions." + (name if len(name) <= reprlib.aRepr.maxstring else reprlib.repr(name))
    if isinstance(obj, dict):
        obj = [_field(obj, "theta", where), _field(obj, "phi", where)]
    return states.Direction(*(_as_float(angle, where) for angle in _array(obj, where, 2)))


def _parse_directions(config: dict) -> dict:
    dirs = _object(_field(config, "directions"), "directions")
    return {name: _parse_direction(v, name) for name, v in dirs.items()}


def _parse_spec(config: dict) -> states.TriorthogonalSpec:
    st = _field(config, "state")
    n = _as_int(_field(st, "n", "state"), "state.n")
    c1 = _as_float(_field(st, "c1", "state"), "state.c1")
    c2 = _as_float(_field(st, "c2", "state"), "state.c2")
    labels = _array(_field(st, "labels", "state"), "state.labels")
    labels = tuple(_as_int(z, "state.labels") for z in labels)
    norm = c1 * c1 + c2 * c2
    if abs(norm - 1.0) > COEFF_NORM_TOL:
        raise ConfigError(f"c1^2 + c2^2 = {norm!r}, not 1 within {COEFF_NORM_TOL}")
    # renormalize the user-typed decimals so internal invariants hold exactly
    scale = sqrt(norm)
    try:
        return states.TriorthogonalSpec(n, c1 / scale, c2 / scale, labels)
    except ValueError as exc:
        raise ConfigError(str(exc))


def _settings(cls, dirs: dict):
    """Bell settings of class ``cls``, each axis read from the direction of the same name."""
    return cls(*(_field(dirs, field.name, "directions") for field in dataclasses.fields(cls)))


def _require_size(entries: int, what: str, cap: int = MAX_DENSE_ENTRIES) -> None:
    if entries > cap:
        raise ConfigError(f"{what} needs {entries} entries, above the cap of {cap}")


def _report(config: dict, results: dict, checks: list) -> str:
    report = {"command": config["command"], "config": config, "results": results, "checks": checks}
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _check(name: str, lhs: float, rhs: float, tolerance: float, upper_bound: bool = False) -> dict:
    """lhs equals rhs within tolerance, or with ``upper_bound`` lies below rhs + tolerance."""
    return {
        "name": name,
        "pass": bool(lhs <= rhs + tolerance if upper_bound else abs(lhs - rhs) <= tolerance),
        "lhs": float(lhs),
        "rhs": float(rhs),
        "tolerance": float(tolerance),
    }


def _cmd_corr(config: dict) -> str:
    spec = _parse_spec(config)
    dirs = _parse_directions(config)
    if "branch" in config:
        if spec.n != 3:
            raise ConfigError("conditional correlation requires n = 3")
        branch = _as_int(config["branch"], "branch", states.SIGNS)
        e1, e2, e3 = (_field(dirs, k, "directions") for k in ("e1", "e2", "e3"))
        kind = "conditional-plus" if branch == +1 else "conditional-minus"
        measured = states.branch_selection(spec, e3, branch)
        value = correlations.conditional_correlation_closed(spec, {1: e1, 2: e2}, measured)
        cond = states.condition_on(states.make_triorthogonal(spec), measured)
        oracle = correlations.expectation(cond.state, correlations.spin_product_operator([e1, e2]))
        checks = [_check("closed_form_vs_projection_oracle", value, oracle, 1e-10)]
    else:
        if not 1 <= len(dirs) < spec.n:
            raise ConfigError(
                f"unconditional correlation needs 1 to {spec.n - 1} directions, got {len(dirs)}"
            )
        _require_size(4 ** len(dirs), f"a {len(dirs)}-particle reduced density matrix")
        read = {i: _field(dirs, f"e{i}", "directions") for i in range(1, len(dirs) + 1)}
        kind, value = "unconditional", correlations.conditional_correlation_closed(spec, read, {})
        rho = states.reduced_density(spec, len(read))
        oracle = correlations.expectation(rho, correlations.spin_product_operator(read.values()))
        checks = [_check("closed_form_vs_operator_oracle", value, oracle, 1e-12)]
    return _report(config, {"kind": kind, "value": value}, checks)


def _cmd_chsh(config: dict) -> str:
    spec = _parse_spec(config)
    if spec.n != 3:
        raise ConfigError("chsh requires n = 3")
    dirs = _parse_directions(config)
    settings = _settings(bell.ChshSettings, dirs)
    e3 = _field(dirs, "e3", "directions")
    branch = _as_int(_field(config, "branch"), "branch", states.SIGNS)
    lhs = bell.chsh_condition_lhs(spec, settings, e3, branch)
    violated = lhs > bell.CHSH_BOUND + bell.VIOLATION_TOL
    results = {"lhs": lhs, "bound": bell.CHSH_BOUND, "violated": violated, "margin": lhs - bell.CHSH_BOUND}
    return _report(config, results, [])


def _cmd_eigen(config: dict) -> str:
    dirs = _parse_directions(config)
    kind = "hardy" if "e3" in dirs or "e3p" in dirs else "chsh"
    settings_cls, operator = bell.BELL_KINDS[kind]
    settings = _settings(settings_cls, dirs)
    evals = qlinalg.hermitian_eigen(operator(settings))
    lam = bell.lambda_closed(settings)
    top = float(max(abs(evals[0]), abs(evals[-1])))
    checks = [_check(f"{kind}_top_eigenvalue_vs_closed_form", top, lam, 1e-9)]
    results = {"kind": kind, "eigenvalues": [float(v) for v in evals], "lambda_closed": lam}
    return _report(config, results, checks)


def _grid(spec, name: str) -> tuple[float, float, int]:
    start, stop, num = _array(spec, f"family.{name}", 3)
    start, stop = (_as_float(v, f"family.{name}") for v in (start, stop))
    num = _as_int(num, f"family.{name} num", range(MAX_DENSE_ENTRIES + 1))
    # a finite span keeps every np.linspace point finite (-1e308..1e308 overflows)
    if not isfinite(stop - start):
        raise ConfigError(f"family.{name} needs a finite stop - start, got {spec!r}")
    return start, stop, num


_EQUALITIES = {"singlet": bell.singlet_equality_lhs, "triplet": bell.triplet_equality_lhs}


def _cmd_family(config: dict) -> str:
    fam = _object(_field(config, "family"), "family")
    which = _choice(fam.get("which", "singlet"), "family.which", _EQUALITIES)
    equality = _EQUALITIES[which]
    target = 2.0 * sqrt(2.0)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["phi0", "theta0", "lhs", "deviation"])
    phi_grid = _grid(_field(fam, "phi0", "family"), "phi0")
    theta_grid = _grid(_field(fam, "theta0", "family"), "theta0")
    _require_size(phi_grid[2] * theta_grid[2], "the family grid")
    for phi0 in np.linspace(*phi_grid):
        for theta0 in np.linspace(*theta_grid):
            settings = bell.maximal_family(float(phi0), float(theta0), which)
            lhs = equality(settings)
            writer.writerow([repr(float(phi0)), repr(float(theta0)), repr(lhs), repr(lhs - target)])
    return buf.getvalue()


def _cmd_optimize(config: dict) -> str:
    kind = _choice(_field(config, "kind"), "kind", bell.BELL_KINDS)
    settings_cls, _ = bell.BELL_KINDS[kind]
    spec = _parse_spec(config)
    expected_n = len(dataclasses.fields(settings_cls)) // 2
    if spec.n != expected_n:
        raise ConfigError(f"{kind} optimization requires n = {expected_n}, got n = {spec.n}")
    restarts = _as_int(config.get("restarts", 32), "restarts", range(1, MAX_RESTARTS + 1))
    seed = _as_int(config.get("seed", 0), "seed", 0)
    state = states.make_triorthogonal(spec)
    settings, value = bell.optimize_settings(state, kind, restarts=restarts, seed=seed)
    lam = bell.lambda_closed(settings)
    results = {
        "kind": kind,
        "value": float(value),
        "settings": dataclasses.asdict(settings),
        "lambda_closed_at_optimum": float(lam),
    }
    checks = [_check("value_below_spectral_ceiling", value, lam, 1e-9, upper_bound=True)]
    if kind == "chsh":
        ceiling = bell.chsh_horodecki_max(state)
        checks.append(_check("value_at_horodecki_maximum", value, ceiling, 1e-9))
    return _report(config, results, checks)


def _cmd_simulate(config: dict) -> str:
    spec = _parse_spec(config)
    _require_size(2**spec.n, f"an n={spec.n} state")
    dirs = _parse_directions(config)
    per_particle = [_field(dirs, f"e{i}", "directions") for i in range(1, spec.n + 1)]
    selector = _field(config, "selector")
    sel_particle = _as_int(_field(selector, "particle", "selector"), "selector.particle",
                           range(1, spec.n + 1))
    sel_outcome = _as_int(_field(selector, "outcome", "selector"), "selector.outcome", states.SIGNS)
    shots = _as_int(config.get("shots", 100_000), "shots", 1)
    # postselect reads the pair and the selector; by no-signalling the rest need not be sampled
    sampled = per_particle[: max(2, sel_particle)]
    _require_size(shots * len(sampled), f"{shots} shots of {len(sampled)} particles", MAX_SHOT_ENTRIES)
    seed = _as_int(config.get("seed", 0), "seed", 0)
    state = states.make_triorthogonal(spec)
    shot_array = experiment.sample_shots(state, sampled, shots, seed)
    stats = experiment.postselect(shot_array, sel_particle, sel_outcome)
    results = dataclasses.asdict(stats)
    selected = {sel_particle: (per_particle[sel_particle - 1], sel_outcome)}
    p = states.branch_probability(spec, selected)
    p_band = 5.0 * sqrt(max(p * (1.0 - p), 1e-300) / shots)
    checks = [_check("p_hat_vs_closed_form_5sigma", stats.p_hat, p, p_band)]
    if sel_particle >= 3:  # a selector inside the pair has no closed form here
        pair = {1: per_particle[0], 2: per_particle[1]}
        e_closed = correlations.conditional_correlation_closed(spec, pair, selected)
        # from the closed form, not the sample: a few agreeing shots give a sample stderr of 0
        band = max(5.0 * sqrt(max(1.0 - e_closed * e_closed, 1e-300) / stats.shots_selected), 1e-12)
        checks.append(_check("e12_hat_vs_closed_form_5sigma", stats.e12_hat, e_closed, band))
    return _report(config, results, checks)


_COMMANDS = {
    "corr": _cmd_corr,
    "chsh": _cmd_chsh,
    "eigen": _cmd_eigen,
    "family": _cmd_family,
    "optimize": _cmd_optimize,
    "simulate": _cmd_simulate,
}


def run(config: dict) -> tuple[int, str]:
    """Execute one command; returns (exit_status, serialized report)."""
    try:
        return 0, _COMMANDS[_choice(_field(config, "command"), "command", _COMMANDS)](config)
    except (states.ZeroProbability, experiment.EmptySubensemble, qlinalg.BadSubset,
            qlinalg.NotHermitian, qlinalg.NumericalFault, np.linalg.LinAlgError,
            correlations.DimensionMismatch) as exc:
        return 2, json.dumps({"command": config.get("command"), "error": str(exc)}, indent=2) + "\n"


def _config_error(path: str, message) -> int:
    print(f"config error: {path}: {message}", file=sys.stderr)
    return 1


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # argparse would print usage and exit 2, the runtime-error status
        raise ConfigError(message)


def _reject_constant(literal: str):
    # json.load takes NaN and Infinity, which no strict JSON parser reads back from a report
    raise ConfigError(f"{literal} is not a JSON number")


def main(argv=None) -> int:
    parser = _ArgumentParser(
        prog="belllab",
        description="Conditional-entanglement analyses for triorthogonal n-qubit states",
    )
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--output", default=None, help="report destination (default stdout)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--shots", type=int, default=None, help="override the config shot count")
    parser.add_argument("--restarts", type=int, default=None, help="override the optimizer restarts")
    try:
        args = parser.parse_args(argv)
    except ConfigError as exc:
        return _config_error("command line", exc)

    try:
        with open(args.config, encoding="utf-8") as fh:
            config = _object(json.load(fh, parse_constant=_reject_constant), "config")
    # ValueError: malformed JSON, non-UTF-8 bytes or a ConfigError; RecursionError: nested too deep
    except (OSError, ValueError, RecursionError) as exc:
        return _config_error(args.config, exc)
    for key in ("seed", "shots", "restarts"):
        value = getattr(args, key)
        if value is not None:
            config[key] = value

    try:
        status, payload = run(config)
    except ConfigError as exc:
        return _config_error(args.config, exc)

    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            return _config_error(args.output, exc)
    else:
        sys.stdout.write(payload)
    return status


if __name__ == "__main__":
    sys.exit(main())
