"""Command-line front end: JSON config in, JSON (or CSV for sweeps) out.

Commands
--------
corr      closed-form correlation value (unconditional, or conditional when
          a branch is given), checked against the Born-table parity
chsh      conditional CHSH violation quantity and report
eigen     Bell-operator spectrum vs. the closed-form largest eigenvalue
family    sweep the maximal-violation singlet family over a (phi0, theta0)
          grid (the triplet family is its flip and gives the same CSV);
          CSV columns phi0, theta0, lhs, deviation
optimize  settings maximizing |<B>|, in closed form for chsh and hardy
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
# cap on what one command may build: the 2^N Born table of unconditional corr's N
# directions (2^24 float64 = 128 MB), grid points for family
MAX_DENSE_ENTRIES = 1 << 24
# simulate keeps outcome counts, not shots, so this bounds the field itself, not an array
MAX_SHOTS = 1 << 28


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
        raise ConfigError(f"{name} must be >= {allowed}, got {reprlib.repr(number)}")
    if isinstance(allowed, (range, tuple)) and number not in allowed:
        shown = f"{allowed.start}..{allowed.stop - 1}" if isinstance(allowed, range) else allowed
        raise ConfigError(f"{name} must be in {shown}, got {reprlib.repr(number)}")
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
        shape = "a JSON array" if length is None else f"a JSON array of {reprlib.repr(length)}"
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
    n = _as_int(_field(st, "n", "state"), "state.n", 2)
    c1 = _as_float(_field(st, "c1", "state"), "state.c1")
    c2 = _as_float(_field(st, "c2", "state"), "state.c2")
    labels = _array(_field(st, "labels", "state"), "state.labels", n)
    labels = tuple(_as_int(z, "state.labels", states.SIGNS) for z in labels)
    norm = c1 * c1 + c2 * c2
    if abs(norm - 1.0) > COEFF_NORM_TOL:
        raise ConfigError(f"c1^2 + c2^2 = {norm!r}, not 1 within {COEFF_NORM_TOL}")
    # renormalize the user-typed decimals so internal invariants hold exactly
    scale = sqrt(norm)
    return states.TriorthogonalSpec(n, c1 / scale, c2 / scale, labels)


def _pair_names(k: int) -> tuple[str, str]:
    """The config's names for particle k's (e_k, e_k') pair of Bell axes."""
    return f"e{k}", f"e{k}p"


def _settings(n: int, dirs: dict) -> tuple:
    """Bell settings of n particles: (e_k, e_k') pairs, each axis read from the direction of its name."""
    return tuple(tuple(_field(dirs, name, "directions") for name in _pair_names(k)) for k in range(1, n + 1))


def _require_size(entries: int, what: str) -> None:
    if entries > MAX_DENSE_ENTRIES:
        raise ConfigError(f"{what} needs {entries} entries, above the cap of {MAX_DENSE_ENTRIES}")


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


def _binomial_check(name: str, k: int, trials: int, p: float) -> dict:
    """k of ``trials`` against Bin(trials, p): trials * D(k/trials || p) at most the Chernoff limit."""
    # a count p rules out reads as the largest float, not inf, which a strict JSON reader rejects
    divergence = min(experiment.binomial_divergence(k, trials, p), sys.float_info.max)
    return _check(name, divergence, 0.0, experiment.BINOMIAL_DIVERGENCE_LIMIT, upper_bound=True)


def _cmd_corr(config: dict) -> str:
    spec = _parse_spec(config)
    dirs = _parse_directions(config)
    if "branch" in config:
        if spec.n != 3:
            raise ConfigError("conditional correlation requires n = 3")
        branch = _as_int(config["branch"], "branch", states.SIGNS)
        read = {k: _field(dirs, f"e{k}", "directions") for k in (1, 2)}
        kind = "conditional-plus" if branch == +1 else "conditional-minus"
        measured = states.branch_selection(spec, _field(dirs, "e3", "directions"), branch)
        tolerance = 1e-10
    else:
        if not 1 <= len(dirs) < spec.n:
            raise ConfigError(
                f"unconditional correlation needs 1 to {spec.n - 1} directions, got {len(dirs)}"
            )
        _require_size(2 ** len(dirs), f"the {len(dirs)}-particle Born table")
        read = {i: _field(dirs, f"e{i}", "directions") for i in range(1, len(dirs) + 1)}
        kind, measured, tolerance = "unconditional", {}, 1e-12
    value = correlations.conditional_correlation_closed(spec, read, measured)
    oracle = correlations.born_table_correlation(spec, read, measured)
    return _report(config, {"kind": kind, "value": value},
                   [_check("closed_form_vs_born_table_oracle", value, oracle, tolerance)])


def _cmd_chsh(config: dict) -> str:
    spec = _parse_spec(config)
    if spec.n != 3:
        raise ConfigError("chsh requires n = 3")
    dirs = _parse_directions(config)
    settings = _settings(2, dirs)
    e3 = _field(dirs, "e3", "directions")
    branch = _as_int(_field(config, "branch"), "branch", states.SIGNS)
    lhs = bell.chsh_condition_lhs(spec, settings, e3, branch)
    violated = lhs > bell.CHSH_BOUND + bell.VIOLATION_TOL
    results = {"lhs": lhs, "bound": bell.CHSH_BOUND, "violated": violated, "margin": lhs - bell.CHSH_BOUND}
    return _report(config, results, [])


def _cmd_eigen(config: dict) -> str:
    dirs = _parse_directions(config)
    kind = "hardy" if dirs.keys() & _pair_names(3) else "chsh"
    n, beta, scale = bell.BELL_KINDS[kind]
    settings = _settings(n, dirs)
    evals = qlinalg.hermitian_eigen(scale * bell.bell_operator(settings, beta))
    lam = scale * bell.lambda_closed(settings, beta)
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


def _cmd_family(config: dict) -> str:
    fam = _object(_field(config, "family"), "family")
    n, _, scale = bell.BELL_KINDS["chsh"]
    target = scale * 2.0 ** (n - 1)  # the chsh row's top eigenvalue at right angles, Tsirelson's bound
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["phi0", "theta0", "lhs", "deviation"])
    phi_grid = _grid(_field(fam, "phi0", "family"), "phi0")
    theta_grid = _grid(_field(fam, "theta0", "family"), "theta0")
    _require_size(phi_grid[2] * theta_grid[2], "the family grid")
    for phi0 in np.linspace(*phi_grid):
        for theta0 in np.linspace(*theta_grid):
            lhs = bell.singlet_equality_lhs(bell.maximal_family(float(phi0), float(theta0)))
            writer.writerow([repr(float(phi0)), repr(float(theta0)), repr(lhs), repr(lhs - target)])
    return buf.getvalue()


def _cmd_optimize(config: dict) -> str:
    kind = _choice(_field(config, "kind"), "kind", bell.BELL_KINDS)
    expected_n, beta, scale = bell.BELL_KINDS[kind]
    spec = _parse_spec(config)
    if spec.n != expected_n:
        raise ConfigError(f"{kind} optimization requires n = {expected_n}, got n = {spec.n}")
    settings, maximum = bell.optimize_settings(spec, kind)
    # the operator route on the state vector: independent of the closed forms that found the settings
    value = abs(correlations.expectation(states.make_triorthogonal(spec), scale * bell.bell_operator(settings, beta)))
    lam = scale * bell.lambda_closed(settings, beta)
    results = {
        "kind": kind,
        "value": float(value),
        "settings": {name: dataclasses.asdict(e) for k, pair in enumerate(settings, 1)
                     for name, e in zip(_pair_names(k), pair)},
        "lambda_closed_at_optimum": float(lam),
    }
    checks = [_check("value_below_spectral_ceiling", value, lam, 1e-9, upper_bound=True)]
    name = "value_at_horodecki_maximum" if kind == "chsh" else "value_at_closed_form_maximum"
    checks.append(_check(name, value, maximum, 1e-9))
    return _report(config, results, checks)


def _cmd_simulate(config: dict) -> str:
    spec = _parse_spec(config)
    dirs = _parse_directions(config)
    per_particle = [_field(dirs, f"e{i}", "directions") for i in range(1, spec.n + 1)]
    selector = _field(config, "selector")
    sel_particle = _as_int(_field(selector, "particle", "selector"), "selector.particle",
                           range(1, spec.n + 1))
    sel_outcome = _as_int(_field(selector, "outcome", "selector"), "selector.outcome", states.SIGNS)
    shots = _as_int(config.get("shots", 100_000), "shots", range(1, MAX_SHOTS + 1))
    seed = _as_int(config.get("seed", 0), "seed", 0)
    # postselect reads the pair and the selector; by no-signalling the rest need not be sampled
    sampled = sorted({1, 2, sel_particle})
    table = states.born_table(spec, {i: per_particle[i - 1] for i in sampled}, {})
    counts = experiment.sample_shots(table, shots, seed)
    stats = experiment.postselect(counts, sampled.index(sel_particle) + 1, sel_outcome)
    results = dataclasses.asdict(stats)
    selected = {sel_particle: (per_particle[sel_particle - 1], sel_outcome)}
    p = states.branch_probability(spec, selected)
    # a selector inside the pair reads its own outcome on every kept shot: E12 = outcome * <sigma(e_other)>
    read = {i: per_particle[i - 1] for i in (1, 2) if i != sel_particle}
    sign = sel_outcome if sel_particle <= 2 else 1
    e_closed = sign * correlations.conditional_correlation_closed(spec, read, selected)
    # the selected pairs that agree: e12_hat is their exact mean of +-1 products, so this is an integer
    agree = round(stats.shots_selected * (1.0 + stats.e12_hat) / 2.0)
    checks = [_binomial_check("p_hat_vs_closed_form_chernoff", stats.shots_selected, stats.shots_total, p),
              _binomial_check("e12_hat_vs_closed_form_chernoff", agree, stats.shots_selected, (1.0 + e_closed) / 2.0)]
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


def _finite_float(literal: str) -> float:
    # json.load reads a literal beyond the float range, such as 1e999, as inf, which a report would echo as Infinity
    return _as_float(float(literal), f"number {reprlib.repr(literal)}")


def main(argv=None) -> int:
    parser = _ArgumentParser(
        prog="belllab",
        description="Conditional-entanglement analyses for triorthogonal n-qubit states",
    )
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--output", default=None, help="report destination (default stdout)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--shots", type=int, default=None, help="override the config shot count")
    try:
        args = parser.parse_args(argv)
    except ConfigError as exc:
        return _config_error("command line", exc)

    try:
        with open(args.config, encoding="utf-8") as fh:
            config = _object(json.load(fh, parse_constant=_reject_constant, parse_float=_finite_float), "config")
    # ValueError: malformed JSON, non-UTF-8 bytes or a ConfigError; RecursionError: nested too deep
    except (OSError, ValueError, RecursionError) as exc:
        return _config_error(args.config, exc)
    for key in ("seed", "shots"):
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
