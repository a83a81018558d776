"""Output checks that do not rely on the program's own numbers.

Each check rebuilds what a command should report with this file's own numpy
code (Pauli matrices, Kronecker products, projectors, ``eigvalsh``) or tests a
property the method must have.  Nothing here imports belllab.  ``problems``
returns a list of human-readable faults; an empty list means the output passed.

Conventions shared with the program's input format: particle 1 is the most
significant index bit, bit 0 is spin up along z, a direction is [theta, phi]
and a conditional ``branch`` b selects the runs where particle 3 gave b*z3.
"""

from __future__ import annotations

import csv
import io
import json
from math import sqrt

import numpy as np

TOL = 1e-9
SIGMAS = 5.0

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_I = np.eye(2, dtype=complex)


def spin(d) -> np.ndarray:
    theta, phi = d
    st = np.sin(theta)
    return st * np.cos(phi) * _X + st * np.sin(phi) * _Y + np.cos(theta) * _Z


def kron_all(ops) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for op in ops:
        out = np.kron(out, op)
    return out


def state_vector(st: dict) -> np.ndarray:
    c1, c2, labels = st["c1"], st["c2"], st["labels"]
    up, down = np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)
    plus = kron_all(up if z == 1 else down for z in labels)
    minus = kron_all(down if z == 1 else up for z in labels)
    psi = (c1 * plus + c2 * minus).reshape(-1)
    return psi / np.linalg.norm(psi)


def _mean(psi: np.ndarray, op: np.ndarray) -> float:
    """<psi| op (x) 1 |psi> for an operator on the leading particles."""
    m = psi.reshape(op.shape[0], -1)
    return float(np.real(np.vdot(m, op @ m)))


def _projector(d, outcome: int) -> np.ndarray:
    return (_I + outcome * spin(d)) / 2.0


def conditional_e12(psi, d1, d2, d3, outcome):
    """(p, E12) for three particles when particle 3 gives ``outcome`` along d3."""
    p = _mean(psi, kron_all([_I, _I, _projector(d3, outcome)]))
    e = _mean(psi, kron_all([spin(d1), spin(d2), _projector(d3, outcome)])) / p
    return p, e


def chsh_op(s) -> np.ndarray:
    a, ap, b, bp = (spin(s[k]) for k in ("e1", "e1p", "e2", "e2p"))
    return np.kron(a, b + bp) + np.kron(ap, b - bp)


def hardy_op(s) -> np.ndarray:
    a, ap, b, bp, c, cp = (spin(s[k]) for k in ("e1", "e1p", "e2", "e2p", "e3", "e3p"))
    return np.kron(np.kron(a, bp) + np.kron(ap, b), cp) + np.kron(np.kron(ap, bp) - np.kron(a, b), c)


def _close(found, want, tol, what, out):
    if not abs(float(found) - float(want)) <= tol:
        out.append(f"{what}: {found!r} differs from {want!r} by more than {tol:g}")


# --- per-command checks -----------------------------------------------------


def _check_corr(cfg, res, out):
    psi = state_vector(cfg["state"])
    dirs = cfg["directions"]
    if "branch" in cfg:
        outcome = cfg["branch"] * cfg["state"]["labels"][2]
        _, want = conditional_e12(psi, dirs["e1"], dirs["e2"], dirs["e3"], outcome)
        kind = "conditional-plus" if cfg["branch"] == 1 else "conditional-minus"
    else:
        ops = [spin(dirs[f"e{i}"]) for i in range(1, len(dirs) + 1)]
        want = _mean(psi, kron_all(ops))
        kind = "unconditional"
    if res.get("kind") != kind:
        out.append(f"kind {res.get('kind')!r}, expected {kind!r}")
    _close(res["value"], want, TOL, "corr value vs projection", out)


def _check_chsh(cfg, res, out):
    psi = state_vector(cfg["state"])
    d = cfg["directions"]
    outcome = cfg["branch"] * cfg["state"]["labels"][2]
    terms = [conditional_e12(psi, d[a], d[b], d["e3"], outcome)[1]
             for a, b in (("e1", "e2"), ("e1", "e2p"), ("e1p", "e2"), ("e1p", "e2p"))]
    want = abs(terms[0] + terms[1] + terms[2] - terms[3])
    if not res["lhs"] <= 2.0 * sqrt(2.0) + TOL:
        out.append(f"chsh lhs {res['lhs']!r} exceeds 2*sqrt(2)")
    _close(res["lhs"], want, TOL, "chsh lhs vs four-term sum", out)
    _close(res["bound"], 2.0, 0.0, "chsh bound", out)


def _check_eigen(cfg, res, out):
    d = cfg["directions"]
    hardy = "e3" in d or "e3p" in d
    op = hardy_op(d) if hardy else chsh_op(d)
    want = np.sort(np.linalg.eigvalsh(op))[::-1]
    got = np.asarray(res["eigenvalues"], dtype=float)
    if res.get("kind") != ("hardy" if hardy else "chsh"):
        out.append(f"kind {res.get('kind')!r} for directions {sorted(d)}")
    if got.shape != want.shape:
        out.append(f"{got.size} eigenvalues, expected {want.size}")
        return
    worst = float(np.max(np.abs(got - want)))
    if not worst <= TOL:
        out.append(f"spectrum differs from eigvalsh by {worst:.3g}")


def _check_optimize(cfg, res, out):
    psi = state_vector(cfg["state"])
    c1, c2 = cfg["state"]["c1"], cfg["state"]["c2"]
    value = res["value"]
    settings = {k: (v["theta"], v["phi"]) for k, v in res["settings"].items()}
    if cfg["kind"] == "chsh":
        at_settings = abs(_mean(psi, chsh_op(settings)))
        # Horodecki: max <B_CHSH> = 2 sqrt(m1 + m2), with m1 = 1 and m2 = 4 c1^2 c2^2 here
        _close(value, 2.0 * sqrt(1.0 + 4.0 * c1 * c1 * c2 * c2), TOL, "chsh maximum vs Horodecki", out)
    else:
        at_settings = abs(_mean(psi, hardy_op(settings)))
        if not value <= 4.0 + TOL:
            out.append(f"hardy value {value!r} exceeds 4")
        if not value >= 8.0 * abs(c1 * c2) - TOL:
            out.append(f"hardy value {value!r} below the Mermin-setting value {8.0 * abs(c1 * c2)!r}")
    _close(value, at_settings, TOL, "value vs <psi|B|psi> at the reported settings", out)


def _check_simulate(cfg, res, out):
    st, d, sel = cfg["state"], cfg["directions"], cfg["selector"]
    shots = cfg["shots"]
    if sel["particle"] != 3:
        out.append("checks cover selector particle 3 only")
        return
    if st["n"] == 3:
        branches = [(1.0, state_vector(st))]
    else:
        # particles 1-3 of an n > 3 triorthogonal state are in the classical
        # mixture c1^2 |z><z| + c2^2 |-z><-z|, whatever is done to the rest
        head = dict(st, n=3, labels=st["labels"][:3])
        branches = [(st["c1"] ** 2, state_vector(dict(head, c1=1.0, c2=0.0))),
                    (st["c2"] ** 2, state_vector(dict(head, c1=0.0, c2=1.0)))]
    select = kron_all([_I, _I, _projector(d["e3"], sel["outcome"])])
    pair = kron_all([spin(d["e1"]), spin(d["e2"]), _projector(d["e3"], sel["outcome"])])
    p = sum(w * _mean(v, select) for w, v in branches)
    e = sum(w * _mean(v, pair) for w, v in branches) / p
    if res["shots_total"] != shots:
        out.append(f"shots_total {res['shots_total']} != {shots}")
    selected = res["shots_selected"]
    _close(res["p_hat"], selected / shots, 0.0, "p_hat vs shots_selected/shots", out)
    _close(res["p_hat"], p, SIGMAS * sqrt(p * (1.0 - p) / shots), "p_hat vs exact (5 sigma)", out)
    band = SIGMAS * sqrt(max(1.0 - e * e, 0.0) / max(selected, 1))
    _close(res["e12_hat"], e, max(band, TOL), "e12_hat vs exact (5 sigma)", out)


def _check_family(cfg, text, out):
    fam = cfg["family"]
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["phi0", "theta0", "lhs", "deviation"]:
        out.append("family CSV header missing")
        return
    grid = [(p, t) for p in np.linspace(*fam["phi0"]) for t in np.linspace(*fam["theta0"])]
    body = rows[1:]
    if len(body) != len(grid):
        out.append(f"{len(body)} family rows, expected {len(grid)}")
        return
    for (phi0, theta0), row in zip(grid, body):
        _close(float(row[0]), phi0, 0.0, "family phi0", out)
        _close(float(row[1]), theta0, 0.0, "family theta0", out)
        _close(float(row[2]), 2.0 * sqrt(2.0), TOL, f"family lhs at ({phi0:.3f}, {theta0:.3f})", out)


_JSON_CHECKS = {
    "corr": _check_corr,
    "chsh": _check_chsh,
    "eigen": _check_eigen,
    "optimize": _check_optimize,
    "simulate": _check_simulate,
}


def problems(cfg: dict, status: int, text: str) -> list:
    """Faults in one command's (exit status, output) pair; [] when it is correct."""
    out = []
    if status != 0:
        return [f"exit status {status}: {text.strip()[:200]}"]
    try:
        if cfg["command"] == "family":
            _check_family(cfg, text, out)
            return out
        report = json.loads(text)
        if report.get("command") != cfg["command"] or report.get("config") != cfg:
            out.append("report does not echo its command and config")
        for chk in report.get("checks", []):
            if chk.get("pass") is not True:
                out.append(f"program check {chk.get('name')!r} failed")
        _JSON_CHECKS[cfg["command"]](cfg, report["results"], out)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        out.append(f"malformed output: {type(exc).__name__}: {exc}")
    return out
