"""Show that each output check passes belllab's real output and rejects a wrong one.

    PYTHONPATH=src python3 perfbench/selftest.py

Runs a few commands of every kind the workloads use, checks the true output,
then perturbs one field at a time and requires the check to name the fault.
Exits 1 if any check accepts a perturbed output or rejects a true one.  It is
a script, not a pytest module, so the repository's test suite does not
collect it.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from math import sqrt

from belllab import cli

import checks
from workloads import WORKLOADS

SMALL_SHOTS = 50_000


def _edit(text, fn):
    report = json.loads(text)
    fn(report, report["results"])
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _set(key, value):
    def fn(report, res):
        res[key] = value
    return fn


def _shift(key, delta):
    def fn(report, res):
        res[key] = res[key] + delta
    return fn


def _shift_setting(report, res):
    res["settings"]["e1"]["theta"] += 1e-3


def _shift_eigen(report, res):
    res["eigenvalues"][0] += 1e-6


def _drop_eigen(report, res):
    res["eigenvalues"].pop()


def _fail_program_check(report, res):
    report["checks"].append({"name": "injected", "pass": False})


def _family_edit(text, row_fn):
    rows = list(csv.reader(io.StringIO(text)))
    rows = rows[:1] + row_fn(rows[1:])
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _family_shift(rows):
    rows[2][2] = repr(float(rows[2][2]) + 1e-6)
    return rows


def _sigma_shift(key, sigmas):
    """Move p_hat (keeping shots_selected consistent) or e12_hat by ``sigmas`` of its band."""
    def fn(report, res):
        shots = res["shots_total"]
        if key == "p_hat":
            p = res["p_hat"]
            moved = min(int(round(res["shots_selected"] + sigmas * sqrt(p * (1 - p) * shots))), shots)
            res["shots_selected"] = moved
            res["p_hat"] = moved / shots
        else:
            e = res["e12_hat"]
            res["e12_hat"] = e + sigmas * sqrt(max(1 - e * e, 1e-6) / res["shots_selected"]) * (-1 if e > 0 else 1)
    return fn


def cases():
    """(label, config, perturbation -> expected fault text) for every check."""
    opt = WORKLOADS["optimize"].commands(0)
    chsh_opt = next(c for c in opt if c["kind"] == "chsh")
    hardy_opt = next(c for c in opt if c["kind"] == "hardy" and abs(c["state"]["c1"] * c["state"]["c2"]) > 0.4)
    cross = WORKLOADS["crosscheck"].commands(0)
    corr_c = next(c for c in cross if c["command"] == "corr" and "branch" in c)
    corr_u = next(c for c in cross if c["command"] == "corr" and "branch" not in c and c["state"]["n"] == 8)
    chsh = next(c for c in cross if c["command"] == "chsh")
    eig_c = next(c for c in cross if c["command"] == "eigen" and "e3" not in c["directions"])
    eig_h = next(c for c in cross if c["command"] == "eigen" and "e3" in c["directions"])
    fam = next(c for c in cross if c["command"] == "family")
    narrow = dict(WORKLOADS["sample_narrow"].commands(0)[0], shots=SMALL_SHOTS)
    wide = dict(next(c for c in WORKLOADS["sample_wide"].commands(0) if c["state"]["n"] == 12), shots=SMALL_SHOTS)

    json_edits = {
        "corr conditional": (corr_c, [(_shift("value", 1e-6), "corr value vs projection"),
                                      (_set("kind", "unconditional"), "kind")]),
        "corr unconditional n=8": (corr_u, [(_shift("value", 1e-6), "corr value vs projection")]),
        "chsh": (chsh, [(_shift("lhs", 1e-6), "four-term sum"),
                        (_set("lhs", 3.0), "exceeds 2*sqrt(2)"),
                        (_set("bound", 2.5), "chsh bound")]),
        "eigen chsh": (eig_c, [(_shift_eigen, "spectrum differs"), (_drop_eigen, "eigenvalues, expected")]),
        "eigen hardy": (eig_h, [(_shift_eigen, "spectrum differs"), (_set("kind", "chsh"), "kind")]),
        "optimize chsh": (chsh_opt, [(_shift("value", -1e-6), "Horodecki"),
                                     (_shift_setting, "at the reported settings"),
                                     (_fail_program_check, "program check")]),
        "optimize hardy": (hardy_opt, [(_set("value", 4.1), "exceeds 4"),
                                       (_shift("value", -0.5), "below the Mermin-setting value"),
                                       (_shift_setting, "at the reported settings")]),
        "simulate n=3": (narrow, [(_sigma_shift("p_hat", 6), "p_hat vs exact"),
                                  (_sigma_shift("e12_hat", 6), "e12_hat vs exact"),
                                  (_shift("p_hat", 1e-7), "p_hat vs shots_selected"),
                                  (_set("shots_total", SMALL_SHOTS + 1), "shots_total")]),
        "simulate n=12": (wide, [(_sigma_shift("p_hat", 6), "p_hat vs exact"),
                                 (_sigma_shift("e12_hat", 6), "e12_hat vs exact")]),
    }
    for label, (cfg, edits) in json_edits.items():
        yield label, cfg, [(lambda text, fn=fn: _edit(text, fn), want) for fn, want in edits]
    yield "family", fam, [(lambda text: _family_edit(text, _family_shift), "family lhs"),
                          (lambda text: _family_edit(text, lambda rows: rows[:-1]), "family rows"),
                          (lambda text: _family_edit(text, lambda rows: rows[-1:] + rows[1:-1] + rows[:1]), "family phi0")]


def main() -> int:
    bad = 0
    for label, cfg, edits in cases():
        status, text = cli.run(cfg)
        found = checks.problems(cfg, status, text)
        print(f"{'ok ' if not found else 'BAD'} {label}: true output passes" + (f" -- {found}" if found else ""))
        bad += bool(found)
        for perturb, want in edits:
            found = checks.problems(cfg, status, perturb(text))
            hit = any(want in p for p in found)
            print(f"{'ok ' if hit else 'BAD'} {label}: rejects output with {want!r} wrong"
                  + ("" if hit else f" -- got {found}"))
            bad += not hit
        found = checks.problems(cfg, 2, text)
        hit = any("exit status" in p for p in found)
        print(f"{'ok ' if hit else 'BAD'} {label}: rejects a non-zero exit status")
        bad += not hit
    print(f"{bad} check(s) misbehaved" if bad else "every check passes true output and rejects perturbed output")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
