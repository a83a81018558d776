"""One workload process: import belllab, warm up, then run the command list.

Started by run.py in a fresh interpreter with the checkout's ``src`` on
PYTHONPATH.  It reads its job as JSON on stdin and writes one JSON line on
stdout.  Modes:

setup  time the import of belllab.cli plus the warm-up commands, then exit
run    the same, then ``rounds`` rounds of the command list, each command
       timed and its output checked
trace  the same, but the first round runs untraced as the reference and the
       other rounds (at least one) run with layertrace's wrappers installed;
       every traced report must equal the reference byte for byte

Only the standard library is imported before set-up is timed: numpy, scipy
and belllab are all part of what set-up measures.  A stdlib-only calib kernel
is timed just before and just after set-up, to scale it to the reference host
speed.
"""

import importlib
import json
import resource
import sys
import time

import calib  # standard library only until a numpy kernel runs

# Start no new round after this long, so that a run ends well inside the 180 s
# an invocation may take even when the program has become much slower.
HARD_STOP_S = 140.0
# Set-up is unmarshalling and running module bodies; this kernel scales it,
# timed in the same interpreter just before the import and just after the
# warm-up.
SETUP_KERNEL = "python"


def _run_one(cli, cfg):
    t = time.perf_counter()
    try:
        status, text = cli.run(cfg)
    except Exception as exc:  # an escaped exception is a failed operation
        status, text = -1, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t, status, text


class Verdicts:
    """Check each command's first output fully; a later output of the same
    command gets the first one's verdict when the two are byte-identical."""

    def __init__(self, checks, commands):
        self.checks = checks
        self.commands = commands
        self.first = [None] * len(commands)
        self.failures = []

    def record(self, i, status, text) -> bool:
        first = self.first[i]
        if first is not None and first[0] == (status, text):
            return first[1]
        found = self.checks.problems(self.commands[i], status, text)
        if first is None:
            self.first[i] = ((status, text), not found)
        if found and len(self.failures) < 20:
            self.failures.append({"command": i, "problems": found})
        return not found


def _rounds(cli, commands, rounds, on_output, before=None, scale=None, every=1):
    """Run ``rounds`` rounds of the command list; returns per-round walls and
    the latencies, both as measured and, with ``scale``, in reference seconds.

    With ``scale`` (a calib.Scale), the calibration kernel is timed before the
    first command and after every ``every`` commands, and each latency is
    scaled by the kernel times around its group.
    """
    walls, latencies, measured = [], [], []
    group = []
    if scale:
        scale.begin()
    start = time.perf_counter()
    for r in range(rounds):
        if time.perf_counter() - start > HARD_STOP_S:
            break
        wall = 0.0
        for i, cfg in enumerate(commands):
            if before:
                before(r * len(commands) + i)
            dt, status, text = _run_one(cli, cfg)
            group.append(dt)
            on_output(i, status, text)
            if len(group) == every or i == len(commands) - 1:
                factor = scale.factor() if scale else 1.0
                measured.extend(group)
                latencies.extend(dt * factor for dt in group)
                wall += sum(group) * factor
                group = []
        walls.append(wall)
    return walls, latencies, measured


def timed_rounds(cli, commands, rounds, verdicts, kernel, every):
    failed = []
    walls, latencies, measured = _rounds(
        cli, commands, rounds, lambda i, status, text: failed.append(not verdicts.record(i, status, text)),
        scale=calib.Scale(kernel), every=every)
    return {"latencies": latencies, "walls": walls, "measured_latencies": measured,
            "attempted": len(latencies), "failed": sum(failed)}


def traced_rounds(cli, commands, rounds, verdicts, spans_path):
    import layertrace

    reference, failed = [], []

    def keep(i, status, text):
        reference.append((status, text))
        failed.append(not verdicts.record(i, status, text))

    untraced, _, _ = _rounds(cli, commands, 1, keep)
    tracer = layertrace.Tracer()
    mismatched = []

    def compare(i, status, text):
        mismatched.append((status, text) != reference[i])

    with tracer.installed() as patched:
        walls, _, _ = _rounds(cli, commands, max(1, rounds - 1), compare,
                              before=lambda index: setattr(tracer, "command", index))
    if spans_path:
        tracer.write_spans(spans_path)
    return {
        "per_layer": tracer.summary(len(walls)),
        "patched": patched,
        "untraced_wall_s": untraced[0],
        "traced_wall_s": sorted(walls)[len(walls) // 2],
        "traced_rounds": len(walls),
        "attempted": len(commands) * (1 + len(walls)),
        "failed": sum(failed) + sum(mismatched),
        "mismatched": sum(mismatched),
    }


def main():
    job = json.loads(sys.stdin.read())
    scale = calib.Scale(SETUP_KERNEL)
    scale.begin()
    t0 = time.perf_counter()
    cli = importlib.import_module("belllab.cli")
    warm = [cli.run(cfg) for cfg in job["warmup"]]
    setup_s = time.perf_counter() - t0
    setup_factor = scale.factor()

    import checks

    result = {
        "setup_s": setup_s,
        "setup_factor": setup_factor,
        "belllab_file": cli.__file__,
        "warmup_problems": [p for cfg, (status, text) in zip(job["warmup"], warm)
                            for p in checks.problems(cfg, status, text)],
    }
    if job["mode"] != "setup":
        commands = job["commands"]
        verdicts = Verdicts(checks, commands)
        if job["mode"] == "run":
            result.update(timed_rounds(cli, commands, job["rounds"], verdicts, job["kernel"], job["every"]))
        else:
            result.update(traced_rounds(cli, commands, job["rounds"], verdicts, job.get("spans_path")))
        result["failures"] = verdicts.failures
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
