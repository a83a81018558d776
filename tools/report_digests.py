"""Print a digest of every report on the benchmark's command lists.

For each workload in ``perfbench/workloads.py`` it runs the warm-up list and
the lists of seeds 1-5 through ``belllab.cli.run`` and prints one line per
command,

    workload/list/index status sha256-of-report

sorted.  It exits 1, naming each such report on stderr, if any command exits
non-zero or reports a failing entry in ``checks``.  A change that should
leave every report byte-identical must leave this output unchanged; compare
two runs with ``diff``:

    PYTHONPATH=src:perfbench python3 tools/report_digests.py > after.txt
    PYTHONPATH=<other checkout>/src:perfbench python3 tools/report_digests.py > before.txt
    diff before.txt after.txt

The command lists come from ``perfbench`` and belllab from ``src``, each from
whichever checkout PYTHONPATH names.  Only the standard library, belllab and
``workloads`` (which it reads, never changes) are imported.
"""

import hashlib
import json
import sys

from belllab import cli
from workloads import WORKLOADS

SEEDS = (1, 2, 3, 4, 5)


def command_lists(workload):
    yield "warmup", workload.warmup
    for seed in SEEDS:
        yield f"seed{seed}", workload.commands(seed)


def main() -> int:
    lines, failed = [], []
    for name, workload in WORKLOADS.items():
        for list_name, commands in command_lists(workload):
            for i, cfg in enumerate(commands):
                status, text = cli.run(cfg)
                digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
                lines.append(f"{name}/{list_name}/{i} {status} {digest}")
                # a family report is CSV, which carries no checks
                if status != 0 or text.startswith("{") and not all(c["pass"] for c in json.loads(text)["checks"]):
                    failed.append(f"{name}/{list_name}/{i}")
    print("\n".join(sorted(lines)))
    for report in sorted(failed):
        print(f"failed: {report} exited non-zero or carries a failing check", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
