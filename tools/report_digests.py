"""Print a digest of every report on the benchmark's command lists.

For each workload in ``perfbench/workloads.py`` it runs the warm-up list and
the lists of seeds 1-5 (seed 1 only for ``optimize``, whose rounds are slow)
through ``belllab.cli.run`` and prints one line per command,

    workload/list/index status sha256-of-report

sorted.  A change that should leave every report byte-identical must leave
this output unchanged; compare two runs with ``diff``:

    PYTHONPATH=src:perfbench python3 tools/report_digests.py > after.txt
    PYTHONPATH=<other checkout>/src:perfbench python3 tools/report_digests.py > before.txt
    diff before.txt after.txt

The command lists come from ``perfbench`` and belllab from ``src``, each from
whichever checkout PYTHONPATH names.  Only the standard library, belllab and
``workloads`` (which it reads, never changes) are imported.
"""

import hashlib

from belllab import cli
from workloads import WORKLOADS

SEEDS = {"optimize": (1,)}
DEFAULT_SEEDS = (1, 2, 3, 4, 5)


def command_lists(workload):
    yield "warmup", workload.warmup
    for seed in SEEDS.get(workload.name, DEFAULT_SEEDS):
        yield f"seed{seed}", workload.commands(seed)


def main():
    lines = []
    for name, workload in WORKLOADS.items():
        for list_name, commands in command_lists(workload):
            for i, cfg in enumerate(commands):
                status, text = cli.run(cfg)
                digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
                lines.append(f"{name}/{list_name}/{i} {status} {digest}")
    print("\n".join(sorted(lines)))


if __name__ == "__main__":
    main()
