#!/usr/bin/env python3
"""Write perfbench/expected.json: the output summaries of every task at the
default seed, taken from the tracelab in this checkout's src/.

    python3 perfbench/capture.py

Run it only on a commit whose outputs are trusted; the benchmark then
checks every later commit against them.
"""

import json
import sys

from run import HERE, _import_program


def main() -> int:
    workloads, _ = _import_program()
    captured = {}
    for name in workloads.WORKLOADS:
        summaries = {}
        for task in workloads.build(name, workloads.DEFAULT_SEED):
            summary, problems = task.check(task.fn())
            if problems:
                print(f"error: {name} {task.id}: {'; '.join(problems)}", file=sys.stderr)
                return 1
            summaries[task.id] = summary
        captured[name] = summaries
    doc = {"default_seed": workloads.DEFAULT_SEED, "workloads": captured}
    (HERE / "expected.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
