"""Record every workload's output fingerprint at the current commit.

    python3 perfbench/record_reference.py default 0 1 2 3

"default" stands for each scenario's own seed.  The fingerprints go to
perfbench/reference.json, against which run.py reports each operation's
output.  Record again only when the simulated output is meant to change.
"""

import json
import sys

import run


def main(keys: list[str]) -> int:
    wl, _ = run.import_package()
    table = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.is_file() else {}
    for name in run.WORKLOADS:
        for key in keys:
            op = wl.run(name, None if key == "default" else int(key))
            problems = wl.check(name, op)
            if problems:
                print(f"{name} seed {key}: {problems}", file=sys.stderr)
                return 1
            table.setdefault(name, {})[key] = wl.fingerprint(op)
    run.REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
