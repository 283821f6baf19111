"""Record the CLI goldens that the ``cli`` workload replays in every run.

    python3 bench/record_goldens.py

Runs the eight commands of the cli workload's round 0 (drawn from the
golden seed) and writes ``bench/cli_goldens.json``: for exact-mode commands
the sha256 of standard output, for numerical-mode commands the whole output
document, which runs compare key for key with reals within a relative
tolerance.  Record only from a commit whose output is known to be right.
"""

import hashlib
import json
import sys

import run
import workloads


def main() -> int:
    pkg = run.import_package()
    cli = workloads.Cli(pkg, workloads.GOLDEN_SEED, run.ROOT, goldens={})
    commands = {}
    try:
        for command, argv in cli.round_inputs(0):
            code, stdout = cli.run_command(argv)
            doc = json.loads(stdout)
            entry = {"argv": argv, "exit": code, "keys": list(doc)}
            if command in workloads.Cli.EXACT_COMMANDS:
                entry.update(mode="exact", sha256=hashlib.sha256(stdout).hexdigest())
            else:
                entry.update(mode="numerical", doc=doc)
            commands[command] = entry
    finally:
        cli.close()
    record = {
        "seed": workloads.GOLDEN_SEED,
        "rel_tol": workloads.GOLDEN_REL_TOL,
        "abs_tol": workloads.GOLDEN_ABS_TOL,
        "commands": commands,
    }
    workloads.GOLDENS.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {len(commands)} goldens to {workloads.GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
