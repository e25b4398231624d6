"""Regenerate perfbench/digests.json, the expected outputs of the workloads.

    python3 perfbench/gen_digests.py

Run it only on a commit whose outputs are known to be right: it records
what the program prints now.  Cold commands are keyed by their arguments,
so a command that appears in any seed's deck is checked; lib-warm stores
one digest per block of calls for each seed in SEEDS.
"""

import json
import shlex
import sys
import time

import run
from workloads import COLD_WORKLOADS, cold_deck

SEEDS = (1, 9001)  # the default seed and one held out from tuning


def main() -> int:
    started = time.perf_counter()
    digests = {"seeds": list(SEEDS), "cli": {}, "lib-warm": {}}
    for seed in SEEDS:
        for workload in COLD_WORKLOADS:
            for args in cold_deck(workload, seed):
                key = shlex.join(args)
                if key in digests["cli"]:
                    continue
                child = run.Child([sys.executable, "-c", run.CLI, *args], run.OP_TIMEOUT_S)
                if child.rc != 0:
                    print(f"error: `ttspec {key}` exited {child.rc}", file=sys.stderr)
                    return 1
                digests["cli"][key] = run._digest(child.stdout)
        result, _ = run._libwarm("deck", seed, 0, 600.0)
        if any(result["block_errors"]):
            print(f"error: lib-warm seed {seed} has calls that raise", file=sys.stderr)
            return 1
        digests["lib-warm"][str(seed)] = result["digests"]
        print(f"seed {seed} done after {time.perf_counter() - started:.0f} s", flush=True)
    run.DIGESTS.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
