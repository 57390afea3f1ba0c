"""Record the output digest of every op that any seed can produce.

    python3 perfbench/record_digests.py [workload ...]

Run it on the commit whose outputs are the reference.  It writes
``perfbench/digests.json`` (only the named workloads, when some are named);
every benchmark run then lists by name the ops whose output digest differs
from the recorded one (the drift report).
"""

import json
import os
import shutil
import sys

from worker import DIGESTS, ROOT, import_tract


def main() -> int:
    import_tract()
    import workloads

    workdir = os.path.join(ROOT, ".perfbench_tmp", f"record-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    with open(DIGESTS, encoding="utf-8") as handle:
        recorded = json.load(handle)
    try:
        for workload in sys.argv[1:] or workloads.WORKLOADS:
            digests = {}
            for op in workloads.build(workload, None, workdir):
                digests[op.name] = workloads.digest(op.key(op.run()))
            recorded[workload] = dict(sorted(digests.items()))
            print(f"{workload}: {len(digests)} ops", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
