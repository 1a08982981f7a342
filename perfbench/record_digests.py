"""Record the stdout digest of every request of the default seed.

    python3 perfbench/record_digests.py

Writes perfbench/digests.json.  A run with the default seed compares each
request's stdout with its digest, which pins the CLI's output bytes in every
format.  Re-record only when a change to the output is intended.
"""

from __future__ import annotations

import json
import sys
from itertools import islice

from run import DEFAULT_SEED, DIGESTS, SRC, digest, run_request, verdict
from workloads import WORKLOADS, rounds

# More rounds than a run of the benchmark completes in its time.
RECORDED_ROUNDS = {"classify": 45, "certify": 40, "tabulate": 25, "realize": 22}


def main() -> int:
    sys.path.insert(0, str(SRC))
    import polyphi.cli as cli

    recorded = {}
    for workload in WORKLOADS:
        recorded[workload] = []
        for reqs in islice(rounds(workload, DEFAULT_SEED), RECORDED_ROUNDS[workload]):
            digests = []
            for req in reqs:
                _, rc, out, err = run_request(cli, req.argv)
                problem = verdict(req, rc, out, err)
                if problem is not None:
                    raise SystemExit(f"{' '.join(req.argv)}: {problem}")
                digests.append(digest(out))
            recorded[workload].append(digests)
        print(f"{workload}: {len(recorded[workload])} rounds", file=sys.stderr)
    DIGESTS.write_text(json.dumps(recorded, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
