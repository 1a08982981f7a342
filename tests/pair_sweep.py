"""The pair certificate against the LPs on the larger boxes of gees.

`test_pair_certificate_fires_exactly_when_every_lp_is_infeasible` runs
`brute.pair_certificate_sweep` on every gee with k <= 4 and a_i <= 4.  This
script runs it on every gee with k = 6 and a_i <= 4, and with k = 7 or 8
and a_i <= 3: 12,844 gees in all, about 20 s on one core of a 2-core host.
pytest does not collect it.  Run it from the repository root as

    PYTHONPATH=src:tests python tests/pair_sweep.py

It prints one line per box and exits 1 if the certificate disagrees with
the LPs on any gee, or fires on a count of gees other than the pinned one.
"""

from __future__ import annotations

import sys
import time
from itertools import product

from brute import pair_certificate_sweep

# (k, largest a_i, the count of gees the certificate refuses)
BOXES = [(6, 4, 4002), (7, 3, 2118), (8, 3, 6474)]


def main() -> int:
    failed = False
    for k, top, expected in BOXES:
        box = f"k = {k}, a_i <= {top}"
        start = time.perf_counter()
        try:
            fired = pair_certificate_sweep(product(range(1, top + 1), repeat=k))
        except AssertionError as exc:
            print(f"{box}: the certificate and the LPs disagree on gee {exc}")
            failed = True
            continue
        seconds = time.perf_counter() - start
        print(f"{box}: {top**k} gees, {fired} refused (pinned {expected}), {seconds:.1f} s")
        failed |= fired != expected
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
