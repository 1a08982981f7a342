"""polyphi benchmark: closed-loop CLI requests, checked, timed per round.

Run from the repository root:

    python3 perfbench/run.py --workload classify --seed 0 --seconds 25 --trace 0

Each request is a real `polyphi.cli.main(argv)` call, in process, with its
stdout captured and checked by the benchmark's own arithmetic.  One client
sends requests one after another.  A round is the workload's fixed request
list; rounds run until the next one would overrun --seconds (or, for
realize, until its fixed pool is used up).  The last line of stdout is one
JSON object with the run's result; see README.md for the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from checks import CHECKS, subgee_count, table_profiles  # noqa: E402
from workloads import WORKLOADS, rounds  # noqa: E402

DEFAULT_SEED = 0
DIGESTS = HERE / "digests.json"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_LAUNCHES = 25
MIN_ROUNDS = 3
# Times are rescaled to a fixed reference speed: the host is shared, and its
# speed drifts by a quarter or more over seconds to minutes, the same for the
# program and for a calibration loop timed next to each request.
# REFERENCE_S is what calibrate() takes at the reference speed.
CALIBRATION_LOOP = 4_000
CALIBRATION_INT = (1 << 1500) - 12345
REFERENCE_S = 0.0008

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER = (
    "lengths.genetic_code.calls",
    "lengths.genetic_code.self_s",
    "lengths.genetic_code.gray_steps",
    "lengths.genetic_code.genes",
    "lengths.genetic_code.raised",
    "lengths.is_generic.self_s",
    "lengths.realize_gee.self_s",
    "lengths.realize_gee.candidates",
    "lengths.realize_gee.rejected_ratio",
    "lengths.enumerate_subgees.self_s",
    "lengths.enumerate_subgees.sets",
    "duality.pairing_by_profile.calls",
    "duality.pairing_by_profile.self_s",
    "duality.pairing_set.calls",
    "duality.pairing_set.self_s",
    "duality.admissible_summands.calls",
    "duality.admissible_summands.self_s",
    "duality.admissible_summands.summands",
    "relations.build_matrix.self_s",
    "relations.build_matrix.basis",
    "relations.build_matrix.bytes",
    "relations.nullspace_functional.self_s",
    "relations.nullspace_functional.rank",
    "relations.annihilation_failures.self_s",
    "relations.cross_validate.self_s",
    "relations.subgee_count.self_s",
    "combinatorics.compositions.calls",
    "combinatorics.is_subgee_profile.calls",
    "combinatorics.binom_parity.calls",
    "combinatorics.block_counts.calls",
    "cli.main.calls",
    "cli.main.self_s",
    "cli.stdout_bytes",
    "trace.overhead_ratio",
)


def unit_of(metric: str) -> str:
    if metric.endswith("self_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("bytes"):
        return "bytes"
    return "count"


def calibrate() -> float:
    """Seconds for a fixed loop of small-int, big-int and dict work, best of three.

    The mix follows the program's own (Gray-code sums, bitmask rows, tuple
    keys), so that a slower host slows both alike; best of three drops
    interrupts.
    """
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        acc, x, d = 0, CALIBRATION_INT, {}
        for i in range(CALIBRATION_LOOP):
            acc += i * i
            x ^= x >> 3
            d[i & 63] = (i, acc)
        best = min(best, perf_counter() - t0)
    return best


def rescale(seconds: float, before: float, after: float) -> float:
    """A time measured between two calibrations, at the reference speed."""
    return seconds * REFERENCE_S * 2 / (before + after)


def measure_setup() -> list[tuple[float, float]]:
    """(raw, rescaled) seconds from spawning an interpreter to `polyphi.cli` imported.

    The child reports perf_counter after the import; on Linux that clock is
    CLOCK_MONOTONIC, shared by all processes, so the two readings compare.
    The first launch compiles the bytecode cache and is not counted.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p))
    cmd = [sys.executable, "-c", "import time, polyphi.cli; print(time.perf_counter())"]
    times = []
    for i in range(SETUP_LAUNCHES + 1):
        before = calibrate()
        t0 = perf_counter()
        done = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
        dt = float(done.stdout) - t0
        if i:
            times.append((dt, rescale(dt, before, calibrate())))
    return times


def run_request(cli, argv: tuple[str, ...]) -> tuple[float, int | None, str, str]:
    """(seconds, exit code or None if an exception escaped, stdout, error text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an escaped exception is a failed request
            rc = None
            print(f"{type(exc).__name__}: {exc}", file=err)
        dt = perf_counter() - t0
    return dt, rc, out.getvalue(), err.getvalue()


def verdict(req, rc: int | None, out: str, err: str) -> str | None:
    if rc != req.expect_rc:
        return f"exit code {rc}, expected {req.expect_rc}: {err.strip()[:200]}"
    if req.expect_rc:
        return f"unexpected stdout on exit {rc}" if out else None
    try:
        return CHECKS[req.kind](req.params, out)
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        return f"unparsable output ({type(exc).__name__}: {exc})"


def digest(out: str) -> str:
    return hashlib.sha256(out.encode()).hexdigest()[:16]


def request_sizes(req) -> dict[str, int]:
    p = req.params
    if req.kind == "gene":
        return {"n": len(p["lengths"])}
    sizes = {"k": len(p["a"])}
    if req.kind in ("oracle", "verify"):
        sizes["basis"] = subgee_count(p["a"])
    if req.kind == "table":
        sizes["rows"] = len(table_profiles(p["a"]))
    return sizes


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "polyphi" / "cli.py").is_file():
        print(f"error: polyphi sources not found under {SRC}", file=sys.stderr)
        return 2
    setup = [] if args.trace else measure_setup()
    sys.path.insert(0, str(SRC))
    import polyphi.cli as cli

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    expected = {}
    if args.seed == DEFAULT_SEED and DIGESTS.is_file():
        expected = json.loads(DIGESTS.read_text()).get(args.workload, [])

    plain_rounds: list[float] = []
    traced_rounds: list[float] = []
    raw_rounds: list[float] = []
    attempted = failed = 0
    failures: list[str] = []
    sizes: dict[str, list[int]] = {}
    stdout_bytes = 0
    start = perf_counter()
    last = 0.0
    for index, reqs in enumerate(rounds(args.workload, args.seed)):
        elapsed = perf_counter() - start
        if index >= MIN_ROUNDS and elapsed + last > args.seconds:
            break
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
        round_start = perf_counter()
        busy = scaled = 0.0
        before = calibrate()
        try:
            for i, req in enumerate(reqs):
                if tracer is not None:
                    tracer.request = attempted
                dt, rc, out, err = run_request(cli, req.argv)
                after = calibrate()
                busy += dt
                scaled += rescale(dt, before, after)
                if traced:
                    tracer.scale[attempted] = rescale(1.0, before, after)
                before = after
                attempted += 1
                if traced:
                    stdout_bytes += len(out.encode())
                problem = verdict(req, rc, out, err)
                if problem is None and index < len(expected) and digest(out) != expected[index][i]:
                    problem = "stdout differs from the recorded digest"
                if problem is not None:
                    failed += 1
                    failures.append(f"{' '.join(req.argv)[:160]}: {problem}")
                for key, value in request_sizes(req).items():
                    sizes.setdefault(key, []).append(value)
        finally:
            if traced:
                tracer.restore()
        (traced_rounds if traced else plain_rounds).append(scaled)
        if not traced:
            raw_rounds.append(busy)
        if index == MIN_ROUNDS - 1:
            # Peak memory over the first rounds only: the same inputs on every
            # commit, however many rounds fit in the run.
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        last = perf_counter() - round_start

    for line in failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    q1, wall, q3 = quartiles(plain_rounds)
    print(f"workload {args.workload}  seed {args.seed}  rounds {len(plain_rounds) + len(traced_rounds)}"
          f"  attempted {attempted}  failed {failed}")
    print(f"  wall_s        {wall:.4f} s  (q1 {q1:.4f}, q3 {q3:.4f}, {len(plain_rounds)} untraced rounds;"
          f" unscaled median {statistics.median(raw_rounds):.4f} s)")
    if setup:
        s1, s2, s3 = quartiles([scaled for _, scaled in setup])
        raw_setup = statistics.median(raw for raw, _ in setup)
        print(f"  setup_s       {s2:.4f} s  (q1 {s1:.4f}, q3 {s3:.4f}, {len(setup)} launches;"
              f" unscaled median {raw_setup:.4f} s)")
    print(f"  peak_rss_mib  {peak_rss_mib:.1f} MiB  (over the first {MIN_ROUNDS} rounds)")
    print(f"  failed_ratio  {failed / max(attempted, 1):.4f}  ({failed}/{attempted})")
    size_text = []
    for key, values in sorted(sizes.items()):
        if key in ("n", "k"):
            size_text.append(f"{key} {min(values)}..{max(values)}")
        else:
            size_text.append(f"{key} sum {sum(values)} max {max(values)}")
    print(f"  sizes         {', '.join(size_text)}")

    if tracer is None:
        metrics = {
            "wall_s": wall,
            "setup_s": s2,
            "peak_rss_mib": peak_rss_mib,
        }
        units = END_TO_END
    else:
        tracer.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.json")
        totals = tracer.layer_totals()
        per_round = max(len(traced_rounds), 1)
        totals["cli.stdout_bytes"] = stdout_bytes
        metrics = {}
        for name in PER_LAYER:
            metrics[name] = totals[name] / per_round
        candidates = totals["lengths.realize_gee.candidates"]
        metrics["lengths.realize_gee.rejected_ratio"] = (
            totals["lengths.realize_gee.rejected"] / candidates if candidates else 0.0)
        metrics["trace.overhead_ratio"] = (
            statistics.median(traced_rounds) / statistics.median(plain_rounds))
        units = {name: unit_of(name) for name in PER_LAYER}
        if candidates:
            print(f"  realize candidates {candidates / per_round:.0f} per round")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
