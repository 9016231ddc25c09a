"""Run the benchmark: every workload, checked, every metric by name.

From the repository root::

    python3 bench/run.py --seed 1            # 5 untraced rounds + 1 traced round per workload
    python3 bench/run.py --seed 1 --smoke    # the same at seconds-fast sizes
    python3 bench/run.py --seed 1 --trace 1  # per-layer metrics only
    python3 bench/run.py --workload paper --seed 3 --seconds 30 --trace 0

(``PYTHONPATH=src python -m bench.run ...`` is equivalent.)

Each round is one job in a fresh child process (:mod:`bench.job`); only
one child runs at a time, and workloads are interleaved round-robin so
that a drift in machine load hits every workload rather than one
workload's whole set.  Children run with one BLAS/OpenMP thread,
``PYTHONHASHSEED=0`` (final balances otherwise differ in the last bit
between interpreter hash seeds) and without ``REPRO_TRACE_CACHE``.

Every round is checked: the conservation invariants must hold, an
auditing workload's replay must be clean, every round of a workload and
seed (traced or not) must give the same result digest, and that digest
must equal ``expected.json`` where it lists the seed.  A failed round
makes the command exit 1.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.layers import LAYER_METRICS, TRACE_OVERHEAD  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

EXPECTED_PATH = ROOT / "bench" / "expected.json"

#: End-to-end metrics of the untraced rounds: name -> unit.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Printed beside the end-to-end metrics, never gated: the measured wall
#: before rescaling, and the CPU speed it was rescaled by.
RAW = {"raw_wall_s": "s", "cpu_speed": "ratio"}

#: Per-layer metrics of the traced round: name -> unit.
PER_LAYER = {m.name: m.unit for m in LAYER_METRICS + (TRACE_OVERHEAD,)}

#: Ledger conservation is checked to this many tokens: balances are float
#: sums, so the supply can differ from the endowment in the last bits.
SUPPLY_TOLERANCE = 1e-6

#: Untraced rounds a --seconds run makes even when they overrun the
#: budget: setup_s and wall_s are medians over rounds.
MIN_TIMED_ROUNDS = 2

#: A child that runs longer than this is killed and its round fails.
CHILD_TIMEOUT_S = 150.0


def child_env() -> Dict[str, str]:
    """Environment of every round's child process."""
    env = dict(os.environ)
    env.pop("REPRO_TRACE_CACHE", None)
    paths = [str(ROOT), str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env.update(
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env


def run_child(workload: str, seed: int, size: str, traced: bool) -> Dict:
    """One round in a fresh process; ``{"error": ...}`` when it fails."""
    cmd = [
        sys.executable, "-m", "bench.job", "--workload", workload,
        "--seed", str(seed), "--size", size, "--trace", str(int(traced)),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"traced": traced, "error": f"timed out after {CHILD_TIMEOUT_S} s"}
    lines = proc.stdout.splitlines()
    if proc.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    tail = (proc.stderr.strip().splitlines() or ["no result line"])[-1]
    return {"traced": traced, "error": f"exit {proc.returncode}: {tail}"}


def load_expected() -> Dict:
    """``size -> workload -> seed -> digest`` from ``expected.json``."""
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def check_round(
    out: Dict, expected: Optional[Dict], reference: Optional[Dict]
) -> List[str]:
    """Why the round failed (empty when it passed).

    Args:
        out: The child's output.
        expected: The committed digest for this workload, size and seed.
        reference: The digest of this workload's first passing round.
    """
    if "error" in out:
        return [out["error"]]
    problems = []
    inv = out["invariants"]
    if abs(inv["supply_error"]) > SUPPLY_TOLERANCE:
        problems.append(f"supply_error {inv['supply_error']!r}")
    for key in ("stranded_escrow", "double_payments"):
        if inv[key] != 0:
            problems.append(f"{key} {inv[key]!r}")
    if WORKLOADS[out["workload"]].audit and out["audit_ok"] is not True:
        problems.append("trace audit reported violations")
    if out["setup_s"] is None:
        problems.append("World.run was not entered or no longer exists")
    if expected is not None and out["digest"] != expected:
        problems.append(f"digest {out['digest']} != expected.json {expected}")
    if reference is not None and out["digest"] != reference:
        kind = "traced" if out["traced"] else "untraced"
        problems.append(f"{kind} digest differs from the first round's")
    return problems


def measure(
    names: Sequence[str],
    seed: int,
    size: str,
    *,
    rounds: int,
    traced: bool,
    seconds: Optional[float],
) -> Dict[str, List[Dict]]:
    """Run the rounds, workloads interleaved round-robin.

    Without ``seconds``, runs ``rounds`` untraced rounds per workload,
    plus one traced round each in the first cycle when ``traced``.  With
    ``seconds``, ``rounds`` is the minimum and further cycles run only
    while the longest round seen so far still fits the budget.
    """
    results: Dict[str, List[Dict]] = {name: [] for name in names}
    longest: Dict[tuple, float] = {}
    start = time.perf_counter()
    cycle = 0
    while True:
        jobs = [(name, False) for name in names]
        if traced and cycle == 0:
            jobs += [(name, True) for name in names]
        if seconds is None:
            if cycle >= rounds:
                break
        elif cycle >= rounds:
            needed = sum(longest[job] for job in jobs)
            if time.perf_counter() - start + needed > seconds:
                break
        for job in jobs:
            name, is_traced = job
            began = time.perf_counter()
            results[name].append(run_child(name, seed, size, is_traced))
            longest[job] = max(
                longest.get(job, 0.0), time.perf_counter() - began
            )
        cycle += 1
    return results


def _stats(values: List[float]) -> Dict[str, float]:
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"value": median, "q1": q1, "q3": q3, "n": len(values)}


def summarize(
    name: str, seed: int, size: str, outs: List[Dict], expected: Dict
) -> Dict:
    """Check every round of one workload and reduce them to metrics."""
    want = expected.get(size, {}).get(name, {}).get(str(seed))
    reference = None
    passed: List[Dict] = []
    failures: List[str] = []
    for out in outs:
        problems = check_round(out, want, reference)
        if problems:
            failures.extend(problems)
            continue
        passed.append(out)
        if reference is None:
            reference = out["digest"]
    untraced = [o for o in passed if not o["traced"]]
    traced = next((o for o in passed if o["traced"]), None)

    metrics: Dict[str, Dict] = {}
    if untraced:
        for metric, unit in {**END_TO_END, **RAW}.items():
            metrics[metric] = {**_stats([o[metric] for o in untraced]), "unit": unit}
    absent: List[str] = []
    if traced is not None:
        absent = traced["absent_hooks"]
        for metric in LAYER_METRICS:
            metrics[metric.name] = {
                "value": traced["layers"][metric.name], "unit": metric.unit,
            }
        if untraced:
            metrics[TRACE_OVERHEAD.name] = {
                "value": traced["wall_s"] / metrics["wall_s"]["value"],
                "unit": TRACE_OVERHEAD.unit,
            }
    attempted = len(outs)
    return {
        "attempted": attempted,
        "failed": attempted - len(passed),
        "failed_share": (attempted - len(passed)) / attempted,
        "failures": failures,
        "absent_hooks": absent,
        "digest": reference,
        "metrics": metrics,
        "rounds": outs,
    }


def machine_info() -> Dict[str, object]:
    """Where the numbers were measured."""
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "loadavg": list(os.getloadavg()),
    }


def _fmt(value) -> str:
    return "null" if value is None else f"{value:.6g}"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the benchmark workloads and print their metrics."
    )
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-fast sizes, for the harness tests")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics only; 1: per-layer "
                             "metrics only (default: both)")
    parser.add_argument("--rounds", type=int, default=5,
                        help="untraced rounds per workload (without --seconds)")
    parser.add_argument("--seconds", type=float,
                        help="time budget: add rounds while they fit")
    parser.add_argument("--out", type=Path,
                        help="also write the full report (every round) here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = args.workload or list(WORKLOADS)
    size = "smoke" if args.smoke else "full"
    if args.trace == 1:
        # Untraced rounds here only give trace_overhead its denominator.
        rounds = 1
    elif args.seconds is not None:
        rounds = MIN_TIMED_ROUNDS
    else:
        rounds = args.rounds

    machine = machine_info()
    expected = load_expected()
    results = measure(
        names, args.seed, size,
        rounds=rounds, traced=args.trace != 0, seconds=args.seconds,
    )
    report = {
        name: summarize(name, args.seed, size, outs, expected)
        for name, outs in results.items()
    }

    shown = {0: END_TO_END, 1: PER_LAYER}.get(args.trace, {**END_TO_END, **PER_LAYER})
    attempted = failed = 0
    correct = True
    metrics: Dict[str, Dict] = {}
    for name, summary in report.items():
        attempted += summary["attempted"]
        failed += summary["failed"]
        for problem in summary["failures"]:
            print(f"FAIL {name}: {problem}")
        for hook in summary["absent_hooks"]:
            print(f"ABSENT {name}: hook {hook} no longer exists")
        print(f"{name:<13} failed_share {summary['failed_share']:.6g} "
              f"({summary['failed']}/{summary['attempted']} rounds)")
        chosen = {}
        printed = {
            metric: unit
            for metric, unit in {**END_TO_END, **RAW, **PER_LAYER}.items()
            if metric in shown or (metric in RAW and args.trace != 1)
        }
        for metric, unit in printed.items():
            row = summary["metrics"].get(metric)
            if row is None:
                print(f"{name:<13} {metric:<40} missing")
                correct = correct and metric not in shown
                continue
            spread = (
                f"  (q1 {_fmt(row['q1'])}, q3 {_fmt(row['q3'])}, n={row['n']})"
                if "n" in row else ""
            )
            print(f"{name:<13} {metric:<40} {_fmt(row['value'])} {unit}{spread}")
            if metric in shown:
                chosen[metric] = {"value": row["value"], "unit": unit}
        metrics[name] = chosen
        correct = correct and not summary["failures"]

    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "seed": args.seed, "size": size, "trace": args.trace,
            "rounds": rounds, "seconds": args.seconds,
            "machine": machine, "loadavg_end": list(os.getloadavg()),
            "workloads": report,
        }, indent=1) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics[names[0]] if len(names) == 1 else metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
