"""One benchmark round, run in a fresh process by :mod:`bench.run`.

    python -m bench.job --workload paper --seed 1 --size full --trace 0

The round drives the public API only — ``build_contact_trace(...,
cache=None)``, ``run_scenario(..., trace=...)`` and, for auditing
workloads, ``replay_trace`` — and prints one JSON object as its last
line of standard output: wall and set-up time (rescaled to the
reference CPU speed by :mod:`bench.speed`, raw wall alongside), peak
RSS, the result digest, the conservation invariants and, with
``--trace 1``, the per-layer metrics of :mod:`bench.layers`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict

from bench.layers import HOOKS, SETUP_HOOKS, LayerTracer, layer_metrics
from bench.speed import SpeedProbe
from bench.workloads import SIZES, WORKLOADS, Workload

#: Where event traces are written: inside the checkout, in a temporary
#: directory that ``.gitignore`` here names in case a job is killed.
WORK_PARENT = Path(__file__).resolve().parent


def run_round(workload: Workload, seed: int, size: str, traced: bool) -> Dict:
    """Run one job of ``workload`` and return its measurements."""
    from repro.experiments import runner, trace_cache
    from repro.trace import audit

    # Contact detection is always timed: a REPRO_TRACE_CACHE set in the
    # environment must not turn it into a cache read.
    trace_cache.set_default_cache(None)
    config = workload.config(size)
    # An auditing workload writes its event trace into a directory that
    # is removed with everything in it when the job ends.
    with tempfile.TemporaryDirectory(prefix=".work-", dir=WORK_PARENT) as work:
        trace_path = Path(work) / "events.jsonl" if workload.audit else None
        audit_ok = None
        with LayerTracer(HOOKS if traced else SETUP_HOOKS) as tracer, \
                SpeedProbe() as probe:
            start = time.perf_counter()
            trace = runner.build_contact_trace(config, seed, cache=None)
            result = runner.run_scenario(
                config, workload.scheme, seed,
                trace=trace, trace_path=trace_path,
            )
            if trace_path is not None:
                audit_ok = audit.replay_trace(trace_path).ok
            end = time.perf_counter()
        trace_mb = trace_path.stat().st_size / 1e6 if trace_path else 0.0

    run_entry = tracer.first_start("world.run")
    ledger = result.router.ledger
    balances = sorted(ledger.balances().items())
    events = result.router.world.engine.events_fired
    faults = result.fault_summary()
    out = {
        "workload": workload.name,
        "seed": seed,
        "size": size,
        "traced": traced,
        "wall_s": probe.rescaled(start, end),
        "setup_s": probe.rescaled(start, run_entry),
        "raw_wall_s": end - start,
        "cpu_speed": probe.speed(start, end),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digest": {
            "mdr": result.mdr,
            "transfers": result.traffic,
            "deliveries": int(result.metrics.delivered_pairs()),
            "events": events,
            "token_supply": ledger.total_supply(),
            "balances_sha256": hashlib.sha256(
                json.dumps(balances).encode()
            ).hexdigest(),
        },
        "invariants": {
            key: faults[key]
            for key in ("supply_error", "stranded_escrow", "double_payments")
        },
        "audit_ok": audit_ok,
    }
    if traced:
        out["layers"] = layer_metrics(tracer, {
            "contacts": len(trace),
            "events": events,
            "transfers": result.traffic,
            "trace_mb": trace_mb,
        }, time_scale=out["cpu_speed"])
        out["absent_hooks"] = list(tracer.absent)
        out["raw_self_s"] = tracer.self_seconds()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--size", default="full", choices=SIZES)
    parser.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    out = run_round(
        WORKLOADS[args.workload], args.seed, args.size, bool(args.trace)
    )
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
