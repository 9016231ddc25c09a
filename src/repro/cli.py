"""Command-line interface.

Usage::

    repro-dtn table          # print Table 5.1
    repro-dtn schemes        # list every registered scheme
    repro-dtn figure 5.1     # regenerate one figure (scaled grid)
    repro-dtn figure all     # regenerate every figure
    repro-dtn run --scheme incentive --selfish 0.2 --seed 1
    repro-dtn run --trace out/run.jsonl      # + JSONL event trace
    repro-dtn trace audit out/run.jsonl      # replay + conservation audit
    repro-dtn trace contacts contacts.jsonl  # save a contact trace
    repro-dtn hetero         # 3-class population comparison + audit
    repro-dtn faults --losses 0 0.1 0.3 --churn --retransmissions 2

Pass ``--paper-scale`` to use the full Table 5.1 scenario (500 nodes,
24 simulated hours — expect minutes of wall-clock per run).

Pass ``--workers N`` to fan seed-averaged runs out over ``N`` processes
(``--workers 0`` means one per CPU core; results are bit-identical to
serial execution), and ``--trace-cache DIR`` to cache built contact
traces on disk (also configurable via the ``REPRO_TRACE_CACHE``
environment variable).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.errors import ConfigurationError
from repro.experiments.config import ScenarioConfig
from repro.experiments.figures import (
    fig5_1_mdr_vs_selfish,
    fig5_2_traffic_reduction,
    fig5_3_initial_tokens,
    fig5_4_malicious_ratings,
    fig5_5_mdr_vs_users,
    fig5_6_priority_mdr,
    table5_1_parameters,
)
from repro.experiments.runner import SCHEMES, run_scenario
from repro.metrics.reports import format_table
from repro.schemes import KNOWN_TAGS, all_specs, tagged

__all__ = ["main"]

_FIGURES = {
    "5.1": fig5_1_mdr_vs_selfish,
    "5.2": fig5_2_traffic_reduction,
    "5.3": fig5_3_initial_tokens,
    "5.4": fig5_4_malicious_ratings,
    "5.5": fig5_5_mdr_vs_users,
    "5.6": fig5_6_priority_mdr,
}


def _base_config(args: argparse.Namespace) -> ScenarioConfig:
    if args.paper_scale:
        return ScenarioConfig.paper_scale()
    return ScenarioConfig.small()


def _workers(args: argparse.Namespace) -> Optional[int]:
    """Map the --workers flag to the runner argument (0 -> all cores)."""
    return None if args.workers == 0 else args.workers


def _cmd_table(args: argparse.Namespace) -> int:
    # Table 5.1 is the paper's parameter table; always print the
    # paper-scale values (the scaled bench config is a harness detail).
    print(table5_1_parameters(ScenarioConfig.paper_scale()))
    return 0


def _cmd_schemes(args: argparse.Namespace) -> int:
    specs = all_specs()
    if args.tag is not None:
        wanted = set(tagged(args.tag))
        specs = tuple(spec for spec in specs if spec.name in wanted)
    print(format_table(
        ["scheme", "tags", "description"],
        [
            [spec.name, ",".join(sorted(spec.tags)), spec.doc]
            for spec in specs
        ],
        title=f"{len(specs)} registered scheme(s)"
              + (f" tagged {args.tag!r}" if args.tag else ""),
    ))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    names = list(_FIGURES) if args.figure == "all" else [args.figure]
    unknown = [n for n in names if n not in _FIGURES]
    if unknown:
        print(
            f"unknown figure(s) {unknown}; choose from "
            f"{sorted(_FIGURES)} or 'all'",
            file=sys.stderr,
        )
        return 2
    seeds = tuple(range(1, args.seeds + 1))
    base = _base_config(args)
    for name in names:
        result = _FIGURES[name](base, seeds=seeds, workers=_workers(args))
        print(result.format())
        print()
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = _base_config(args).replace(
        selfish_fraction=args.selfish,
        malicious_fraction=args.malicious,
    )
    if args.nodes is not None:
        config = config.replace(n_nodes=args.nodes)
    if args.duration is not None:
        config = config.replace(duration=args.duration)
    result = run_scenario(
        config, args.scheme, args.seed, trace_path=args.trace
    )
    rows = sorted(result.summary().items())
    print(
        format_table(
            ["metric", "value"],
            [[key, value] for key, value in rows],
            title=f"scheme={args.scheme} seed={args.seed}",
        )
    )
    if result.trace_path is not None:
        print(f"wrote event trace to {result.trace_path}")
    return 0


def _cmd_trace_contacts(args: argparse.Namespace) -> int:
    from repro.experiments.runner import build_contact_trace
    from repro.mobility.one_trace import save_one_trace

    config = _base_config(args).replace(mobility=args.mobility)
    if args.nodes is not None:
        config = config.replace(n_nodes=args.nodes)
    if args.duration is not None:
        config = config.replace(duration=args.duration)
    trace = build_contact_trace(config, seed=args.seed)
    if args.format == "one":
        save_one_trace(trace, args.out)
    else:
        trace.save(args.out)
    print(
        f"wrote {len(trace)} contacts ({trace.total_contact_time():.0f} s "
        f"of contact time over {config.duration:.0f} s, "
        f"{config.n_nodes} nodes, {config.mobility}) to {args.out}"
    )
    return 0


def _cmd_trace_audit(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.errors import TraceError
    from repro.trace.audit import replay_trace

    try:
        audit = replay_trace(args.trace_file)
    except TraceError as exc:
        print(f"invalid trace: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json_module.dumps(audit.to_json(), indent=2, sort_keys=True))
    else:
        header = ", ".join(
            f"{key}={value}" for key, value in sorted(audit.header.items())
        )
        print(
            f"{args.trace_file}: {audit.records_read} records"
            + (f" ({header})" if header else "")
        )
        print(format_table(
            ["event", "count"],
            [[name, count] for name, count in sorted(audit.counts.items())],
            title="record counts",
        ))
        if audit.flows:
            flows = sorted(
                audit.flows.values(), key=lambda f: (-f.net, f.node)
            )
            shown = flows[: args.top]
            print(format_table(
                ["node", "endowment", "earned", "spent", "balance", "net"],
                [
                    [
                        flow.node,
                        f"{flow.endowment:.3f}",
                        f"{flow.earned:.3f}",
                        f"{flow.spent:.3f}",
                        f"{flow.balance:.3f}",
                        f"{flow.net:+.3f}",
                    ]
                    for flow in shown
                ],
                title=f"token flows (top {len(shown)} of "
                      f"{len(flows)} accounts by net)",
            ))
            print(
                f"endowment={audit.endowment:.3f} "
                f"final supply={audit.final_supply:.3f} "
                f"escrow={audit.final_escrow:.3f} "
                f"payments={audit.token_payments} "
                f"tokens moved={audit.tokens_moved:.3f}"
            )
        if audit.reputation:
            events = sum(len(s) for s in audit.reputation.values())
            print(
                f"reputation: {events} rating events across "
                f"{len(audit.reputation)} subjects"
            )
        if audit.ok:
            print(
                f"conservation audit passed: balances+escrow == endowment "
                f"at every token event ({audit.conservation_checks} checks)"
            )
    for violation in audit.violations:
        print(f"AUDIT VIOLATION: {violation}", file=sys.stderr)
    return 0 if audit.ok else 1


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_comparison
    from repro.metrics.analysis import summarize, welch_t_test

    config = _base_config(args).replace(
        selfish_fraction=args.selfish,
        malicious_fraction=args.malicious,
    )
    seeds = list(range(1, args.seeds + 1))
    series = {scheme: {"mdr": [], "traffic": []} for scheme in args.schemes}
    for seed in seeds:
        results = run_comparison(
            config, args.schemes, seed=seed, workers=_workers(args)
        )
        for scheme, result in results.items():
            series[scheme]["mdr"].append(result.mdr)
            series[scheme]["traffic"].append(float(result.traffic))

    rows = []
    for scheme in args.schemes:
        mdr = summarize(series[scheme]["mdr"])
        traffic = summarize(series[scheme]["traffic"])
        rows.append([
            scheme,
            f"{mdr.mean:.4f} +/- {mdr.half_width:.4f}",
            f"{traffic.mean:.0f} +/- {traffic.half_width:.0f}",
        ])
    print(format_table(
        ["scheme", "MDR (95% CI)", "traffic (95% CI)"],
        rows,
        title=f"{len(seeds)} seeds, selfish={args.selfish:.0%}, "
              f"malicious={args.malicious:.0%}",
    ))

    reference = args.schemes[0]
    if len(seeds) >= 2:
        for scheme in args.schemes[1:]:
            _t, p_value = welch_t_test(
                series[reference]["mdr"], series[scheme]["mdr"],
            )
            verdict = "significant" if p_value < 0.05 else "not significant"
            print(f"MDR {reference} vs {scheme}: Welch p={p_value:.4f} "
                  f"({verdict} at 5%)")
    return 0


def _cmd_hetero(args: argparse.Namespace) -> int:
    from repro.errors import TraceError
    from repro.experiments.hetero import breakdown_rows, hetero_sweep

    config = ScenarioConfig.hetero(
        pedestrian=args.pedestrian,
        vehicular=args.vehicular,
        infrastructure=args.infrastructure,
        n_nodes=args.nodes,
        duration=args.duration,
    )
    seeds = list(range(1, args.seeds + 1))
    try:
        records = hetero_sweep(
            config,
            schemes=args.schemes,
            seeds=seeds,
            trace_dir=args.trace_dir,
        )
    except TraceError as exc:
        print(f"AUDIT VIOLATION: {exc}", file=sys.stderr)
        return 1

    rows = []
    for scheme, seed, name, nodes, mdr, delivered, intended, delay, \
            balance in breakdown_rows(records):
        rows.append([
            scheme,
            str(seed),
            name,
            str(nodes),
            f"{mdr:.4f}",
            f"{delivered}/{intended}",
            f"{delay:.0f}",
            "-" if balance is None else f"{balance:.2f}",
        ])
    print(format_table(
        ["scheme", "seed", "class", "nodes", "MDR", "delivered",
         "delay (s)", "mean balance"],
        rows,
        title=f"per-class breakdown: {config.n_nodes} nodes, "
              f"{config.duration / 3600:.1f} h, mix "
              f"{args.pedestrian:.0%}/{args.vehicular:.0%}/"
              f"{args.infrastructure:.0%}",
    ))
    overall = {}
    for record in records:
        overall.setdefault(record["scheme"], []).append(
            record["summary"]["mdr"]
        )
    print(format_table(
        ["scheme", "overall MDR"],
        [
            [scheme, f"{sum(values) / len(values):.4f}"]
            for scheme, values in overall.items()
        ],
        title=f"{len(seeds)} seed(s), schemes on identical contacts",
    ))
    print(
        "conservation audit clean for every (scheme, seed) run"
    )
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.experiments.faults import fault_sweep

    config = _base_config(args)
    if args.nodes is not None:
        config = config.replace(n_nodes=args.nodes)
    if args.duration is not None:
        config = config.replace(duration=args.duration)
    seeds = list(range(1, args.seeds + 1))
    records = fault_sweep(
        config,
        loss_levels=args.losses,
        schemes=args.schemes,
        seeds=seeds,
        corruption_fraction=args.corruption_fraction,
        churn_mean_uptime=args.mean_uptime if args.churn else 0.0,
        churn_mean_downtime=args.mean_downtime,
        churn_policy=args.churn_policy,
        max_retransmissions=args.retransmissions,
        retransmit_backoff=args.retransmit_backoff,
        workers=_workers(args),
    )
    rows = [
        [
            f"{record['value']:.2f}",
            record["scheme"],
            f"{record['mdr']:.4f}",
            f"{record['overhead']:.2f}",
            f"{record['transfers_lost']:.0f}",
            f"{record['node_crashes']:.0f}",
            f"{record['retransmissions']:.0f}",
            f"{record['stranded_escrow']:.4f}",
            f"{record['double_payments']:.0f}",
            f"{record['duplicate_settlements']:.0f}",
        ]
        for record in records
    ]
    churn_note = (
        f"churn up={args.mean_uptime:.0f}s/down={args.mean_downtime:.0f}s "
        f"({args.churn_policy})" if args.churn else "no churn"
    )
    print(format_table(
        ["loss", "scheme", "MDR", "overhead", "lost", "crashes",
         "retx", "stranded", "double-pay", "blocked-dup"],
        rows,
        title=f"fault sweep, {len(seeds)} seed(s), {churn_note}, "
              f"retx budget {args.retransmissions}",
    ))
    violations = [
        record for record in records
        if record["double_payments"] > 0
        or record["stranded_escrow"] > 1e-9
        or record["supply_error"] > 1e-6
    ]
    if violations:
        for record in violations:
            print(
                f"INTEGRITY VIOLATION at loss={record['value']:.2f} "
                f"scheme={record['scheme']}: "
                f"double_payments={record['double_payments']:.0f}, "
                f"stranded_escrow={record['stranded_escrow']:.6f}, "
                f"supply_error={record['supply_error']:.6g}",
                file=sys.stderr,
            )
        return 1
    print("ledger integrity: supply conserved, escrow drained, "
          "0 double payments at every grid point")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-dtn",
        description="Reproduce the DTN incentive-mechanism paper's "
                    "experiments.",
    )
    parser.add_argument(
        "--paper-scale", action="store_true",
        help="use the full Table 5.1 scenario (slow)",
    )
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes for seed-averaged runs "
             "(1 = serial, 0 = one per CPU core; results are "
             "bit-identical either way)",
    )
    parser.add_argument(
        "--trace-cache", metavar="DIR", default=None,
        help="directory for the on-disk contact-trace cache "
             "(defaults to $REPRO_TRACE_CACHE when set)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    table = commands.add_parser("table", help="print Table 5.1")
    table.set_defaults(func=_cmd_table)

    schemes = commands.add_parser(
        "schemes",
        help="list registered schemes (names, tags, one-line docs)",
    )
    schemes.add_argument(
        "--tag", default=None, metavar="TAG",
        help="only schemes carrying this tag "
             f"(one of: {' '.join(sorted(KNOWN_TAGS))})",
    )
    schemes.set_defaults(func=_cmd_schemes)

    figure = commands.add_parser("figure", help="regenerate a figure")
    figure.add_argument("figure", help="figure id (e.g. 5.1) or 'all'")
    figure.add_argument(
        "--seeds", type=int, default=2,
        help="number of seeds to average (default 2)",
    )
    figure.set_defaults(func=_cmd_figure)

    run = commands.add_parser("run", help="run one scenario")
    run.add_argument(
        "--scheme", choices=SCHEMES, default="incentive",
        help="routing/incentive scheme",
    )
    run.add_argument("--selfish", type=float, default=0.0)
    run.add_argument("--malicious", type=float, default=0.0)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument(
        "--nodes", type=int, default=None,
        help="override the scenario's node count (smoke tests)",
    )
    run.add_argument(
        "--duration", type=float, default=None,
        help="override the simulated duration in seconds (smoke tests)",
    )
    run.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write a JSONL event trace of the run to PATH "
             "(audit it with 'repro-dtn trace audit PATH')",
    )
    run.set_defaults(func=_cmd_run)

    compare = commands.add_parser(
        "compare",
        help="run several schemes on identical contacts, with statistics",
    )
    compare.add_argument(
        "schemes", nargs="+", choices=SCHEMES,
        help="schemes to compare (first is the reference)",
    )
    compare.add_argument("--selfish", type=float, default=0.0)
    compare.add_argument("--malicious", type=float, default=0.0)
    compare.add_argument(
        "--seeds", type=int, default=3,
        help="number of seeds to average (default 3)",
    )
    compare.set_defaults(func=_cmd_compare)

    hetero = commands.add_parser(
        "hetero",
        help="heterogeneous-population comparison: per-class delivery, "
             "delay and token balances across schemes, every traced run "
             "replayed through the conservation auditor",
    )
    hetero.add_argument(
        "--schemes", nargs="+", choices=SCHEMES,
        default=["incentive", "incentive-chitchat-hetero", "minority-game"],
        help="schemes to compare on identical contacts (default: the "
             "homogeneous-pricing baseline plus both class-aware "
             "schemes)",
    )
    hetero.add_argument(
        "--seeds", type=int, default=1,
        help="number of seeds to run per scheme (default 1)",
    )
    hetero.add_argument(
        "--nodes", type=int, default=120,
        help="population size (default 120)",
    )
    hetero.add_argument(
        "--duration", type=float, default=3_600.0,
        help="simulated seconds (default 3600 = one hour)",
    )
    hetero.add_argument(
        "--pedestrian", type=float, default=0.6, metavar="F",
        help="pedestrian class fraction (default 0.6)",
    )
    hetero.add_argument(
        "--vehicular", type=float, default=0.3, metavar="F",
        help="vehicular class fraction (default 0.3)",
    )
    hetero.add_argument(
        "--infrastructure", type=float, default=0.1, metavar="F",
        help="infrastructure class fraction (default 0.1)",
    )
    hetero.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="keep the per-run JSONL event traces in DIR (temporary "
             "files otherwise)",
    )
    hetero.set_defaults(func=_cmd_hetero)

    faults = commands.add_parser(
        "faults",
        help="robustness sweep: delivery and ledger integrity under "
             "link loss, corruption and node churn",
    )
    faults.add_argument(
        "--losses", type=float, nargs="+",
        default=[0.0, 0.1, 0.2, 0.3], metavar="P",
        help="per-transfer fault probabilities to sweep "
             "(default: 0.0 0.1 0.2 0.3)",
    )
    faults.add_argument(
        "--corruption-fraction", type=float, default=0.0, metavar="F",
        help="portion of each loss level attributed to corruption "
             "instead of loss (default 0)",
    )
    faults.add_argument(
        "--schemes", nargs="+", choices=SCHEMES,
        default=list(tagged("paper-comparison")),
        help="schemes to compare (default: the paper-comparison pair)",
    )
    faults.add_argument(
        "--seeds", type=int, default=1,
        help="number of seeds to average (default 1)",
    )
    faults.add_argument(
        "--churn", action="store_true",
        help="also crash/restart nodes (exponential outage windows)",
    )
    faults.add_argument(
        "--mean-uptime", type=float, default=1_800.0, metavar="S",
        help="mean exponential uptime between crashes (default 1800 s)",
    )
    faults.add_argument(
        "--mean-downtime", type=float, default=600.0, metavar="S",
        help="mean exponential outage length (default 600 s)",
    )
    faults.add_argument(
        "--churn-policy", choices=("wipe", "persist"), default="wipe",
        help="what a restart recovers: wipe loses the buffer and dedup "
             "memory, persist keeps both (default wipe)",
    )
    faults.add_argument(
        "--retransmissions", type=int, default=0, metavar="N",
        help="retry budget per (receiver, message) for loss/corruption "
             "aborts (default 0 = off)",
    )
    faults.add_argument(
        "--retransmit-backoff", type=float, default=30.0, metavar="S",
        help="base backoff before the first retry, doubling per retry "
             "(default 30 s)",
    )
    faults.add_argument(
        "--nodes", type=int, default=None,
        help="override the scenario's node count (smoke tests)",
    )
    faults.add_argument(
        "--duration", type=float, default=None,
        help="override the simulated duration in seconds (smoke tests)",
    )
    faults.set_defaults(func=_cmd_faults)

    trace = commands.add_parser(
        "trace",
        help="contact-trace generation and run-trace auditing",
    )
    trace_commands = trace.add_subparsers(
        dest="trace_command", required=True
    )

    contacts = trace_commands.add_parser(
        "contacts", help="generate and save a contact trace",
    )
    contacts.add_argument("out", help="output file path")
    contacts.add_argument(
        "--format", choices=("jsonl", "one"), default="jsonl",
        help="jsonl (native) or one (ONE-simulator CONN report)",
    )
    contacts.add_argument(
        "--mobility",
        choices=("random-waypoint", "random-walk", "manhattan"),
        default="random-waypoint",
    )
    contacts.add_argument("--nodes", type=int, default=None)
    contacts.add_argument("--duration", type=float, default=None)
    contacts.add_argument("--seed", type=int, default=1)
    contacts.set_defaults(func=_cmd_trace_contacts)

    audit = trace_commands.add_parser(
        "audit",
        help="replay a run's event trace into per-node token ledgers, "
             "reputation series and a conservation audit",
    )
    audit.add_argument(
        "trace_file", help="JSONL event trace (from 'run --trace')",
    )
    audit.add_argument(
        "--json", action="store_true",
        help="emit the audit summary as JSON instead of tables",
    )
    audit.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="accounts to show in the token-flow table (default 10)",
    )
    audit.set_defaults(func=_cmd_trace_audit)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.workers < 0:
        print("--workers must be >= 0", file=sys.stderr)
        return 2
    if args.trace_cache:
        from repro.experiments.trace_cache import TraceCache, set_default_cache

        try:
            set_default_cache(TraceCache(args.trace_cache))
        except OSError as exc:
            print(
                f"--trace-cache {args.trace_cache!r} is not a usable "
                f"directory: {exc}",
                file=sys.stderr,
            )
            return 2
    try:
        return args.func(args)
    except ConfigurationError as exc:
        # Invalid input (a scenario field, a tag, a sweep level) is a
        # usage error: one line naming the problem, as argparse reports.
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
