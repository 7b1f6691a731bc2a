"""Command-line interface: regenerate any paper figure from the shell.

Usage::

    python -m repro list
    python -m repro run fig3d
    python -m repro run fig12 --scale quick
    python -m repro run table1 --out results.txt
    python -m repro run table1 --trace table1.json   # Chrome trace
    python -m repro run fig12 --format csv --seed 7
    python -m repro run all --scale quick
    python -m repro run fig12 --jobs 4                # parallel sweep
    python -m repro run fig12 --depth 4               # 4 op coroutines/client
    python -m repro run --list-indexes                # registry contents
    python -m repro run --list-workloads
    python -m repro trace --index chime --workload C --out trace.json
    python -m repro run skew-sync --sync-mode adaptive   # lock-mode sweep
    python -m repro chaos --crash cn0/c0:lock --seed 7
    python -m repro chaos --sync-mode pessimistic --crash cn0/c0:lock
    python -m repro chaos --no-leases --crash cn0/c0:lock
    python -m repro chaos --loss 0.01 --delay 0.05 --outage 0:100us:300us
    python -m repro campaign run --indexes chime,sherman --seeds 3
    python -m repro campaign status
    python -m repro campaign report --out campaign-report.html
    python -m repro campaign diff

Figure names map to the experiment functions of
:mod:`repro.bench.experiments`; ``--scale`` picks a preset from
:mod:`repro.bench.scale`.  ``--trace`` records per-operation phase spans
via :mod:`repro.obs` and writes them as Chrome trace-event JSON (open in
``chrome://tracing`` or https://ui.perfetto.dev).  The ``trace``
subcommand runs a single workload point under full observability and
prints the latency flame summary plus the metrics snapshot.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
import time
from typing import Dict, List, Optional, Sequence

from repro.bench import PRESETS, Scale
from repro.bench.report import format_table
from repro.bench import experiments as exp
from repro.config import KNOBS, Knob, scale_fields, unknown_env_vars
from repro.errors import ConfigError

#: Figure name -> (experiment callable, wants_scale).
EXPERIMENTS: Dict[str, tuple] = {
    "fig3a": (exp.fig3a_tradeoff, True),
    "fig3b": (exp.fig3b_limited_bandwidth, True),
    "fig3c": (exp.fig3c_limited_cache, True),
    "fig3d": (exp.fig3d_hashing, False),
    "fig4": (exp.fig4_micro, True),
    "table1": (exp.table1_rtts, True),
    "fig12": (exp.fig12_ycsb, True),
    "figpoint": (exp.fig12_point_families, True),
    "figplacement": (exp.figplacement, True),
    "figshard": (exp.figshard_scaleout, True),
    "fig13": (exp.fig13_variable_kv, True),
    "fig14": (exp.fig14_cache_consumption, True),
    "fig15": (exp.fig15_factor_analysis, True),
    "fig15b": (exp.fig15b_learned_branch, True),
    "fig16": (exp.fig16_sibling_validation, False),
    "fig17": (exp.fig17_speculative, True),
    "fig18a": (exp.fig18a_skewness, True),
    "fig18b": (exp.fig18b_cache_size, True),
    "fig18c": (exp.fig18c_inline_value_size, True),
    "fig18d": (exp.fig18d_indirect_value_size, True),
    "fig18e": (exp.fig18e_span_size, True),
    "fig18f": (exp.fig18f_neighborhood_size, True),
    "fig19a": (exp.fig19a_span_metrics, True),
    "fig19b": (exp.fig19b_neighborhood_load_factor, False),
    "fig19c": (exp.fig19c_hotspot_buffer, True),
    "ablation-cxl": (exp.ablation_cxl_atomics, True),
    "ablation-rdwc": (exp.ablation_rdwc, True),
    "ablation-locks": (exp.ablation_local_lock_table, True),
    "ablation-torn": (exp.ablation_torn_writes, True),
    "ablation-write-amp": (exp.ablation_write_amplification, True),
    "skew-sync": (exp.skew_sync_sweep, True),
}


def run_experiment(name: str, scale: Scale) -> List[dict]:
    func, wants_scale = EXPERIMENTS[name]
    return func(scale) if wants_scale else func()


def format_rows(rows: Sequence[dict], fmt: str, title: str = "") -> str:
    """Render experiment rows as a table, CSV, or JSON document."""
    if fmt == "table":
        return format_table(rows, title=title)
    if fmt == "csv":
        sink = io.StringIO()
        columns: List[str] = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
        writer = csv.DictWriter(sink, fieldnames=columns, restval="")
        writer.writeheader()
        writer.writerows(rows)
        return sink.getvalue().rstrip("\n")
    if fmt == "json":
        return json.dumps({"figure": title, "rows": list(rows)}, indent=2)
    raise ValueError(f"unknown format {fmt!r}")


#: The CLI runs the quick preset unless told otherwise
#: (``current_scale()`` defaults to ``default`` for the benchmark suite).
CLI_SCALE = "quick"


def _flag_type(knob: Knob):
    """An argparse ``type=`` that validates like the knob's variable."""
    def parse(text: str):
        try:
            return knob.parse(text, knob.flag)
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _add_knob_flags(parser, names: str, env: str = "",
                    pinned: bool = False) -> None:
    """Add the flags of the :data:`~repro.config.KNOBS` rows in *names*.

    *env* lists the knobs this command reads from their ``REPRO_*``
    variable when no flag is given (a knob may be honoured without
    having a flag here).  A *pinned* command (campaigns) defaults every
    other flag to the table default, so what it stores never depends on
    ambient environment.
    """
    honoured = env.split()
    parser.set_defaults(knob_env=honoured)
    for name in names.split():
        knob = KNOBS[name]
        fallback = CLI_SCALE if name == "scale" else knob.default
        note = f"default: {knob.default_text or fallback}"
        # Only --scale and pinned flags carry a default into args; any
        # other absent flag stays None so the Scale's own value stands.
        carried = name == "scale"
        if name in honoured:
            note = f"default: ${knob.env} or {knob.default_text or fallback}"
        elif pinned:
            note, carried = "pinned per point; " + note, True
        if knob.kind is bool:
            kind = dict(action="store_const", const=True)
        else:
            kind = dict(type=_flag_type(knob), choices=knob.choices or None,
                        default=fallback if carried else None)
        parser.add_argument(knob.flag, dest=name,
                            help=f"{knob.help} ({note})", **kind)


def _knob_values(args) -> dict:
    """``Scale`` fields for this command: flag > honoured environment.

    More than one MN with no shard count given means "scale out": one
    shard per MN (``--shards 0`` keeps the legacy striped pool).
    """
    values = scale_fields(vars(args), args.knob_env)
    if values.get("num_mns", 1) > 1 and "num_shards" not in values:
        values["num_shards"] = values["num_mns"]
    return values


def _list_indexes() -> None:
    from repro.registry import families
    rows = [{"index": f.name, "family": f.family,
             "kv_discrete": f.kv_discrete, "scan": f.supports_scan,
             "chaos": f.supports_chaos, "indirect": f.indirect_values,
             "model_routed": f.model_routed,
             "one_rtt": f.one_rtt_point, "offload": f.mn_offload,
             "dyn_place": f.dynamic_placement,
             "placement": f.default_placement,
             "description": f.description}
            for f in families()]
    print(format_table(rows, title="registered index families"))


def _list_workloads() -> None:
    from repro.workloads.ycsb import WORKLOADS
    rows = []
    for name, spec in WORKLOADS.items():
        row = {"workload": name}
        for fld in dataclasses.fields(spec):
            row[fld.name] = getattr(spec, fld.name)
        rows.append(row)
    print(format_table(rows, title="YCSB workload mixes"))


def _cmd_run(args) -> int:
    if args.list_indexes or args.list_workloads:
        try:
            if args.list_indexes:
                _list_indexes()
            if args.list_workloads:
                _list_workloads()
        except BrokenPipeError:  # e.g. `... --list-indexes | head`
            pass
        return 0
    if not args.figure:
        print("a figure name (or 'all') is required; "
              "try 'python -m repro list'", file=sys.stderr)
        return 2
    names = list(EXPERIMENTS) if args.figure == "all" else [args.figure]
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown figure(s): {', '.join(unknown)}; "
              f"try 'python -m repro list'", file=sys.stderr)
        return 2
    scale = dataclasses.replace(PRESETS[args.scale], **_knob_values(args))

    recorder = None
    if args.trace:
        try:
            open(args.trace, "a").close()  # fail before the run, not after
        except OSError as exc:
            print(f"cannot write trace file: {exc}", file=sys.stderr)
            return 2
        from repro import obs
        recorder = obs.recording()
        recorder.__enter__()
    try:
        for name in names:
            started = time.time()
            rows = run_experiment(name, scale)
            rendered = format_rows(rows, args.format,
                                   title=f"{name} (scale={scale.name})")
            print(rendered)
            if args.format == "table":
                print(f"[{name}: {time.time() - started:.1f}s]\n")
            if args.out:
                with open(args.out, "a") as sink:
                    sink.write(rendered + "\n\n")
    finally:
        if recorder is not None:
            recorder.__exit__(None, None, None)
    if recorder is not None:
        from repro.obs import write_chrome_trace
        write_chrome_trace(recorder.spans, args.trace,
                           metadata={"figures": names,
                                     "scale": scale.name,
                                     "seed": scale.seed})
        print(f"[trace: {len(recorder.spans)} spans -> {args.trace}]",
              file=sys.stderr)  # keep stdout clean for --format json/csv
    return 0


def _cmd_trace(args) -> int:
    from repro import obs
    from repro.errors import WorkloadError
    from repro.workloads.ycsb import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; "
              f"choose from {', '.join(sorted(WORKLOADS))}", file=sys.stderr)
        return 2
    scale = dataclasses.replace(PRESETS[args.scale], **_knob_values(args))
    try:
        point = scale.point(
            args.index, args.workload,
            scale.cluster_config(clients=args.clients),
            ops_per_client=args.ops or scale.ops_per_client)
        with obs.recording() as recorder:
            result = point.run()
    except WorkloadError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(format_table([result.summary()],
                       title=f"{args.index} / YCSB-{args.workload} "
                             f"(scale={scale.name}, seed={scale.seed})"))
    print()
    print(obs.flame_summary(recorder.spans))
    if args.out:
        obs.write_chrome_trace(
            recorder.spans, args.out,
            metadata={"index": args.index, "workload": args.workload,
                      "scale": scale.name, "seed": scale.seed})
        print(f"\n[trace: {len(recorder.spans)} spans -> {args.out}]")
    return 0


def _parse_time(text: str) -> float:
    """Parse a simulated duration: '250us', '1.5ms', '0.001s', or seconds."""
    for suffix, unit in (("us", 1e-6), ("ms", 1e-3), ("s", 1.0)):
        if text.endswith(suffix):
            return float(text[:-len(suffix)]) * unit
    return float(text)


def _parse_crash(spec: str):
    """Parse ``owner[:point]`` crash specs.

    The point is either ``lock`` (the default: die right before the
    first WRITE verb, i.e. holding a leaf lock with nothing landed) or
    ``KIND[@NTH][:before|after]``, e.g. ``cn0/c1:read@3:after``.
    """
    owner, _, rest = spec.partition(":")
    if not owner:
        raise ValueError(f"crash spec needs an owner: {spec!r}")
    if not rest or rest == "lock":
        return owner, ("write", "write_batch"), 1, "before"
    when = "before"
    if rest.endswith((":before", ":after")):
        rest, _, when = rest.rpartition(":")
    kind, _, nth_text = rest.partition("@")
    return owner, (kind,), int(nth_text) if nth_text else 1, when


def _cmd_chaos(args) -> int:
    from repro.faults import ChaosConfig, run_chaos

    overrides: dict = {"seed": args.seed, "lock_leases": not args.no_leases}
    if args.index:
        overrides["index"] = args.index
    values = _knob_values(args)
    for name in ("depth", "sync_mode", "num_mns", "num_shards", "cache_mode"):
        if name in values:
            field = "pipeline_depth" if name == "depth" else name
            overrides[field] = values[name]
    if args.crash is not None:
        if args.crash:
            try:
                owner, kinds, nth, when = _parse_crash(args.crash)
            except ValueError as exc:
                print(str(exc), file=sys.stderr)
                return 2
            overrides.update(crash_owner=owner, crash_kinds=kinds,
                             crash_nth=nth, crash_when=when)
        else:
            overrides["crash_owner"] = ""
    if args.loss:
        overrides["loss_probability"] = args.loss
    if args.delay:
        overrides["delay_probability"] = args.delay
    if args.lease_duration:
        overrides["lease_duration"] = _parse_time(args.lease_duration)
    if args.max_attempts:
        overrides["max_attempts"] = args.max_attempts
    if args.ops:
        overrides["ops_per_client"] = args.ops
    if args.keys:
        overrides["initial_keys"] = args.keys
        overrides["key_space"] = args.keys * 2
    outages = []
    for spec in args.outage or ():
        try:
            mn_text, start_text, end_text = spec.split(":")
            outages.append((int(mn_text), _parse_time(start_text),
                            _parse_time(end_text)))
        except ValueError:
            print(f"bad outage spec {spec!r} (want MN:START:END)",
                  file=sys.stderr)
            return 2
    if outages:
        overrides["mn_outages"] = tuple(outages)
    migrations = []
    for spec in args.migrate or ():
        try:
            shard_text, mn_text, start_text = spec.split(":")
            migrations.append((int(shard_text), int(mn_text),
                               _parse_time(start_text)))
        except ValueError:
            print(f"bad migrate spec {spec!r} (want SHARD:MN:START)",
                  file=sys.stderr)
            return 2
    if migrations:
        overrides["migrations"] = tuple(migrations)
    cfg = ChaosConfig(**overrides)
    result = run_chaos(cfg)
    print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    ok = result.invariants.ok and not result.errors
    print(f"[chaos: {'OK' if ok else 'FAILED'} — "
          f"{len(result.invariants.violations)} violations, "
          f"{len(result.errors)} client errors, "
          f"dead CNs {result.dead_cns}]", file=sys.stderr)
    return 0 if ok else 1


# --------------------------------------------------------------------------
# campaign — the repro.xpmt experiment service
# --------------------------------------------------------------------------

#: Default campaign store path (repo root, gitignored).
CAMPAIGN_DB = "campaigns.sqlite"


def _campaign_scale(args) -> Scale:
    """Resolve --scale + the dataset-size overrides."""
    # Cells pin every knob they carry; the rebalancer has no cell
    # field, so it alone reaches campaign points from the environment
    # (and re-keys them, see repro.xpmt.spec.relevant_env).
    overrides = {"rebalance": _knob_values(args).get("rebalance", False)}
    if getattr(args, "num_keys", None):
        overrides["num_keys"] = args.num_keys
    if getattr(args, "ops", None):
        overrides["ops_per_client"] = args.ops
    return dataclasses.replace(PRESETS[args.scale], **overrides)


def _campaign_plan(args):
    from repro.xpmt import CampaignPlan, CellSpec

    scale = _campaign_scale(args)
    indexes = [n.strip() for n in args.indexes.split(",") if n.strip()]
    workloads = [w.strip().upper() for w in args.workloads.split(",")
                 if w.strip()]
    if args.clients:
        clients = [int(c) for c in args.clients.split(",")]
    else:
        clients = [scale.clients]
    cells = tuple(
        CellSpec(index, workload, count, depth=args.depth,
                 value_size=args.value_size, theta=args.theta,
                 span=args.span, neighborhood=args.neighborhood,
                 sync_mode=args.sync_mode,
                 num_mns=args.num_mns, cache_mode=args.cache_mode,
                 placement=args.placement)
        for index in indexes
        for workload in workloads
        for count in clients)
    base = args.seed_base if args.seed_base is not None else scale.seed
    seeds = tuple(base + i for i in range(args.seeds))
    return CampaignPlan(scale=scale, cells=cells, seeds=seeds,
                        name=args.name or "")


def _campaign_id_or_latest(store, requested: Optional[str],
                           parser_hint: str) -> Optional[str]:
    if requested:
        return requested
    campaigns = store.campaigns()
    if not campaigns:
        print(f"no campaigns in {store.path}; run "
              f"'python -m repro campaign run' first", file=sys.stderr)
        return None
    if len(campaigns) > 1:
        names = ", ".join(c["id"] for c in campaigns)
        print(f"multiple campaigns in {store.path} ({names}); "
              f"pick one with {parser_hint}", file=sys.stderr)
        return None
    return campaigns[0]["id"]


def _cmd_campaign(args) -> int:
    from repro.registry import get_family
    from repro.workloads.ycsb import WORKLOADS
    from repro.xpmt import CampaignStore

    if args.campaign_command == "run":
        try:
            plan = _campaign_plan(args)
        except KeyError as exc:
            print(f"bad campaign matrix: {exc}", file=sys.stderr)
            return 2
        for cell in plan.cells:
            try:
                get_family(cell.index)
            except KeyError:
                print(f"unknown index {cell.index!r}; see "
                      f"'repro run --list-indexes'", file=sys.stderr)
                return 2
            if cell.workload not in WORKLOADS:
                print(f"unknown workload {cell.workload!r}; choose from "
                      f"{', '.join(sorted(WORKLOADS))}", file=sys.stderr)
                return 2
        if not plan.cells:
            print("empty campaign matrix", file=sys.stderr)
            return 2
        with CampaignStore(args.db) as store:
            from repro.xpmt import run_campaign
            summary = run_campaign(store, plan,
                                   jobs=_knob_values(args).get("jobs"),
                                   limit=args.limit, echo=print)
        print(summary.describe())
        return 0

    if args.campaign_command == "status":
        from repro.xpmt import campaign_status
        with CampaignStore(args.db) as store:
            rows = campaign_status(store)
            total = store.point_count()
        if not rows:
            print(f"no campaigns recorded in {args.db}")
            return 0
        print(format_table(rows, title=f"campaigns in {args.db} "
                                       f"({total} stored points)"))
        return 0

    if args.campaign_command == "report":
        from repro.xpmt import build_report
        with CampaignStore(args.db) as store:
            campaign_id = _campaign_id_or_latest(store, args.id, "--id")
            if campaign_id is None:
                return 2
            document, verdict = build_report(
                store, campaign_id, alpha=args.alpha,
                min_drop=args.min_drop)
        with open(args.out, "w") as sink:
            sink.write(document)
        for problem in verdict["problems"]:
            print(f"regression: {problem}", file=sys.stderr)
        for warning in verdict["warnings"]:
            print(f"warning: {warning}", file=sys.stderr)
        status = "PASS" if verdict["ok"] else "FAIL"
        print(f"[campaign {campaign_id}: {status} — "
              f"{len(verdict['checks'])} cells, "
              f"{len(verdict['problems'])} regressions, "
              f"{len(verdict['warnings'])} warnings -> {args.out}]")
        return 0 if verdict["ok"] else 1

    # diff
    from repro.xpmt import collect_cells, diff_cells
    with CampaignStore(args.db) as store:
        campaign_id = _campaign_id_or_latest(store, args.id, "--id")
        if campaign_id is None:
            return 2
        cells = collect_cells(store, campaign_id)
    if not cells:
        print(f"campaign {campaign_id} has no stored points",
              file=sys.stderr)
        return 2
    commits: List[str] = []
    for cell in cells:
        for commit in cell.commit_order:
            if commit not in commits:
                commits.append(commit)
    base = args.base or (commits[-2] if len(commits) >= 2 else None)
    head = args.head or commits[-1]
    if base is None:
        print("only one commit stored; nothing to diff against "
              "(pass --base)", file=sys.stderr)
        return 2
    rows = diff_cells(cells, base, head)
    print(format_table(rows, title=f"campaign {campaign_id}: "
                                   f"{base[:12]} -> {head[:12]}"))
    regressed = any(r["verdict"] == "REGRESSED" for r in rows)
    return 1 if regressed else 0


def build_parser() -> argparse.ArgumentParser:
    """The whole command-line surface (``tests/test_cli.py`` parses
    every README example through it without running anything)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate CHIME (SOSP '24) evaluation figures on "
                    "the simulated DM cluster.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available figures")

    run_parser = sub.add_parser("run", help="run one figure (or 'all')")
    run_parser.add_argument("figure", nargs="?", default=None,
                            help="figure name or 'all'")
    run_parser.add_argument("--list-indexes", action="store_true",
                            help="list registered index families with "
                                 "their capability flags, then exit")
    run_parser.add_argument("--list-workloads", action="store_true",
                            help="list YCSB workload mixes, then exit")
    run_parser.add_argument("--out", default=None,
                            help="also append output to this file")
    run_parser.add_argument("--format", default="table",
                            choices=("table", "csv", "json"),
                            help="output format (default: table)")
    run_parser.add_argument("--trace", default=None, metavar="PATH",
                            help="record per-op phase spans and write a "
                                 "Chrome trace-event JSON file")
    _add_knob_flags(run_parser, "scale seed jobs depth sync_mode num_mns "
                                "num_shards cache_mode rebalance",
                    env="jobs depth sync_mode num_mns num_shards cache_mode "
                        "rebalance placement")

    trace_parser = sub.add_parser(
        "trace", help="trace one workload point (spans + metrics)")
    trace_parser.add_argument("--index", default="chime",
                              help="index legend name (default: chime)")
    trace_parser.add_argument("--workload", default="C",
                              help="YCSB workload letter (default: C)")
    trace_parser.add_argument("--clients", type=int, default=None,
                              help="total client count (default: preset)")
    trace_parser.add_argument("--ops", type=int, default=None,
                              help="ops per client (default: preset)")
    trace_parser.add_argument("--out", default=None, metavar="PATH",
                              help="write Chrome trace-event JSON here")
    _add_knob_flags(trace_parser, "scale seed depth sync_mode",
                    env="depth sync_mode num_mns num_shards cache_mode "
                        "rebalance placement")

    chaos_parser = sub.add_parser(
        "chaos", help="run a seeded fault-injection campaign against CHIME")
    chaos_parser.add_argument("--index", default=None,
                              help="index family under test (default: "
                                   "chime; any registry family with "
                                   "supports_chaos)")
    chaos_parser.add_argument("--seed", type=int, default=7,
                              help="campaign seed (workload + fault draws)")
    chaos_parser.add_argument("--crash", default=None, metavar="SPEC",
                              help="crash spec 'owner[:point]', e.g. "
                                   "'cn0/c0:lock' (default campaign) or "
                                   "'cn0/c1:read@3:after'; '' disables")
    chaos_parser.add_argument("--no-leases", action="store_true",
                              help="disable lease-based lock recovery "
                                   "(demonstrates the orphaned-lock hang)")
    chaos_parser.add_argument("--lease-duration", default=None,
                              metavar="DUR", help="lease window, e.g. 250us")
    chaos_parser.add_argument("--loss", type=float, default=0.0,
                              help="per-verb loss probability")
    chaos_parser.add_argument("--delay", type=float, default=0.0,
                              help="per-verb latency-spike probability")
    chaos_parser.add_argument("--outage", action="append", metavar="SPEC",
                              help="MN outage 'MN:START:END' (repeatable), "
                                   "e.g. '0:100us:300us'")
    chaos_parser.add_argument("--max-attempts", type=int, default=None,
                              help="retry budget per operation")
    chaos_parser.add_argument("--ops", type=int, default=None,
                              help="ops per client")
    chaos_parser.add_argument("--keys", type=int, default=None,
                              help="bulk-loaded key count")
    _add_knob_flags(chaos_parser,
                    "depth sync_mode num_mns num_shards cache_mode",
                    env="num_mns num_shards cache_mode")
    chaos_parser.add_argument("--migrate", action="append", metavar="SPEC",
                              help="online shard migration "
                                   "'SHARD:MN:START' (repeatable), e.g. "
                                   "'1:0:60us'")

    campaign_parser = sub.add_parser(
        "campaign",
        help="incremental multi-seed sweep campaigns (repro.xpmt)")
    campaign_sub = campaign_parser.add_subparsers(dest="campaign_command",
                                                  required=True)

    def _db_arg(p):
        p.add_argument("--db", default=CAMPAIGN_DB, metavar="PATH",
                       help=f"campaign sqlite store "
                            f"(default: {CAMPAIGN_DB})")

    crun = campaign_sub.add_parser(
        "run", help="run (or resume) a campaign; stored points are "
                    "skipped")
    _db_arg(crun)
    crun.add_argument("--name", default="", help="campaign id (default: "
                                                 "derived from the matrix)")
    crun.add_argument("--scale", default="quick", choices=sorted(PRESETS),
                      help="scaling preset (default: quick)")
    crun.add_argument("--indexes", default="chime", metavar="A,B",
                      help="comma-separated index families "
                           "(default: chime)")
    crun.add_argument("--workloads", default="C", metavar="X,Y",
                      help="comma-separated YCSB letters (default: C)")
    crun.add_argument("--clients", default="", metavar="N,M",
                      help="comma-separated client counts "
                           "(default: the preset's operating point)")
    crun.add_argument("--value-size", type=int, default=8, metavar="B")
    crun.add_argument("--theta", type=float, default=0.99,
                      help="zipf skew for A-style workloads")
    crun.add_argument("--span", type=int, default=None)
    crun.add_argument("--neighborhood", type=int, default=None)
    crun.add_argument("--seeds", type=int, default=3, metavar="N",
                      help="replicates per cell (default: 3)")
    crun.add_argument("--seed-base", type=int, default=None, metavar="S",
                      help="first replicate seed (default: preset seed)")
    crun.add_argument("--num-keys", type=int, default=None,
                      help="override the preset's dataset size")
    crun.add_argument("--ops", type=int, default=None,
                      help="override the preset's ops per client")
    _add_knob_flags(crun, "depth sync_mode num_mns cache_mode placement jobs",
                    env="jobs rebalance", pinned=True)
    crun.add_argument("--limit", type=int, default=None, metavar="K",
                      help="execute at most K missing points this "
                           "invocation (budget valve)")

    cstatus = campaign_sub.add_parser("status",
                                      help="list campaigns and progress")
    _db_arg(cstatus)

    creport = campaign_sub.add_parser(
        "report", help="render the static HTML report + verdict")
    _db_arg(creport)
    creport.add_argument("--id", default="", help="campaign id "
                                                  "(default: the only one)")
    creport.add_argument("--out", default="campaign-report.html",
                         metavar="PATH")
    creport.add_argument("--alpha", type=float, default=0.05,
                         help="Mann-Whitney significance level")
    creport.add_argument("--min-drop", type=float, default=0.05,
                         help="relative mean drop below which a cell is "
                              "never flagged")

    cdiff = campaign_sub.add_parser(
        "diff", help="compare two stored commits cell by cell")
    _db_arg(cdiff)
    cdiff.add_argument("--id", default="", help="campaign id")
    cdiff.add_argument("--base", default="", metavar="COMMIT",
                       help="baseline commit (default: previous stored)")
    cdiff.add_argument("--head", default="", metavar="COMMIT",
                       help="head commit (default: newest stored)")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    for name in unknown_env_vars():
        print(f"warning: unrecognized environment variable {name} "
              f"(no REPRO_* knob by that name; typo?)", file=sys.stderr)

    if args.command == "list":
        try:
            for name in EXPERIMENTS:
                print(name)
        except BrokenPipeError:  # e.g. `python -m repro list | head`
            pass
        return 0
    handler = {"trace": _cmd_trace, "chaos": _cmd_chaos,
               "campaign": _cmd_campaign, "run": _cmd_run}[args.command]
    try:
        return handler(args)
    except ConfigError as exc:  # a bad REPRO_* value (flags fail in argparse)
        print(f"repro: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
