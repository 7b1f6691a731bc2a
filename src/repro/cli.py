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
    python -m repro campaign run fig12_ycsb_read --seeds 42-46
    python -m repro campaign status
    python -m repro campaign report --out campaign-report.txt
    python -m repro campaign diff

Figure names are the records of :data:`repro.bench.figures.FIGURES`
(the same records ``benchmarks/`` writes its tables from); ``--scale``
picks a preset from
:mod:`repro.bench.scale`.  ``--trace`` records per-operation phase spans
via :mod:`repro.obs` and writes them as Chrome trace-event JSON (open in
``chrome://tracing`` or https://ui.perfetto.dev).  The ``trace``
subcommand runs a single workload point under full observability and
prints a row per op name and per phase plus the metrics snapshot.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
import time
from contextlib import nullcontext
from typing import List, Optional, Sequence

from repro.bench import PRESETS
from repro.bench.report import format_table, trace_rows
from repro.bench.figures import FIGURES
from repro.config import KNOBS, Knob, scale_fields, unknown_env_warnings
from repro.errors import ConfigError

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
             "scan": f.supports_scan, "indirect": f.indirect_values,
             "model_routed": f.model_routed,
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
    names = list(FIGURES) if args.figure == "all" else [args.figure]
    unknown = [n for n in names if n not in FIGURES]
    if unknown:
        print(f"unknown figure(s): {', '.join(unknown)}; "
              f"try 'python -m repro list'", file=sys.stderr)
        return 2
    scale = dataclasses.replace(PRESETS[args.scale], **_knob_values(args))

    if args.trace:
        try:
            open(args.trace, "a").close()  # fail before the run, not after
        except OSError as exc:
            print(f"cannot write trace file: {exc}", file=sys.stderr)
            return 2
    from repro import obs
    with obs.recording() if args.trace else nullcontext() as recorder:
        for name in names:
            started = time.time()
            rows = FIGURES[name].rows(scale)
            rendered = format_rows(rows, args.format,
                                   title=f"{name} (scale={scale.name})")
            print(rendered)
            if args.format == "table":
                print(f"[{name}: {time.time() - started:.1f}s]\n")
            if args.out:
                with open(args.out, "a") as sink:
                    sink.write(rendered + "\n\n")
    if recorder is not None:
        obs.write_chrome_trace(recorder.spans, args.trace,
                               metadata={"figures": names, "scale": scale.name,
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
    summary = result.summary()
    print(format_table([{name: value for name, value in summary.items()
                         if not name.startswith("obs.")}],
                       title=f"{args.index} / YCSB-{args.workload} "
                             f"(scale={scale.name}, seed={scale.seed})"))
    for title, rows in zip(("ops", "phases"), trace_rows(recorder.ops())):
        print()
        print(format_table(rows, title=title))
    print()
    print(format_table([{"name": name, "value": value}
                        for name, value in summary.items() if name.startswith("obs.")],
                       title="metrics"))
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
    try:
        return owner, (kind,), int(nth_text) if nth_text else 1, when
    except ValueError:
        raise ValueError(f"bad crash spec {spec!r} (want "
                         "OWNER[:KIND[@NTH][:before|after]])") from None


def _cmd_chaos(args) -> int:
    from repro.errors import WorkloadError
    from repro.faults import CHAOS_CLUSTER, FaultPlan, run_chaos

    for flag, value in (("--ops", args.ops), ("--keys", args.keys)):
        if value < 1:
            print(f"{flag} must be >= 1: {value}", file=sys.stderr)
            return 2
    values = _knob_values(args)
    knobs = {("pipeline_depth" if name == "depth" else name): values[name]
             for name in ("depth", "sync_mode", "num_mns", "num_shards")
             if name in values}
    plan = FaultPlan(seed=args.seed)
    try:
        if args.lease_duration is not None:
            knobs["lease_duration"] = _parse_time(args.lease_duration)
        if args.crash:
            plan.crash(*_parse_crash(args.crash))
        if args.loss:
            plan.drop(args.loss)
        if args.delay:
            plan.spike(args.delay, 5e-6)
        for spec in args.outage or ():
            try:
                mn_text, start_text, end_text = spec.split(":")
                window = (int(mn_text), _parse_time(start_text),
                          _parse_time(end_text))
            except ValueError:
                raise ValueError(
                    f"bad outage spec {spec!r} (want MN:START:END)") from None
            plan.outage(*window)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    try:
        result = run_chaos(
            CHAOS_CLUSTER.scaled(seed=args.seed,
                                 lock_leases=not args.no_leases, **knobs),
            plan, args.index, args.ops, args.keys, args.max_attempts)
    except WorkloadError as exc:  # an unknown family, an undeclared mode
        print(str(exc), file=sys.stderr)
        return 2
    print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    print(f"[chaos: {'OK' if result.ok else 'FAILED'} — "
          f"{len(result.invariants.violations)} violations, "
          f"{len(result.errors)} client errors, "
          f"dead CNs {result.dead_cns}]", file=sys.stderr)
    return 0 if result.ok else 1


# --------------------------------------------------------------------------
# campaign — the repro.xpmt experiment service
# --------------------------------------------------------------------------

#: Default campaign store path (repo root, gitignored).
CAMPAIGN_DB = "campaigns.sqlite"


def _seed_list(text: str) -> List[int]:
    """``--seeds``: a seed, a comma list or a range (``7``, ``1,3,7``,
    ``42-46``)."""
    seeds: List[int] = []
    try:
        for part in text.split(","):
            low, dash, high = part.partition("-")
            seeds += range(int(low), int(high) + 1) if dash else [int(low)]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad seed list {text!r} (want 7, 1,3,7 or 42-46)") from None
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return list(dict.fromkeys(seeds))


def _stored_campaign(store, requested: str) -> Optional[str]:
    """The campaign *requested* (default: the only one), or None after
    saying why on stderr: none recorded, several to pick from, or no
    point stored under that id."""
    ids = [c["id"] for c in store.campaigns()]
    if not requested:
        if not ids:
            print(f"no campaigns in {store.path}; run "
                  f"'python -m repro campaign run' first", file=sys.stderr)
            return None
        if len(ids) > 1:
            print(f"multiple campaigns in {store.path} ({', '.join(ids)}); "
                  f"pick one with --id", file=sys.stderr)
            return None
        requested = ids[0]
    if not store.point_count(campaign_id=requested):
        print(f"campaign {requested} has no stored points in {store.path} "
              f"(stored: {', '.join(ids) or 'none'})", file=sys.stderr)
        return None
    return requested


def _cmd_campaign(args) -> int:
    from repro.xpmt.store import CampaignStore

    if args.campaign_command == "run":
        from repro.xpmt.runner import run_campaign
        from repro.xpmt.spec import CampaignPlan

        sizes = {name: value for name, value in (("num_keys", args.num_keys),
                                                 ("ops_per_client", args.ops)) if value}
        scale = dataclasses.replace(PRESETS[args.scale], **_knob_values(args), **sizes)
        seeds = args.seeds or [scale.seed + i for i in range(3)]
        try:
            plan = CampaignPlan.of(args.figure, scale, seeds, args.name)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        with CampaignStore(args.db) as store:
            summary = run_campaign(store, plan, jobs=scale.jobs,
                                   limit=args.limit, echo=print)
        print(summary.describe())
        return 0

    if args.campaign_command == "status":
        from repro.xpmt.runner import campaign_status
        with CampaignStore(args.db) as store:
            rows = campaign_status(store)
            total = store.point_count()
        if not rows:
            print(f"no campaigns recorded in {args.db}")
            return 0
        print(format_table(rows, title=f"campaigns in {args.db} "
                                       f"({total} stored points)"))
        return 0

    from repro.xpmt.report import build_report, collect_cells, diff_cells
    with CampaignStore(args.db) as store:
        campaign_id = _stored_campaign(store, args.id)
        if campaign_id is None:
            return 2
        if args.campaign_command == "report":
            text, verdict = build_report(store, campaign_id, alpha=args.alpha,
                                         min_drop=args.min_drop)
            print(text)
            if args.out:
                with open(args.out, "w") as sink:
                    sink.write(text + "\n")
            return 0 if verdict["ok"] else 1
        cells = collect_cells(store, campaign_id)

    # diff
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
    for flag, commit in (("--base", base), ("--head", head)):
        if commit not in commits:
            print(f"{flag} {commit}: no point of campaign {campaign_id} is "
                  f"stored at that commit (stored: {', '.join(commits)})",
                  file=sys.stderr)
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
                                "num_shards",
                    env="jobs depth sync_mode num_mns num_shards")

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
    _add_knob_flags(trace_parser, "scale seed depth sync_mode num_mns "
                                  "num_shards",
                    env="depth sync_mode num_mns num_shards")

    chaos_parser = sub.add_parser(
        "chaos",
        help="run a seeded fault-injection campaign against any index family")
    chaos_parser.add_argument("--index", default="chime",
                              help="index family under test (default: "
                                   "chime; any registry family)")
    chaos_parser.add_argument("--seed", type=int, default=7,
                              help="campaign seed (workload + fault draws)")
    chaos_parser.add_argument("--crash", default="cn0/c0:lock",
                              metavar="SPEC",
                              help="crash spec 'owner[:point]', e.g. "
                                   "'cn0/c1:read@3:after'; '' disables "
                                   "(default: cn0/c0:lock)")
    chaos_parser.add_argument("--no-leases", action="store_true",
                              help="disable lease-based lock recovery "
                                   "(demonstrates the orphaned-lock hang)")
    chaos_parser.add_argument("--lease-duration", default=None,
                              metavar="DUR", help="lease window, e.g. 250us")
    chaos_parser.add_argument("--loss", type=float, default=0.0,
                              help="per-verb loss probability")
    chaos_parser.add_argument("--delay", type=float, default=0.0,
                              help="per-verb probability of a 5us "
                                   "latency spike")
    chaos_parser.add_argument("--outage", action="append", metavar="SPEC",
                              help="MN outage 'MN:START:END' (repeatable), "
                                   "e.g. '0:100us:300us'")
    chaos_parser.add_argument("--max-attempts", type=int, default=256,
                              help="retry budget per operation "
                                   "(default: 256)")
    chaos_parser.add_argument("--ops", type=int, default=40,
                              help="ops per client (default: 40)")
    chaos_parser.add_argument("--keys", type=int, default=400,
                              help="bulk-loaded key count, drawn from "
                                   "twice as many (default: 400)")
    _add_knob_flags(chaos_parser, "depth sync_mode num_mns num_shards",
                    env="num_mns num_shards")

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
    crun.add_argument("figure", metavar="NAME",
                      help="a grid figure record (every table's slice) or "
                           "one of its bench tables")
    crun.add_argument("--name", default="", help="campaign id (default: "
                                                 "derived from the points)")
    crun.add_argument("--scale", default="quick", choices=sorted(PRESETS),
                      help="scaling preset (default: quick)")
    crun.add_argument("--seeds", type=_seed_list, default=None,
                      metavar="7|1,3,7|42-46",
                      help="replicate seeds (default: the preset's seed "
                           "and the next two)")
    crun.add_argument("--num-keys", type=int, default=None,
                      help="override the preset's dataset size")
    crun.add_argument("--ops", type=int, default=None,
                      help="override the preset's ops per client")
    _add_knob_flags(crun, "depth sync_mode num_mns jobs",
                    env="jobs", pinned=True)
    crun.add_argument("--limit", type=int, default=None, metavar="K",
                      help="execute at most K missing points this "
                           "invocation (budget valve)")

    cstatus = campaign_sub.add_parser("status",
                                      help="list campaigns and progress")
    _db_arg(cstatus)

    creport = campaign_sub.add_parser(
        "report", help="print the campaign's tables + regression verdict")
    _db_arg(creport)
    creport.add_argument("--id", default="", help="campaign id "
                                                  "(default: the only one)")
    creport.add_argument("--out", default="", metavar="PATH",
                         help="also write the report text to PATH")
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

    for message in unknown_env_warnings():
        print(f"warning: {message}", file=sys.stderr)

    if args.command == "list":
        try:
            for name in FIGURES:
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
