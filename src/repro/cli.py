"""Command-line interface for the WideLeak reproduction.

    wideleak table1              regenerate Table I and diff vs the paper
    wideleak figure1             capture Figure 1's sequence and diff vs the paper
    wideleak audit <app>         run the Q1–Q4 pipeline for one app
    wideleak analyze <app>       call-graph + taint analysis, cross-checked
    wideleak lint [paths...]     AST lint of the repo's own invariants
    wideleak attack <app>        run the §IV-D key-ladder attack
    wideleak attack-all          the full §IV-D sweep
    wideleak trace [--app <app>] record a run and export a Chrome trace
    wideleak trace --diff A B    per-span-name deltas between two traces
    wideleak profile             critical paths, self-time, flame graph
    wideleak fleet submit        run a campaign through the fleet scheduler
    wideleak fleet status        show known campaigns and their progress
    wideleak fleet resume        pick an interrupted campaign back up
    wideleak fleet gc            bound the content-addressed result store
    wideleak list-apps           show the evaluated services

Also runnable as ``python -m repro <command>``.

Every subcommand taking an app resolves it through :func:`resolve_app`:
an unknown name exits 2 with one line on stderr naming the valid apps.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.report import EXPECTED_PAPER_TABLE, TableOne
from repro.core.study import WideLeakStudy
from repro.ott.profile import OttProfile
from repro.ott.registry import ALL_PROFILES, profile_by_name

__all__ = ["main", "build_parser", "resolve_app"]


def resolve_app(name: str) -> OttProfile | None:
    """Shared app lookup for every subcommand; on a miss, print one
    line on stderr naming the valid apps (the caller exits code 2)."""
    try:
        return profile_by_name(name)
    except KeyError:
        valid = ", ".join(profile.name for profile in ALL_PROFILES)
        print(f"unknown app {name!r} — valid apps: {valid}", file=sys.stderr)
        return None


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wideleak",
        description="Reproduction of the DSN 2022 WideLeak study.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="regenerate Table I and diff vs the paper")
    sub.add_parser("figure1", help="capture the Figure 1 message sequence")
    sub.add_parser("list-apps", help="list the evaluated OTT services")
    sub.add_parser("attack-all", help="run the §IV-D sweep over all apps")

    audit = sub.add_parser("audit", help="run Q1–Q4 for one app")
    audit.add_argument("app", help='display name, e.g. "Netflix" or "Hulu"')

    analyze = sub.add_parser(
        "analyze",
        help="static call-graph/taint analysis for one app (or --all), "
        "cross-checked against a monitored playback",
    )
    analyze.add_argument(
        "app", nargs="?", help='display name, e.g. "Netflix"'
    )
    analyze.add_argument(
        "--all", action="store_true", help="analyze every evaluated app"
    )

    lint = sub.add_parser(
        "lint", help="check the repo's own concurrency/determinism invariants"
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    lint.add_argument(
        "--fix-preview",
        action="store_true",
        help="print the ready-to-apply unified-diff patch next to each "
        "REG001/LRU004 violation that has one (patches are diffed "
        "against the original file: apply one per file, then re-lint "
        "to regenerate the rest)",
    )

    fleet = sub.add_parser(
        "fleet",
        help="persistent campaign scheduler: content-addressed cell "
        "cache, worker processes, crash-safe resume",
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)
    root_help = "fleet state directory (default: .fleet)"
    submit = fleet_sub.add_parser(
        "submit", help="run a campaign, computing only cold cells"
    )
    submit.add_argument(
        "--apps",
        nargs="*",
        metavar="APP",
        help="apps to study (default: all ten evaluated services)",
    )
    submit.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        metavar="N",
        help="worker processes (default 1: inline, single process)",
    )
    submit.add_argument("--root", default=".fleet", metavar="DIR", help=root_help)
    submit.add_argument("--seed", type=int, default=0, help="campaign seed")
    submit.add_argument(
        "--attacks", action="store_true", help="include §IV-D attack cells"
    )
    submit.add_argument(
        "--trace-out",
        metavar="PATH",
        help="export the fleet telemetry spans as a Chrome trace",
    )
    status = fleet_sub.add_parser(
        "status", help="show known campaigns and their checkpoints"
    )
    status.add_argument("--root", default=".fleet", metavar="DIR", help=root_help)
    resume = fleet_sub.add_parser(
        "resume", help="reconcile and finish an interrupted campaign"
    )
    resume.add_argument("--root", default=".fleet", metavar="DIR", help=root_help)
    resume.add_argument(
        "--campaign",
        metavar="ID",
        help="campaign id (default: the single interrupted campaign)",
    )
    resume.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="worker processes (default 1)",
    )
    gc = fleet_sub.add_parser(
        "gc",
        help="evict least-recently-used store objects to a bound and "
        "report the store's size",
    )
    gc.add_argument("--root", default=".fleet", metavar="DIR", help=root_help)
    gc.add_argument(
        "--max-bytes",
        type=int,
        metavar="N",
        help="evict least-recently-used objects until the store fits N "
        "bytes (default: evict nothing, only report the store's size)",
    )

    attack = sub.add_parser("attack", help="run the key-ladder attack on one app")
    attack.add_argument("app", help='display name, e.g. "Showtime"')

    rate_help = (
        "head-based sampling rate 1/N: keep 1-in-N app span trees whole "
        "(default 1/1: record everything; counters stay exact at any rate)"
    )
    seed_help = "sampling seed (default 0); same seed + rate = same kept trees"

    trace = sub.add_parser(
        "trace",
        help="run the study with the observability bus recording and "
        "export a Chrome trace_event JSON (chrome://tracing / Perfetto); "
        "--diff compares two recorded traces instead",
    )
    trace.add_argument(
        "--app",
        help='trace a single app, e.g. "netflix" (default: the full study)',
    )
    trace.add_argument(
        "--out",
        "-o",
        default="trace.json",
        metavar="PATH",
        help="output path for the Chrome trace (default: trace.json)",
    )
    trace.add_argument("--rate", default="1/1", metavar="1/N", help=rate_help)
    trace.add_argument("--seed", type=int, default=0, help=seed_help)
    trace.add_argument(
        "--diff",
        nargs=2,
        metavar=("OLD", "NEW"),
        help="compare two trace files (JSONL, Chrome trace_event, or "
        "BENCH_study.json) and report per-span count/duration deltas; "
        "exits 1 when a delta exceeds the regression threshold",
    )
    trace.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        metavar="FRAC",
        help="regression threshold for --diff as a fraction "
        "(default 0.25 = flag spans that got more than 25%% slower)",
    )

    profile = sub.add_parser(
        "profile",
        help="run the study and print its trace analytics: per-app "
        "critical paths, a self-time top-N table, and (with --flame) a "
        "collapsed-stack flame graph for flamegraph.pl / speedscope",
    )
    profile.add_argument(
        "--app",
        help='profile a single app, e.g. "netflix" (default: the full study)',
    )
    profile.add_argument("--rate", default="1/1", metavar="1/N", help=rate_help)
    profile.add_argument("--seed", type=int, default=0, help=seed_help)
    profile.add_argument(
        "--flame",
        metavar="OUT",
        help="write the collapsed-stack flame graph to this path",
    )
    profile.add_argument(
        "--top",
        type=_positive_int,
        default=15,
        metavar="N",
        help="rows in the self-time table (default 15)",
    )

    return parser


def _cmd_table1() -> int:
    result = WideLeakStudy.with_default_apps().run()
    print(result.table.render())
    print("\nStatic-vs-dynamic cross-check (§IV-B):")
    print(result.crosscheck_table().render())
    diffs = result.table.diff_against_paper()
    if diffs:
        print("\nDIVERGES from the published table:")
        for diff in diffs:
            print(f"  - {diff}")
        return 1
    print("\nCell-for-cell match with the published Table I.")
    return 0


def _cmd_figure1() -> int:
    from repro.core.figures import capture_figure1, figure1_matches
    from repro.ott.app import OttApp

    study = WideLeakStudy.with_default_apps()
    profile = profile_by_name("OCS")
    app = OttApp(profile, study.l1_device, study.backends[profile.service])
    try:
        arrows = capture_figure1(app)
    except RuntimeError as exc:
        print(exc)
        return 1
    for source, target, label in arrows:
        print(f"{source} -> {target}: {label}")
    return 0 if figure1_matches(arrows) else 1


def _cmd_list_apps() -> int:
    print(f"{'app':22s} {'installs':>9s}  {'audio':12s} {'revokes':8s} notes")
    for profile in ALL_PROFILES:
        notes = []
        if profile.uri_protection != "plain":
            notes.append("secure-channel URIs")
        if profile.custom_drm_on_l3:
            notes.append("custom DRM on L3")
        if not profile.subtitles_listed:
            notes.append("subs unlisted")
        if not profile.key_metadata_available:
            notes.append("key metadata geo-blocked")
        print(
            f"{profile.name:22s} {profile.installs_millions:>7d}M+ "
            f" {profile.audio_protection.value:12s} "
            f"{str(profile.enforces_revocation):8s} {', '.join(notes)}"
        )
    return 0


def _cmd_audit(app_name: str) -> int:
    profile = resolve_app(app_name)
    if profile is None:
        return 2
    study = WideLeakStudy.with_default_apps()
    app_result = study.study_app(profile)
    row = WideLeakStudy._to_row(app_result)
    table = TableOne(rows=[row])
    print(table.render())
    expected = EXPECTED_PAPER_TABLE.get(profile.name)
    if expected is not None:
        print(f"\npaper row:    {'  '.join(expected.cells())}")
        print(f"measured row: {'  '.join(row.cells())}")
        print("match" if expected == row else "MISMATCH")
    return 0


def _analyze_one(study: WideLeakStudy, profile) -> None:
    from repro.analysis import CONFIRMED, analyze, cross_check
    from repro.core.content_audit import ContentAuditor
    from repro.ott.app import OttApp

    app = OttApp(profile, study.l1_device, study.backends[profile.service])
    report = analyze(app.apk)
    print(f"== {profile.name} ==")
    print(report.render())
    audit = ContentAuditor(study.l1_device, study.network).audit(app)
    check = cross_check(profile.package, report.call_sites, audit.observation)
    print("cross-check vs monitored playback:")
    for classified in check.sites:
        flag = "+" if classified.verdict == CONFIRMED else "-"
        print(
            f"  [{flag}] {classified.site.caller} -> "
            f"{classified.site.callee}: {classified.note}"
        )
    if check.dynamic_only:
        print(
            "  dynamic-only OEMCrypto activity (no static site): "
            + ", ".join(check.dynamic_only)
        )
    counts = check.counts()
    print(
        f"  {counts['confirmed']} confirmed, {counts['dead_code']} dead-code, "
        f"{counts['static_only'] - counts['dead_code']} unobserved, "
        f"{counts['dynamic_only']} dynamic-only"
    )


def _cmd_analyze(app_name: str | None, all_apps: bool) -> int:
    if not all_apps and app_name is None:
        print("analyze: name an app or pass --all", file=sys.stderr)
        return 2
    if all_apps:
        profiles = ALL_PROFILES
    else:
        profile = resolve_app(app_name)
        if profile is None:
            return 2
        profiles = (profile,)
    study = WideLeakStudy.with_default_apps()
    for index, profile in enumerate(profiles):
        if index:
            print()
        _analyze_one(study, profile)
    return 0


def _cmd_lint(paths: list[str], fix_preview: bool = False) -> int:
    from repro.analysis.lint import lint_paths_report

    report = lint_paths_report(paths)
    for violation in report.violations:
        print(violation)
        if fix_preview and violation.patch:
            print(violation.patch.rstrip("\n"))
    for suppressed in report.suppressed:
        print(suppressed)
    if report.violations:
        print(f"{len(report.violations)} violation(s)")
        return 1
    if report.suppressed:
        print(f"clean: repo invariants hold ({len(report.suppressed)} suppression(s))")
    else:
        print("clean: repo invariants hold")
    return 0


def _describe_sampling(snapshot: dict) -> str:
    roots = snapshot["sampled_roots"] + snapshot["dropped_roots"]
    return (
        f"sampling {snapshot['rate']} (seed {snapshot['seed']}): kept "
        f"{snapshot['sampled_roots']} of {roots} root span trees, dropped "
        f"{snapshot['dropped_spans']} spans, recorded "
        f"{snapshot['recorded_spans']}"
    )


def _cmd_trace_diff(old: str, new: str, threshold: float) -> int:
    from repro.obs.profile import diff_traces, load_trace_profile

    try:
        old_profile = load_trace_profile(old)
        new_profile = load_trace_profile(new)
    except (OSError, ValueError) as exc:
        print(f"trace --diff: {exc}", file=sys.stderr)
        return 2
    diff = diff_traces(old_profile, new_profile, threshold=threshold)
    print(f"trace diff: {old} -> {new}")
    print(diff.render())
    return 1 if diff.regressions() else 0


def _sampled_study(args: argparse.Namespace) -> WideLeakStudy | None:
    """Run the study, or its ``--app`` alone, under a ``--rate`` sampler.

    None (after printing why) for a bad rate or an unknown app.
    """
    from repro.obs.sampling import TraceSampler

    try:
        sampler = TraceSampler.from_rate(args.rate, seed=args.seed)
    except ValueError as exc:
        print(f"--rate: {exc}", file=sys.stderr)
        return None
    study = WideLeakStudy.with_default_apps(sampler=sampler)
    if args.app is None:
        study.run()
    else:
        profile = resolve_app(args.app)
        if profile is None:
            return None
        study.study_app(profile)
    return study


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.export import render_metrics_table, write_chrome_trace

    if args.diff is not None:
        return _cmd_trace_diff(args.diff[0], args.diff[1], args.threshold)

    study = _sampled_study(args)
    if study is None:
        return 2
    path = write_chrome_trace(study.obs, args.out)
    spans = len(study.obs.spans)
    print(f"wrote {path} ({spans} spans) — load in chrome://tracing or Perfetto")
    print(_describe_sampling(study.obs.sampling_snapshot()))
    print()
    print(render_metrics_table(study.obs))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs.profile import render_profile, write_flame_graph

    study = _sampled_study(args)
    if study is None:
        return 2
    print(render_profile(study.obs, top=args.top))
    print()
    print(_describe_sampling(study.obs.sampling_snapshot()))
    if args.flame is not None:
        path = write_flame_graph(study.obs, args.flame)
        print(
            f"wrote {path} (collapsed stacks) — feed to flamegraph.pl or "
            "drop onto https://speedscope.app"
        )
    return 0


def _cmd_attack(app_name: str) -> int:
    profile = resolve_app(app_name)
    if profile is None:
        return 2
    study = WideLeakStudy.with_default_apps()
    outcome = study.run_attack(profile)
    attack, recovered = outcome.attack, outcome.recovered
    print(f"target: {profile.name} on {attack.device_model}")
    print(f"keybox recovered:     {attack.keybox_recovered}")
    print(f"device RSA recovered: {attack.rsa_recovered}")
    print(f"content keys:         {len(attack.content_keys)}")
    for note in attack.notes:
        print(f"note: {note}")
    if recovered is not None and recovered.succeeded:
        print(f"DRM-free recovery:    yes, best {recovered.best_video_height}p")
        return 0
    print("DRM-free recovery:    no")
    return 1


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.fleet import Campaign, FleetError, FleetScheduler
    from repro.obs.export import render_metrics_table

    scheduler = FleetScheduler(args.root)

    if args.fleet_command == "status":
        rows = scheduler.status()
        if not rows:
            print(f"no campaigns under {args.root}")
            return 0
        print(f"{'campaign':18s} {'state':12s} {'done':>9s} "
              f"{'queued':>6s} {'claimed':>7s} apps")
        for row in rows:
            print(
                f"{row['campaign_id']:18s} {row['state']:12s} "
                f"{row['done']:>4d}/{row['cells']:<4d} "
                f"{row['queued']:>6d} {row['claimed']:>7d} "
                f"{', '.join(row['apps'])}"
            )
        return 0

    if args.fleet_command == "gc":
        stats = scheduler.gc(args.max_bytes)
        print(
            f"evicted {stats['evicted']} object(s); store holds "
            f"{stats['objects']} object(s), {stats['bytes']} bytes"
        )
        return 0

    try:
        if args.fleet_command == "submit":
            if args.apps:
                profiles = []
                for name in args.apps:
                    profile = resolve_app(name)
                    if profile is None:
                        return 2
                    profiles.append(profile)
                profiles = tuple(profiles)
            else:
                profiles = ALL_PROFILES
            campaign = Campaign(
                profiles=profiles,
                seed=args.seed,
                include_attacks=args.attacks,
            )
            outcome = scheduler.submit(campaign, jobs=args.jobs)
        else:  # resume
            outcome = scheduler.resume(args.campaign, jobs=args.jobs)
    except FleetError as exc:
        print(f"fleet: {exc}", file=sys.stderr)
        return 2

    stats = outcome.stats
    print(outcome.result.table.render())
    print(
        f"\ncampaign {outcome.campaign_dir.name}: {stats['cells']} cells — "
        f"{stats['computed']} computed, {stats['cache_hits']} cache hits, "
        f"{stats['retries']} retries "
        f"({stats['workers']} worker(s))"
    )
    print(f"artifact: {outcome.campaign_dir / 'result.json'}")
    if outcome.attacks:
        broken = sorted(
            name
            for name, attack in outcome.attacks.items()
            if attack.recovery_succeeded
        )
        print(f"attacks: {len(broken)} apps yield DRM-free content: "
              + ", ".join(broken))
    print()
    print(render_metrics_table(outcome.obs))
    if getattr(args, "trace_out", None):
        from repro.obs.export import write_chrome_trace

        path = write_chrome_trace(outcome.obs, args.trace_out)
        print(f"wrote fleet telemetry trace to {path}")
    return 0


def _cmd_attack_all() -> int:
    outcomes = WideLeakStudy.with_default_apps().run_all_attacks()
    broken = []
    for name, outcome in outcomes.items():
        ok = outcome.recovered is not None and outcome.recovered.succeeded
        best = outcome.recovered.best_video_height if ok else "-"
        print(f"{name:22s} {'BROKEN' if ok else 'resisted':9s} best={best}")
        if ok:
            broken.append(name)
    print(f"\n{len(broken)} apps yield DRM-free content: {', '.join(broken)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "table1":
        return _cmd_table1()
    if args.command == "figure1":
        return _cmd_figure1()
    if args.command == "list-apps":
        return _cmd_list_apps()
    if args.command == "audit":
        return _cmd_audit(args.app)
    if args.command == "analyze":
        return _cmd_analyze(args.app, args.all)
    if args.command == "lint":
        return _cmd_lint(args.paths, args.fix_preview)
    if args.command == "fleet":
        return _cmd_fleet(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "attack":
        return _cmd_attack(args.app)
    if args.command == "attack-all":
        return _cmd_attack_all()
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
