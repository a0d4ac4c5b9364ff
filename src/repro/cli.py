"""Command-line interface: ``python -m repro`` / ``repro-lrd``.

Subcommands
-----------
``figure``
    Regenerate one of the paper's figures as a text table
    (``repro-lrd figure 4 --quick``).
``solve``
    One-off loss-rate computation for a two-state on/off marginal
    (``repro-lrd solve --hurst 0.8 --utilization 0.8 --buffer 1.0``).
``horizon``
    Analytic correlation-horizon estimates for the same source.
``trace``
    Synthesize a reference trace and print its calibration statistics.
``serve``
    Run the long-lived loss-rate query service
    (``repro-lrd serve --port 8787 --jobs 4``): an HTTP endpoint that
    coalesces identical concurrent requests, micro-batches work into the
    warm engine, and sheds load beyond its admission limit (429/503 with
    Retry-After).  Endpoints: ``POST /v1/query``, ``GET /healthz``,
    ``GET /stats``.  Stop with Ctrl-C; in-flight requests drain first.
``cache``
    Inspect or maintain the persistent solve cache
    (``repro-lrd cache --stats``, ``repro-lrd cache --compact``).
``lint``
    Run the repo-specific static-analysis rules
    (``repro-lrd lint src/repro --format json``): fingerprint
    completeness, concurrency discipline, numerical hygiene and
    API-doc drift.  Exits 1 on any finding; CI gates on it.
``netsim``
    Run a network-of-queues simulation preset
    (``repro-lrd netsim tandem --hops 2``, ``repro-lrd netsim mux
    --sources 8``): the seeded discrete-event fluid simulator sweeps a
    small (utilization x buffer) grid, prints the bottleneck loss/delay
    table, and with ``--detail`` the per-node loss, occupancy and delay
    telemetry of every cell.
``fuzz``
    Run the differential/metamorphic verification harness
    (``repro-lrd fuzz --cases 200 --seed 0``): seeded stratified
    scenarios checked by the oracle battery (spectral vs direct kernel,
    bound ordering, solver vs Monte Carlo, solver vs Markov) and the
    paper's metamorphic relations.  Failures are minimized and persisted
    as JSON under ``--corpus-dir`` (default ``tests/corpus``); replay
    the persisted corpus with ``repro-lrd fuzz --replay``.  The case
    stream is stratified over generating families (renewal, fGn, FARIMA,
    on/off, M/G/∞, MMPP) as well as parameter regimes;
    ``--family-report FILE`` writes per-family pass-rate JSON (the
    nightly CI artifact).  Exits 1 on any failure; the nightly
    ``fuzz-deep`` CI job runs 5000 cases.
``compare``
    Run the matched-moment model comparison
    (``repro-lrd compare --hurst 0.8 --utilization 0.9 --buffer 0.1
    --buffer 0.5``): realizes the competing model families (fGn, FARIMA,
    on/off, M/G/∞, MMPP) at the same marginal moments and Hurst
    parameter, pushes each through the scenario's queue in the network
    simulator, and prints an ascii table of simulated loss against the
    solver bracket per (buffer, family) cell — the paper's claim that
    models agreeing inside the correlation horizon predict the same
    loss.  The solver side runs through the cached engine.  Exits 1 if
    any judged cell diverges, and 2 on an unknown ``--family``.

Execution-engine flags (``figure`` and ``solve``)
-------------------------------------------------
``--jobs N``
    Solve sweep cells on a pool of N worker processes
    (``repro-lrd figure 4 --jobs 4``); the default runs serially.
``--no-cache``
    Disable the persistent solve cache for this invocation.
``--cache-dir DIR``
    Cache location; defaults to ``$REPRO_LRD_CACHE_DIR`` or
    ``~/.cache/repro-lrd``.  A warm cache replays previously solved
    cells without running a single solver iteration.

Solver-driven commands report cache hits/misses, solver iterations and
timing on stderr after the table.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING, Any, TypeVar

import numpy as np

from repro.core.horizon import correlation_horizon, norros_horizon
from repro.core.marginal import DiscreteMarginal
from repro.core.source import CutoffFluidSource
from repro.core.validation import check_in_open_interval, check_positive
from repro.experiments import figures, reporting

if TYPE_CHECKING:  # pragma: no cover - import for annotations only
    from repro.exec import SweepEngine

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The repro-lrd argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-lrd",
        description=(
            "Reproduction toolkit for Grossglauser & Bolot, 'On the Relevance "
            "of Long-Range Dependence in Network Traffic' (SIGCOMM '96)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    figure = sub.add_parser("figure", help="regenerate a paper figure as a table")
    figure.add_argument("number", type=int, choices=range(2, 15), help="figure number (2-14)")
    figure.add_argument("--quick", action="store_true", help="coarser grids, shorter traces")
    figure.add_argument("--out", default=None, help="also write the table to this file")
    _add_engine_flags(figure)

    solve = sub.add_parser("solve", help="loss rate of an on/off cutoff fluid source")
    solve.add_argument("--hurst", type=float, default=0.8)
    solve.add_argument("--utilization", type=float, default=0.8)
    solve.add_argument("--buffer", type=float, default=1.0, help="normalized buffer, seconds")
    solve.add_argument("--cutoff", type=float, default=math.inf, help="cutoff lag, seconds")
    solve.add_argument("--mean-interval", type=float, default=0.05, help="mean epoch, seconds")
    solve.add_argument("--peak", type=float, default=2.0, help="ON rate (OFF rate is 0)")
    solve.add_argument("--on-probability", type=float, default=0.5)
    _add_engine_flags(solve)

    horizon = sub.add_parser("horizon", help="analytic correlation-horizon estimates")
    horizon.add_argument("--hurst", type=float, default=0.8)
    horizon.add_argument("--utilization", type=float, default=0.8)
    horizon.add_argument("--buffer", type=float, default=1.0, help="normalized buffer, seconds")
    horizon.add_argument("--mean-interval", type=float, default=0.05)
    horizon.add_argument("--peak", type=float, default=2.0)
    horizon.add_argument("--on-probability", type=float, default=0.5)
    horizon.add_argument("--no-reset-probability", type=float, default=0.05)

    trace = sub.add_parser("trace", help="synthesize a reference trace and describe it")
    trace.add_argument("name", choices=("mtv", "bellcore"))
    trace.add_argument("--bins", type=int, default=16384, help="trace length in samples")

    sub.add_parser("list", help="list the figures the runner can regenerate")

    serve = sub.add_parser("serve", help="run the loss-rate query service over HTTP")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8787, help="0 picks a free port")
    serve.add_argument(
        "--batch-size", type=int, default=16, metavar="N",
        help="max requests per dispatched micro-batch (default: 16)",
    )
    serve.add_argument(
        "--batch-delay", type=float, default=0.02, metavar="SECONDS",
        help="max wait for a batch to fill after its first request (default: 0.02)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=256, metavar="N",
        help="admission limit on queued requests; beyond it requests get 429",
    )
    serve.add_argument(
        "--timeout", type=float, default=30.0, metavar="SECONDS",
        help="default per-request timeout (requests may override)",
    )
    serve.add_argument(
        "--lru-entries", type=int, default=None, metavar="N",
        help="in-memory LRU result-tier entry bound (default: 4096)",
    )
    serve.add_argument(
        "--lru-bytes", type=int, default=None, metavar="BYTES",
        help="approximate in-memory LRU footprint bound (default: unbounded)",
    )
    _add_engine_flags(serve)

    cache = sub.add_parser("cache", help="inspect or maintain the persistent solve cache")
    cache_action = cache.add_mutually_exclusive_group()
    cache_action.add_argument(
        "--stats", action="store_true",
        help="print entry/file statistics (the default action)",
    )
    cache_action.add_argument(
        "--compact", action="store_true",
        help="rewrite the cache file keeping the last record per key",
    )
    cache.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="solve-cache directory (default: $REPRO_LRD_CACHE_DIR or ~/.cache/repro-lrd)",
    )

    lint = sub.add_parser("lint", help="run the repo-specific static-analysis rules")
    lint.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text", dest="lint_format",
        help="report format (default: text)",
    )
    lint.add_argument(
        "--select", action="append", default=None, metavar="RULE",
        help="only run these rule ids or family prefixes (repeatable)",
    )
    lint.add_argument(
        "--ignore", action="append", default=None, metavar="RULE",
        help="skip these rule ids or family prefixes (repeatable)",
    )
    lint.add_argument(
        "--api-doc", default=None, metavar="PATH",
        help="API reference checked by API001 (default: <root>/docs/api.md)",
    )
    lint.add_argument(
        "--root", default=None, metavar="DIR",
        help="project root for display paths and docs (default: cwd)",
    )
    lint.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the report to this file",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )

    fuzz = sub.add_parser(
        "fuzz", help="run the differential/metamorphic verification harness"
    )
    fuzz.add_argument("--cases", type=int, default=200, metavar="N",
                      help="number of generated scenarios (default: 200)")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="master seed of the deterministic case stream")
    fuzz.add_argument("--start", type=int, default=0, metavar="INDEX",
                      help="first case index (shard long runs across workers)")
    fuzz.add_argument(
        "--check", action="append", default=None, metavar="NAME", dest="fuzz_checks",
        help="run only this check (repeatable; see --list-checks)",
    )
    fuzz.add_argument("--list-checks", action="store_true",
                      help="print the check battery and exit")
    fuzz.add_argument(
        "--corpus-dir", default="tests/corpus", metavar="DIR",
        help="failure-corpus directory (default: tests/corpus)",
    )
    fuzz.add_argument("--no-corpus", action="store_true",
                      help="do not persist failure records")
    fuzz.add_argument("--no-minimize", action="store_true",
                      help="persist failing scenarios as generated, unshrunk")
    fuzz.add_argument(
        "--max-failures", type=int, default=25, metavar="N",
        help="stop after this many failures (default: 25)",
    )
    fuzz.add_argument(
        "--replay", action="store_true",
        help="replay the persisted corpus instead of generating cases",
    )
    fuzz.add_argument(
        "--family-report", default=None, metavar="FILE",
        help="write per-family pass-rate JSON to this file",
    )
    _add_engine_flags(fuzz)

    compare = sub.add_parser(
        "compare", help="matched-moment comparison of competing traffic models"
    )
    compare.add_argument("--hurst", type=float, default=0.8)
    compare.add_argument("--utilization", type=float, default=0.9)
    compare.add_argument(
        "--buffer", type=float, action="append", default=None, metavar="SECONDS",
        dest="buffers",
        help="normalized buffer in seconds of service; repeatable (default: 0.1 and 0.5)",
    )
    compare.add_argument("--cutoff", type=float, default=10.0, help="cutoff lag, seconds")
    compare.add_argument("--mean-interval", type=float, default=0.05)
    compare.add_argument("--peak", type=float, default=2.0)
    compare.add_argument("--on-probability", type=float, default=0.5)
    compare.add_argument(
        "--family", action="append", default=None, metavar="NAME", dest="families",
        help="model family to include; repeatable (default: all five)",
    )
    compare.add_argument("--batches", type=int, default=4, metavar="N",
                         help="independent simulation batches per cell (default: 4)")
    compare.add_argument("--seed", type=int, default=0,
                         help="master seed of the per-cell simulations")
    compare.add_argument("--out", default=None, help="also write the table to this file")
    _add_engine_flags(compare)

    netsim = sub.add_parser(
        "netsim", help="run a network-of-queues simulation preset"
    )
    netsim.add_argument("preset", choices=("tandem", "mux"),
                        help="topology preset: tandem chain or N-source multiplexer")
    netsim.add_argument("--hops", type=int, default=2, metavar="N",
                        help="queue hops in the tandem chain (default: 2)")
    netsim.add_argument("--sources", type=int, default=8, metavar="N",
                        help="independent on/off flows into the multiplexer (default: 8)")
    netsim.add_argument(
        "--utilization", type=float, action="append", default=None, metavar="RHO",
        dest="utilizations",
        help="per-hop offered load; repeatable (default: 0.7 and 0.9)",
    )
    netsim.add_argument(
        "--buffer", type=float, action="append", default=None, metavar="SECONDS",
        dest="buffers",
        help="normalized buffer in seconds of service; repeatable (default: 0.1 and 0.5)",
    )
    netsim.add_argument("--duration", type=float, default=200.0, metavar="SECONDS",
                        help="measured horizon per cell (default: 200)")
    netsim.add_argument("--warmup", type=float, default=20.0, metavar="SECONDS",
                        help="warmup before statistics start (default: 20)")
    netsim.add_argument("--seed", type=int, default=0,
                        help="master seed of the per-cell simulations")
    netsim.add_argument("--hurst", type=float, default=0.8)
    netsim.add_argument("--detail", action="store_true",
                        help="also print per-node loss/occupancy/delay for every cell")
    netsim.add_argument("--out", default=None, help="also write the table to this file")

    dimension = sub.add_parser(
        "dimension", help="effective bandwidth / multiplexing gain for an on/off source"
    )
    dimension.add_argument("--hurst", type=float, default=0.8)
    dimension.add_argument("--buffer", type=float, default=0.5, help="normalized buffer, seconds")
    dimension.add_argument("--cutoff", type=float, default=10.0, help="cutoff lag, seconds")
    dimension.add_argument("--mean-interval", type=float, default=0.05)
    dimension.add_argument("--peak", type=float, default=2.0)
    dimension.add_argument("--on-probability", type=float, default=0.5)
    dimension.add_argument("--target-loss", type=float, default=1e-6)
    dimension.add_argument(
        "--streams", type=int, default=0,
        help="if > 1, also report the multiplexing gain up to this stream count",
    )

    return parser


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    """Sweep-execution flags shared by the solver-driven subcommands."""
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for sweep cells (default: 1, serial)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent solve cache",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="solve-cache directory (default: $REPRO_LRD_CACHE_DIR or ~/.cache/repro-lrd)",
    )


def _build_engine(args: argparse.Namespace) -> "SweepEngine":
    """Construct the sweep engine the figure/solve subcommands run on."""
    from repro.exec import SolveCache, SweepEngine, resolve_backend

    if args.no_cache:
        cache = None
    else:
        try:
            cache = SolveCache(args.cache_dir)
        except ValueError as error:
            raise SystemExit(f"repro-lrd: {error}") from None

    def progress(done: int, total: int, cell) -> None:
        if total > 1:
            tag = "cache" if cell.cached else f"{cell.seconds:.2f}s"
            print(f"  [{done}/{total}] cell {cell.index} ({tag})",
                  file=sys.stderr, flush=True)

    return SweepEngine(
        backend=resolve_backend(args.jobs), cache=cache, progress=progress
    )


def _print_engine_summary(engine: "SweepEngine") -> None:
    telemetry = engine.telemetry
    if telemetry.total_cells == 0:
        return
    print(
        f"engine: {telemetry.total_cells} cells, "
        f"{telemetry.cache_hits} cache hits, {telemetry.cache_misses} misses, "
        f"{telemetry.solver_iterations} solver iterations, "
        f"{telemetry.solve_seconds:.2f}s solving "
        f"({telemetry.fft_seconds:.2f}s fft over {telemetry.fft_transforms} "
        f"transforms, {telemetry.boundary_seconds:.2f}s boundaries)",
        file=sys.stderr,
    )


def _run_serve(args: argparse.Namespace) -> int:
    """Run the HTTP query service until interrupted, then drain."""
    from repro.exec import SolveCache, SweepEngine, resolve_backend
    from repro.serve import DEFAULT_LRU_ENTRIES, QueryService, make_server

    if args.no_cache:
        cache = None
    else:
        try:
            cache = SolveCache(args.cache_dir)
        except ValueError as error:
            raise SystemExit(f"repro-lrd: {error}") from None
    # No progress callback: per-cell narration is for one-shot sweeps,
    # not a long-lived server handling many batches.
    engine = SweepEngine(backend=resolve_backend(args.jobs), cache=cache)
    service = QueryService(
        engine,
        batch_size=args.batch_size,
        batch_delay_s=args.batch_delay,
        max_queue=args.max_queue,
        default_timeout_s=args.timeout,
        lru_entries=DEFAULT_LRU_ENTRIES if args.lru_entries is None else args.lru_entries,
        lru_bytes=args.lru_bytes,
    )
    server = make_server(args.host, args.port, service)
    print(
        f"repro-lrd serve: listening on http://{args.host}:{server.port} "
        f"(jobs={args.jobs}, batch={args.batch_size}/{args.batch_delay:g}s, "
        f"queue<={args.max_queue}, cache={'off' if cache is None else cache.directory})",
        file=sys.stderr, flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("repro-lrd serve: draining...", file=sys.stderr, flush=True)
    finally:
        server.close(drain=True)
    return 0


def _run_cache(args: argparse.Namespace) -> int:
    """Inspect (--stats, default) or compact (--compact) the solve cache."""
    from repro.exec import SolveCache

    try:
        cache = SolveCache(args.cache_dir)
    except ValueError as error:
        raise SystemExit(f"repro-lrd: {error}") from None
    if args.compact:
        before, after = cache.compact()
        print(f"compacted {cache.path}: {before} -> {after} lines")
        return 0
    stats = cache.file_stats()
    values = {
        "entries": float(stats["entries"]),
        "file_lines": float(stats["file_lines"]),
        "stale_lines": float(stats["stale_lines"]),
        "corrupt_lines": float(stats["corrupt_lines"]),
        "file_bytes": float(stats["file_bytes"]),
    }
    print(reporting.format_mapping(values, f"Solve cache at {stats['path']}"))
    return 0


def _run_fuzz(args: argparse.Namespace) -> int:
    """Run (or replay) the verification harness; exit 0 only when clean."""
    from repro.verify import CheckContext, default_checks, run_corpus, run_fuzz

    if args.list_checks:
        for check in default_checks():
            tag = "slow" if check.expensive else "fast"
            print(f"  {check.name:<26} {check.kind:<12} [{tag}]")
        return 0
    with _build_engine(args) as engine:
        ctx = CheckContext(solve=engine.solve)
        if args.replay:
            report = run_corpus(args.corpus_dir, ctx=ctx)
        else:
            def progress(done: int, total: int, case: object) -> None:
                if done % 50 == 0 or done == total:
                    print(f"  fuzz [{done}/{total}]", file=sys.stderr, flush=True)

            try:
                report = run_fuzz(
                    cases=args.cases,
                    seed=args.seed,
                    start=args.start,
                    check_names=args.fuzz_checks,
                    ctx=ctx,
                    corpus_dir=None if args.no_corpus else args.corpus_dir,
                    minimize=not args.no_minimize,
                    max_failures=args.max_failures,
                    progress=progress,
                )
            except ValueError as error:
                print(f"repro-lrd: {error}", file=sys.stderr)
                return 2
        print(report.summary())
        _print_engine_summary(engine)
    if args.family_report:
        import json
        from pathlib import Path

        payload = json.dumps(report.family_report(), indent=2) + "\n"
        Path(args.family_report).write_text(payload, encoding="utf-8")
        print(f"family report: wrote {args.family_report}", file=sys.stderr)
    for path in report.corpus_paths:
        print(f"corpus: wrote {path}", file=sys.stderr)
    return 1 if report.total_failures else 0


def _run_compare(args: argparse.Namespace) -> int:
    """Run the matched-moment family grid; exit 0 only when every cell agrees."""
    from repro.experiments.sweeps import plan_buffer_cutoff
    from repro.verify import (
        FUZZ_SOLVER_CONFIG,
        MATCHED_FAMILIES,
        CheckContext,
        MatchedModelsOracle,
        run_model_comparison,
    )

    source = _from_flags(_onoff_source, args)
    buffers = list(args.buffers or (0.1, 0.5))
    families = tuple(args.families or MATCHED_FAMILIES)
    unknown = sorted(set(families) - set(MATCHED_FAMILIES))
    if unknown:
        print(
            f"repro-lrd: unknown families {unknown} (available: {list(MATCHED_FAMILIES)})",
            file=sys.stderr,
        )
        return 2
    with _build_engine(args) as engine:
        # One solver bracket per buffer, shared by every family: solving
        # them as one batch first makes the comparison's solves cache hits.
        engine.run_grid(
            plan_buffer_cutoff(
                source, args.utilization, buffers, [source.cutoff], FUZZ_SOLVER_CONFIG
            )
        )
        report = run_model_comparison(
            source,
            args.utilization,
            buffers,
            families,
            FUZZ_SOLVER_CONFIG,
            ctx=CheckContext(solve=engine.solve),
            seed=args.seed,
            oracle=MatchedModelsOracle(batches=args.batches),
        )
        text = report.format_table()
        print(text)
        _print_engine_summary(engine)
    if args.out:
        reporting.write_report(args.out, text)
    return 0 if report.ok else 1


def _run_lint(args: argparse.Namespace) -> int:
    """Run the lintkit rules; exit 0 only when the tree is clean."""
    from pathlib import Path

    from repro.lintkit import LintEngine, all_rules, render_json, render_text, rules_by_id

    if args.list_rules:
        for rule in all_rules():
            print(f"  {rule.id}  {rule.name:<26} {rule.description}")
        return 0
    try:
        rules = rules_by_id(select=args.select, ignore=args.ignore)
    except ValueError as error:
        raise SystemExit(f"repro-lrd: {error}") from None
    root = Path(args.root) if args.root else Path.cwd()
    engine = LintEngine(rules=rules, project_root=root, api_doc=args.api_doc)
    missing = [path for path in args.paths if not Path(path).exists()]
    if missing:
        raise SystemExit(f"repro-lrd: no such path: {', '.join(missing)}")
    findings = engine.run(args.paths)
    if args.lint_format == "json":
        report = render_json(findings, checked_files=len(engine.files), rules=rules)
    else:
        report = render_text(findings, checked_files=len(engine.files))
    print(report)
    if args.out:
        reporting.write_report(args.out, report)
    return 1 if findings else 0


def _run_netsim(args: argparse.Namespace) -> int:
    """Run a netsim preset sweep and report per-cell/per-node telemetry."""
    from repro.netsim import multiplexer_preset, tandem_preset

    if args.preset == "tandem":
        preset, size = tandem_preset, {"hops": args.hops}
    else:
        preset, size = multiplexer_preset, {"sources": args.sources}
    # A preset checks every flag before its first simulation starts.
    report = _from_flags(
        preset,
        utilizations=args.utilizations or [0.7, 0.9],
        buffers=args.buffers or [0.1, 0.5],
        duration=args.duration,
        warmup=args.warmup,
        seed=args.seed,
        hurst=args.hurst,
        **size,
    )
    text = report.format_table()
    print(text)
    if args.detail:
        for cell in report.cells:
            print()
            print(reporting.format_mapping(
                cell.result.summary(),
                f"cell {cell.index}: util={cell.utilization:g} "
                f"buffer={cell.normalized_buffer:g}s",
            ))
    events = sum(cell.result.events_processed for cell in report.cells)
    seconds = sum(cell.result.wall_seconds for cell in report.cells)
    rate = events / seconds if seconds > 0.0 else 0.0
    print(
        f"netsim: {len(report.cells)} cells, {events} events, "
        f"{seconds:.2f}s simulating ({rate:,.0f} events/s)",
        file=sys.stderr,
    )
    if args.out:
        reporting.write_report(args.out, text)
    return 0


_Built = TypeVar("_Built")


def _from_flags(build: Callable[..., _Built], *values: Any, **options: Any) -> _Built:
    """``build(*values, **options)``; a flag value it rejects exits 2 with one
    ``repro-lrd:`` line."""
    try:
        return build(*values, **options)
    except ValueError as error:
        print(f"repro-lrd: {error}", file=sys.stderr)
        raise SystemExit(2) from None


def _onoff_source(args: argparse.Namespace) -> CutoffFluidSource:
    marginal = DiscreteMarginal.two_state(
        low=0.0, high=args.peak, prob_high=args.on_probability
    )
    return CutoffFluidSource.from_hurst(
        marginal=marginal,
        hurst=args.hurst,
        mean_interval=args.mean_interval,
        cutoff=getattr(args, "cutoff", math.inf),
    )


def _horizon_estimates(
    source: CutoffFluidSource, args: argparse.Namespace
) -> dict[str, float]:
    service_rate = source.mean_rate / check_positive("utilization", args.utilization)
    buffer_size = check_positive("buffer", args.buffer) * service_rate
    return {
        "eq26_horizon_s": correlation_horizon(
            source, buffer_size, no_reset_probability=args.no_reset_probability
        ),
        "norros_horizon_s": norros_horizon(source, service_rate, buffer_size),
    }


def _run_figure(args: argparse.Namespace, engine: "SweepEngine") -> str:
    from repro.experiments.runner import run_figure

    return run_figure(args.number, quick=args.quick, engine=engine)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        from repro.experiments.runner import FIGURES

        for number in sorted(FIGURES):
            print(f"  figure {number:2d}  {FIGURES[number].title}")
        return 0

    if args.command == "serve":
        return _run_serve(args)

    if args.command == "cache":
        return _run_cache(args)

    if args.command == "lint":
        return _run_lint(args)

    if args.command == "fuzz":
        return _run_fuzz(args)

    if args.command == "compare":
        return _run_compare(args)

    if args.command == "netsim":
        return _run_netsim(args)

    if args.command == "figure":
        with _build_engine(args) as engine:
            text = _run_figure(args, engine)
            print(text)
            _print_engine_summary(engine)
        if args.out:
            reporting.write_report(args.out, text)
        return 0

    if args.command == "solve":
        from repro.exec import SolveTask

        source = _from_flags(_onoff_source, args)
        task = _from_flags(SolveTask, source, args.utilization, args.buffer)
        with _build_engine(args) as engine:
            result = engine.solve(task)
            print(result)
            _print_engine_summary(engine)
        return 0

    if args.command == "horizon":
        source = _from_flags(_onoff_source, args)
        values = _from_flags(_horizon_estimates, source, args)
        print(reporting.format_mapping(values, "Correlation-horizon estimates"))
        return 0

    if args.command == "dimension":
        import numpy as np

        from repro.queueing.dimensioning import multiplexing_gain, required_service_rate

        source = _from_flags(_onoff_source, args)
        _from_flags(check_positive, "buffer", args.buffer)
        _from_flags(check_in_open_interval, "target_loss", args.target_loss, 0.0, 1.0)
        bandwidth = required_service_rate(source, args.buffer, args.target_loss)
        print(reporting.format_mapping(
            {
                "mean_rate": source.mean_rate,
                "peak_rate": source.marginal.peak,
                "effective_bandwidth": bandwidth,
                "achievable_utilization": source.mean_rate / bandwidth,
            },
            f"Effective bandwidth (loss <= {args.target_loss:g}, B = {args.buffer:g} s)",
        ))
        if args.streams > 1:
            counts = np.unique(
                np.round(np.geomspace(1, args.streams, min(5, args.streams))).astype(int)
            )
            gain = multiplexing_gain(source, args.buffer, args.target_loss, counts)
            print()
            print(reporting.format_series(
                "streams",
                gain.streams.astype(float),
                {
                    "per_stream_bw": gain.per_stream_bandwidth,
                    "utilization": gain.utilization,
                },
                "Multiplexing gain",
            ))
        return 0

    if args.command == "trace":
        if args.name == "mtv":
            trace = figures.mtv_trace(args.bins)
            hurst = 0.83
        else:
            trace = figures.bellcore_trace(args.bins)
            hurst = 0.9
        source = trace.to_source(hurst=hurst)
        values = {
            "samples": float(trace.n_bins),
            "bin_width_s": trace.bin_width,
            "mean_rate": trace.mean_rate,
            "peak_rate": trace.peak_rate,
            "mean_epoch_s": trace.mean_epoch_duration(),
            "alpha": source.interarrival.alpha,
            "theta": source.interarrival.theta,
        }
        print(reporting.format_mapping(values, str(trace)))
        return 0

    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
