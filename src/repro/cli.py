"""Command-line entry point: paper figures and the scenario suite.

Figure replays (the original interface)::

    repro list          # available experiments
    repro fig11         # run one, print its terminal report
    repro all           # run everything

Scenario suite (see :mod:`repro.scenarios`)::

    repro scenarios list
    repro scenarios run ring-link-flap [--backend des|fluid|hybrid]
                                       [--seed N] [--horizon S] [--warmup S]
    repro scenarios run scale-fat-tree-2k       # 2k flows, hybrid backend
    repro scenarios compare line-baseline ring-uniform   # or --all

Sweeps (see :mod:`repro.sweep`) — parameter grids over the registry,
fanned out over worker processes and served from an on-disk cache::

    repro scenarios sweep ring-uniform line-baseline \
        --seeds 0-4 --backend fluid --jobs 4 --stats --json sweep.json
    repro scenarios compare --all --from-cache

Execution backends (see :mod:`repro.backends`) — the registry behind
every ``--backend`` axis::

    repro backends list

Service mode (see :mod:`repro.framework.service_mode`) — open-loop
churn against the framework with steady-state SLO metrics::

    repro service list
    repro service run fat-tree-churn --rate 500 --duration 60 --seed 1
    repro service run ring-steady --json -

Objectives (see :mod:`repro.hecate.objectives`) — the pluggable
registry behind every ``--objective`` flag::

    repro objectives list
    repro scenarios run qoe-mixed-steady --objective max_qoe

Static analysis (see :mod:`repro.analysis`) — the determinism &
hot-path invariant checker, rule ids RL001-RL008
(``docs/DETERMINISM.md`` is the catalog)::

    repro lint --list-rules
    repro lint src --json repro-lint.json
    repro lint src/repro/framework --select RL008

``repro`` is installed as a console script by setup.py; ``python -m
repro`` is equivalent.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Callable, Dict, Tuple

__all__ = ["main", "EXPERIMENTS"]


def _fig1() -> str:
    from repro.experiments import fig1_polka_example as m

    return m.summary(m.run())


def _fig2() -> str:
    from repro.experiments import fig2_minmax_lp as m

    return m.summary(m.run())


def _fig4() -> str:
    from repro.experiments import fig4_closed_loop as m

    return m.summary(m.run())


def _fig5() -> str:
    from repro.experiments import fig5_dataset as m

    return m.summary(m.run())


def _fig6() -> str:
    from repro.experiments import fig6_regressor_tournament as m

    return m.summary(m.run())


def _fig7() -> str:
    from repro.experiments import fig7_fig8_models as m

    return m.summary(m.run_fig7(), "Fig. 7")


def _fig8() -> str:
    from repro.experiments import fig7_fig8_models as m

    return m.summary(m.run_fig8(), "Fig. 8")


def _fig9() -> str:
    from repro.experiments import fig9_topology as m

    return m.summary(m.run())


def _fig11() -> str:
    from repro.experiments import fig11_latency_migration as m

    return m.summary(m.run())


def _fig12() -> str:
    from repro.experiments import fig12_flow_aggregation as m

    return m.summary(m.run())


EXPERIMENTS: Dict[str, Tuple[str, Callable[[], str]]] = {
    "fig1": ("PolKA CRT worked example (exact)", _fig1),
    "fig2": ("Eq. (1)-(3) TE optimizations", _fig2),
    "fig4": ("framework sequence replay (Figs. 3-4)", _fig4),
    "fig5": ("WiFi/LTE dataset (Fig. 5b)", _fig5),
    "fig6": ("18-regressor tournament (~1 min)", _fig6),
    "fig7": ("best model observed-vs-predicted", _fig7),
    "fig8": ("worst model observed-vs-predicted", _fig8),
    "fig9": ("testbed + Fig. 10 config inventory", _fig9),
    "fig11": ("agile latency migration (~2 min sim)", _fig11),
    "fig12": ("multi-path flow aggregation (~1 min sim)", _fig12),
}


def _scenario_with_overrides(name: str, args: argparse.Namespace):
    from repro.scenarios import get_scenario

    scenario = get_scenario(name)
    overrides = {}
    if args.horizon is not None:
        overrides["horizon"] = args.horizon
    if args.warmup is not None:
        overrides["warmup"] = args.warmup
    if getattr(args, "objective", None) is not None:
        overrides["policy"] = dataclasses.replace(
            scenario.policy, objective=args.objective
        )
    return scenario.with_overrides(**overrides) if overrides else scenario


def _scenarios_list() -> int:
    from repro.scenarios import list_scenarios

    scenarios = list_scenarios()
    width = max(len(s.name) for s in scenarios)
    header = (
        f"{'name':<{width}}  {'topology':<17}{'traffic':<14}"
        f"{'failures':<10}{'backend':<8}"
    )
    print(header)
    print("-" * len(header))
    for s in scenarios:
        # dynamic scenarios carry a phase timeline instead of one pattern
        traffic = f"phased:{len(s.phases)}" if s.phases else s.traffic.pattern
        print(
            f"{s.name:<{width}}  {s.topology.kind:<17}"
            f"{traffic:<14}{s.failures.kind:<10}{s.backend:<8}"
        )
        print(f"{'':<{width}}    {s.description}")
    return 0


class _UserError(Exception):
    """A bad name or override from the command line (not an internal bug)."""


def _backend_choices() -> Tuple[str, ...]:
    """Registered execution-backend names, for ``--backend`` choices.

    Sourced from the registry (not a hard-coded tuple) so plugin
    backends registered before parser construction show up in
    ``--help`` and pass argparse validation automatically.
    """
    from repro.backends import backend_names

    return backend_names()


def _objective_choices() -> Tuple[str, ...]:
    """Registered objective names, for ``--objective`` choices.

    Sourced from the objective registry (see
    :mod:`repro.hecate.objectives`) for the same reason as
    :func:`_backend_choices`: plugin objectives registered before parser
    construction show up in ``--help`` and validate automatically.
    """
    from repro.hecate.objectives import objective_names

    return objective_names()


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _resolve(name: str, args: argparse.Namespace):
    """Scenario lookup + overrides, with user mistakes wrapped so the
    CLI can report them cleanly while internal errors still traceback."""
    try:
        return _scenario_with_overrides(name, args)
    except (KeyError, ValueError) as exc:
        raise _UserError(exc.args[0]) from exc


def _profiled_run(runner, profile_path: str) -> "object":
    """Run one scenario under cProfile and print where the time went.

    Prints the top functions by internal time (the hot loops) and by
    cumulative time (the call paths), then — when ``profile_path`` is
    not ``-`` — dumps the raw stats for ``pstats`` / ``snakeviz``.
    Profiling inflates the wall clock of call-heavy code (every event
    callback pays the tracer), so treat the *shape* as truth and the
    seconds as relative; measure real wall clock without --profile.
    """
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = runner.run()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs()
    print("--- top 20 by internal time (the hot loops) ---")
    stats.sort_stats("tottime").print_stats(20)
    print("--- top 20 by cumulative time (the call paths) ---")
    stats.sort_stats("cumulative").print_stats(20)
    if profile_path != "-":
        profiler.dump_stats(profile_path)
        print(f"raw profile written to {profile_path} "
              "(inspect with python -m pstats)")
    return result


def _scenarios_run(args: argparse.Namespace) -> int:
    from repro.scenarios import ScenarioRunner

    scenario = _resolve(args.name, args)
    runner = ScenarioRunner(scenario, backend=args.backend, seed=args.seed)
    if args.profile is not None:
        result = _profiled_run(runner, args.profile)
    else:
        result = runner.run()
    print(result.summary())
    return 0


def _parse_policy(text: str):
    """``"k=v,k=v"`` -> a PolicySpec-override mapping with typed values."""
    patch = {}
    for item in text.split(","):
        key, eq, raw = item.strip().partition("=")
        if not eq or not key:
            raise _UserError(
                f"bad policy override {item!r}; use e.g. "
                "'reoptimize_every=5.0' or 'objective=<name>' "
                f"(objectives: {', '.join(_objective_choices())}; "
                "see 'repro objectives list')"
            )
        if key == "objective" and raw not in _objective_choices():
            # fail fast at parse time, exactly like the --objective
            # flag's choices= — not deep inside a sweep cell where the
            # run would just fail every placement
            raise _UserError(
                f"unknown objective {raw!r}; choose from "
                f"{', '.join(_objective_choices())} "
                "(see 'repro objectives list')"
            )
        if key == "model":
            # same fail-fast for the model roster: a bad name would
            # otherwise fail every des cell and be ignored on fluid
            from repro.hecate.service import resolve_model

            try:
                resolve_model(raw)
            except KeyError as exc:
                raise _UserError(exc.args[0]) from exc
        value: object = raw
        if raw.lower() == "none":
            value = None
        else:
            for cast in (int, float):
                try:
                    value = cast(raw)
                    break
                except ValueError:
                    pass
        patch[key] = value
    return patch


def _sweep_names(args: argparse.Namespace):
    from repro.scenarios import get_scenario, list_scenarios

    names = list(args.names or [])
    if args.all or not names:
        # the scale tier (thousands of flows, hybrid-backend sized) must
        # be named explicitly; --all is the small-suite cross product
        return [s.name for s in list_scenarios(include_scale=False)]
    for name in names:  # fail fast on typos, before any run executes
        try:
            get_scenario(name)
        except KeyError as exc:
            raise _UserError(exc.args[0]) from exc
    return names


def _result_cache(args: argparse.Namespace):
    from repro.sweep import ResultCache

    return ResultCache(args.cache_dir) if args.cache_dir else ResultCache()


def _sweep_overrides(args: argparse.Namespace):
    overrides = {}
    if args.horizon is not None:
        overrides["horizon"] = args.horizon
    if args.warmup is not None:
        overrides["warmup"] = args.warmup
    return overrides


def _scenarios_sweep(args: argparse.Namespace) -> int:
    from repro.sweep import (
        ResultCache,
        SweepEngine,
        SweepSpec,
        SweepStore,
        aggregate,
        make_executor,
        pairwise_table,
        parse_seeds,
        render_csv,
        render_json,
        render_table,
    )

    try:
        seeds = parse_seeds(args.seeds)
        policies = [dict(_parse_policy(p)) for p in args.policy or ()]
        if args.objective is not None:
            # --objective is the base for every cell; an explicit
            # objective= in a --policy axis value still wins
            policies = [
                {"objective": args.objective, **patch}
                for patch in (policies or [{}])
            ]
        spec = SweepSpec(
            scenarios=tuple(_sweep_names(args)),
            seeds=seeds,
            backends=tuple(args.backend or ()),
            overrides=_sweep_overrides(args),
            policies=tuple(policies),
        )
        spec.expand()  # surface bad overrides (e.g. --horizon -5) now,
        # as a clean user error rather than a traceback mid-sweep
        executor = (
            make_executor(
                args.executor, jobs=args.jobs, queue_dir=args.queue_dir
            )
            if args.executor is not None
            else None
        )
        store = SweepStore(args.store) if args.store else None
    except (ValueError, TypeError, RuntimeError) as exc:
        raise _UserError(exc.args[0]) from exc
    cache = None if args.no_cache else _result_cache(args)
    engine = SweepEngine(
        spec,
        jobs=args.jobs,
        cache=cache,
        refresh=args.refresh,
        executor=executor,
    )
    outcome = engine.run()
    if store is not None:
        print(f"columnar store written to {store.write(outcome)}")
    aggregates = aggregate(outcome.runs, outcome.results)
    print(render_table(aggregates))
    variants = {(a.backend, a.variant) for a in aggregates}
    if len(variants) > 1:
        print()
        print(pairwise_table(aggregates))
    for path, render in ((args.json, render_json), (args.csv, render_csv)):
        if not path:
            continue
        text = (
            render(outcome.runs, outcome.results, aggregates)
            if render is render_json
            else render(aggregates)
        )
        if path == "-":
            print(text, end="")
        else:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
    if args.stats:
        line = outcome.stats_line()
        if cache is not None:
            line += f", cache at {cache.root} ({cache.stats.summary()})"
        print(line)
    return 0


def _compare_results(args: argparse.Namespace, names):
    """One result per (scenario, backend) through the sweep engine —
    cached/parallel when asked, each scenario keeping its own seed
    unless ``--seed`` overrides all of them."""
    from repro.sweep import RunSpec, SweepEngine, SweepSpec

    cache = _result_cache(args) if args.from_cache else None
    if args.from_cache:
        missing, rows = [], []
        for name in names:
            scenario = _resolve(name, args)
            seed = args.seed if args.seed is not None else scenario.seed
            for backend in ("des", "fluid"):
                run = RunSpec(scenario, backend, seed)
                result = cache.get(run)
                if result is None:
                    missing.append(run.label())
                else:
                    rows.append(result)
        if not rows:
            raise _UserError(
                "--from-cache found no artifact for: "
                + ", ".join(missing)
                + f" (cache dir {cache.root}; run 'repro scenarios sweep' "
                "with matching --backend/--seed/--horizon/--warmup first)"
            )
        if missing:
            # a fluid-only (or des-only) sweep is a legitimate source:
            # tabulate what exists, but say what is absent
            print(
                f"note: {len(missing)} cell(s) not cached, omitted: "
                + ", ".join(missing),
                file=sys.stderr,
            )
        return rows
    # group by effective seed so each scenario keeps its registry default
    by_seed = {}
    for name in names:
        scenario = _resolve(name, args)
        seed = args.seed if args.seed is not None else scenario.seed
        by_seed.setdefault(seed, []).append(name)
    results = {}
    for seed, group in by_seed.items():
        spec = SweepSpec(
            scenarios=tuple(group),
            seeds=(seed,),
            backends=("des", "fluid"),
            overrides=_sweep_overrides(args),
        )
        outcome = SweepEngine(spec, jobs=args.jobs).run()
        for run, result in zip(outcome.runs, outcome.results):
            results[(run.name, run.backend)] = result
    return [
        results[(name, backend)]
        for name in names
        for backend in ("des", "fluid")
    ]


def _scenarios_compare(args: argparse.Namespace) -> int:
    from repro.scenarios import list_scenarios

    names = args.names or []
    if args.all or not names:
        # scale-tier scenarios are excluded: comparing them on both
        # packet-level backends is exactly the cost --all must not pay
        names = [s.name for s in list_scenarios(include_scale=False)]
    rows = _compare_results(args, names)
    width = max(len(r.scenario) for r in rows)
    print(
        f"{'scenario':<{width}}  {'backend':<8}{'Mbps total':>11}"
        f"{'worst Mbps':>12}{'latency ms':>12}{'drops':>8}"
        f"{'migr':>6}{'fail ev':>9}"
    )
    for r in rows:
        print(
            f"{r.scenario:<{width}}  {r.backend:<8}"
            f"{r.total_throughput_mbps:>11.2f}{r.min_flow_mbps:>12.2f}"
            f"{r.mean_latency_ms:>12.2f}{r.drops:>8d}"
            f"{r.migrations:>6d}{r.failure_events:>9d}"
        )
    return 0


def build_scenarios_parser() -> argparse.ArgumentParser:
    """The ``repro scenarios`` argument parser, construction only.

    Kept separate from execution so tooling (and the doc-snippet tests,
    which parse every ``repro ...`` command block in README/docs against
    the real parser) can validate invocations without running anything.
    """
    parser = argparse.ArgumentParser(
        prog="repro scenarios",
        description="Run declarative evaluation scenarios through the "
        "framework (see repro.scenarios).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="show the registered scenarios")

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario's seed "
                       "(default: the scenario's registered seed)")
        p.add_argument("--horizon", type=float, default=None,
                       help="override the measurement horizon, in "
                       "seconds of virtual time (default: the "
                       "scenario's registered horizon)")
        p.add_argument("--warmup", type=float, default=None,
                       help="override the telemetry warmup, in seconds "
                       "of virtual time before traffic starts "
                       "(default: the scenario's registered warmup)")
        p.add_argument("--objective", choices=_objective_choices(),
                       default=None,
                       help="override the scenario's Hecate objective "
                       "(default: the scenario's registered policy "
                       "objective; see 'repro objectives list')")

    run = sub.add_parser("run", help="run one scenario")
    run.add_argument("name", help="scenario name (see 'list')")
    run.add_argument("--backend", choices=_backend_choices(),
                     default=None,
                     help="override the scenario's backend "
                     "(default: the scenario's registered backend; "
                     "see 'repro backends list')")
    run.add_argument("--profile", nargs="?", const="-", default=None,
                     metavar="PATH",
                     help="profile the run under cProfile and print the "
                     "top functions by internal and cumulative time; "
                     "with PATH, also dump raw pstats data there for "
                     "python -m pstats / snakeviz (default: no "
                     "profiling; bare --profile prints the summary "
                     "only).  Profiler overhead inflates wall clock — "
                     "use it to find bottlenecks, not to measure them")
    common(run)

    compare = sub.add_parser(
        "compare", help="run scenarios on both backends, tabulate"
    )
    compare.add_argument("names", nargs="*", help="scenario names")
    compare.add_argument("--all", action="store_true",
                         help="compare every registered scenario "
                         "(scale tier excluded; name scale-* "
                         "scenarios explicitly)")
    compare.add_argument("--jobs", type=_positive_int, default=1,
                         help="worker processes (default 1: in-process)")
    compare.add_argument("--from-cache", action="store_true",
                         help="serve results from the sweep cache instead "
                         "of running; errors on missing artifacts")
    compare.add_argument("--cache-dir", default=None,
                         help="sweep cache directory "
                         "(default .sweep-cache)")
    common(compare)

    sweep = sub.add_parser(
        "sweep",
        help="run a (scenario x seed x backend x policy) grid in "
        "parallel, with result caching and seed aggregation",
    )
    sweep.add_argument("names", nargs="*", help="scenario names")
    sweep.add_argument("--all", action="store_true",
                       help="sweep every registered scenario "
                       "(default when no names are given; scale tier "
                       "excluded either way — name scale-* scenarios "
                       "explicitly)")
    sweep.add_argument("--seeds", default="0",
                       help="seed axis: a list like '0,1,2' or an "
                       "inclusive range like '0-4' (default '0')")
    sweep.add_argument("--backend", action="append",
                       choices=_backend_choices(),
                       help="backend axis (repeatable; default: each "
                       "scenario's own registered backend; "
                       "see 'repro backends list')")
    sweep.add_argument("--policy", action="append", metavar="K=V[,K=V]",
                       help="policy-override variant, e.g. "
                       "'reoptimize_every=5.0' (units follow the "
                       "PolicySpec field: seconds for periods/"
                       "intervals, Mbps for thresholds; repeatable — "
                       "each use adds one grid axis value; default: "
                       "no policy axis)")
    sweep.add_argument("--jobs", type=_positive_int, default=1,
                       help="worker processes (default 1: in-process; "
                       "results are byte-identical at any --jobs)")
    sweep.add_argument("--executor", choices=("serial", "process",
                                              "work-queue"),
                       default=None,
                       help="how pending cells execute: 'serial' "
                       "in-process, 'process' via a local pool of "
                       "--jobs workers, 'work-queue' by draining a "
                       "shared --queue-dir alongside other "
                       "invocations (default: serial for --jobs 1, "
                       "process otherwise; results are byte-identical "
                       "across executors)")
    sweep.add_argument("--queue-dir", metavar="DIR", default=None,
                       help="shared work-queue directory for "
                       "--executor work-queue; start the same sweep "
                       "with the same DIR from N shells and they "
                       "divide the cells (default: none)")
    sweep.add_argument("--store", metavar="PATH", default=None,
                       help="also write every (run, result) row to one "
                       "columnar file: parquet when PATH ends in "
                       ".parquet and pyarrow is installed, columnar "
                       "JSON when it ends in .json (default: no "
                       "store; the per-cell cache is unaffected)")
    sweep.add_argument("--cache-dir", default=None,
                       help="result cache directory "
                       "(default .sweep-cache)")
    sweep.add_argument("--no-cache", action="store_true",
                       help="neither read nor write the result cache "
                       "(default: cache on)")
    sweep.add_argument("--refresh", action="store_true",
                       help="re-execute every cell but still write the "
                       "cache back (default: serve cached cells)")
    sweep.add_argument("--stats", action="store_true",
                       help="print cache/executor statistics after the "
                       "table (default: off)")
    sweep.add_argument("--json", metavar="PATH",
                       help="write runs + aggregates as JSON "
                       "('-' for stdout; default: no JSON output)")
    sweep.add_argument("--csv", metavar="PATH",
                       help="write the aggregate table as CSV "
                       "('-' for stdout; default: no CSV output)")
    common(sweep)
    return parser


def _scenarios_main(argv) -> int:
    args = build_scenarios_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _scenarios_list()
        if args.command == "run":
            return _scenarios_run(args)
        if args.command == "sweep":
            return _scenarios_sweep(args)
        return _scenarios_compare(args)
    except _UserError as exc:
        # unknown scenario names and invalid spec overrides (e.g. a
        # negative --horizon); internal errors still traceback
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2


def _backends_list() -> int:
    from repro.backends import list_backends

    capabilities = list_backends()
    width = max(len(c.name) for c in capabilities)
    flags = (
        ("packet", "packet_level"),
        ("fluid", "fluid_model"),
        ("classes", "uses_flow_classes"),
        ("external", "external"),
        ("events", "reports_sim_events"),
        ("telem", "reports_telemetry"),
    )
    header = f"{'name':<{width}}  " + "".join(
        f"{label:>9}" for label, _ in flags
    )
    print(header)
    print("-" * len(header))
    for caps in capabilities:
        cells = "".join(
            f"{'yes' if getattr(caps, attr) else '-':>9}"
            for _, attr in flags
        )
        print(f"{caps.name:<{width}}  {cells}")
        print(f"{'':<{width}}    {caps.description}")
    return 0


def build_backends_parser() -> argparse.ArgumentParser:
    """The ``repro backends`` argument parser, construction only.

    Separate from execution for the same reason as
    :func:`build_scenarios_parser`: the doc-snippet tests validate
    documented command lines against the real parser.
    """
    parser = argparse.ArgumentParser(
        prog="repro backends",
        description="Inspect the execution-backend registry behind "
        "every --backend axis (see repro.backends and "
        "docs/BACKENDS.md).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "list", help="show the registered backends and their capabilities"
    )
    return parser


def _backends_main(argv) -> int:
    build_backends_parser().parse_args(argv)
    return _backends_list()


def _service_list() -> int:
    from repro.scenarios import list_workloads

    workloads = list_workloads()
    width = max(len(w.name) for w in workloads)
    header = (
        f"{'name':<{width}}  {'topology':<18}{'rate/s':>7}{'profile':>9}"
        f"{'holding':>13}{'duration':>9}"
    )
    print(header)
    print("-" * len(header))
    for w in workloads:
        print(
            f"{w.name:<{width}}  {w.topology.kind:<18}"
            f"{w.churn.rate:>7g}{w.churn.rate_profile:>9}"
            f"{w.churn.holding:>13}{w.duration:>8g}s"
        )
        print(f"{'':<{width}}    {w.description}")
    return 0


def _service_run(args: argparse.Namespace) -> int:
    import json

    from repro.framework.service_mode import run_service
    from repro.scenarios import get_workload

    try:
        workload = get_workload(args.name)
        result = run_service(
            workload,
            rate=args.rate,
            duration=args.duration,
            warmup=args.warmup,
            seed=args.seed,
            objective=args.objective,
        )
    except (KeyError, ValueError) as exc:
        raise _UserError(exc.args[0]) from exc
    if args.json:
        text = json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n"
        if args.json == "-":
            print(text, end="")
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(text)
    if args.json != "-":
        print(result.summary())
    if not result.reconciles():
        print(
            "error: admission counters do not reconcile "
            "(admitted + rejected + deferred_pending != offered)",
            file=sys.stderr,
        )
        return 1
    return 0


def build_service_parser() -> argparse.ArgumentParser:
    """The ``repro service`` argument parser, construction only.

    Separate from execution for the same reason as
    :func:`build_scenarios_parser`: the doc-snippet tests validate
    documented command lines against the real parser.
    """
    parser = argparse.ArgumentParser(
        prog="repro service",
        description="Open-loop service mode: sustained flow churn with "
        "admission control and steady-state SLO metrics "
        "(see repro.framework.service_mode).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="show the registered service workloads")

    run = sub.add_parser("run", help="run one service workload")
    run.add_argument("name", help="workload name (see 'list')")
    run.add_argument("--rate", type=float, default=None,
                     help="override the flow arrival rate, in flows per "
                     "virtual second (default: the workload's "
                     "registered rate)")
    run.add_argument("--duration", type=float, default=None,
                     help="override the run duration, in virtual "
                     "seconds (default: the workload's registered "
                     "duration)")
    run.add_argument("--warmup", type=float, default=None,
                     help="override the SLO warmup window, in virtual "
                     "seconds; samples arriving earlier are excluded "
                     "from percentiles, never from counters "
                     "(default: the workload's registered warmup)")
    run.add_argument("--seed", type=int, default=None,
                     help="override the workload's seed "
                     "(default: the workload's registered seed)")
    run.add_argument("--objective", choices=_objective_choices(),
                     default=None,
                     help="override the workload's Hecate objective "
                     "(default: the workload's registered policy "
                     "objective; see 'repro objectives list')")
    run.add_argument("--json", metavar="PATH",
                     help="write the result as JSON ('-' for stdout, "
                     "replacing the summary; default: summary only)")
    return parser


def _service_main(argv) -> int:
    args = build_service_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _service_list()
        return _service_run(args)
    except _UserError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2


def build_objectives_parser() -> argparse.ArgumentParser:
    """The ``repro objectives`` argument parser, construction only.

    Separate from execution for the same reason as
    :func:`build_scenarios_parser`: the doc-snippet tests validate
    documented command lines against the real parser.
    """
    parser = argparse.ArgumentParser(
        prog="repro objectives",
        description="The pluggable Hecate objective registry behind "
        "every --objective flag and 'policy=objective=...' sweep axis "
        "(see repro.hecate.objectives and docs/QOE.md).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="show the registered objectives")
    return parser


def _objectives_list() -> int:
    from repro.hecate.objectives import list_objectives

    specs = list_objectives()
    width = max(len(s.name) for s in specs)
    header = f"{'name':<{width}}  {'app-aware':<10}description"
    print(header)
    print("-" * len(header))
    for spec in specs:
        aware = "yes" if spec.app_aware else "-"
        print(f"{spec.name:<{width}}  {aware:<10}{spec.description}")
    return 0


def _objectives_main(argv) -> int:
    build_objectives_parser().parse_args(argv)
    return _objectives_list()


def build_lint_parser() -> argparse.ArgumentParser:
    """The ``repro lint`` argument parser, construction only.

    Separate from execution for the same reason as
    :func:`build_scenarios_parser`: the doc-snippet tests validate
    documented command lines against the real parser.
    """
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Statically check the determinism & hot-path "
        "invariants (rules RL001-RL008; see repro.analysis and "
        "docs/DETERMINISM.md). Exits 1 on any non-baselined finding.",
    )
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories to lint "
                        "(default: src)")
    parser.add_argument("--json", metavar="PATH",
                        help="write findings as a versioned JSON "
                        "document ('-' for stdout, replacing the text "
                        "report; default: text report only)")
    parser.add_argument("--baseline", metavar="PATH",
                        help="baseline file of grandfathered findings; "
                        "matching findings are reported but do not fail "
                        "the run (default: no baseline)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="write every current finding to --baseline "
                        "and exit 0 (default: off)")
    parser.add_argument("--select", metavar="IDS",
                        help="comma-separated rule ids to run, e.g. "
                        "'RL001,RL004' (default: every registered rule)")
    parser.add_argument("--root", default=".", metavar="DIR",
                        help="directory report paths are made relative "
                        "to — baselines stay stable across checkouts "
                        "(default: the working directory)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog (id, severity, "
                        "scope, description) and exit")
    return parser


def _lint_rules(args: argparse.Namespace):
    from repro.analysis import all_rules, get_rule

    if not args.select:
        return all_rules()
    try:
        return tuple(
            get_rule(rule_id.strip())
            for rule_id in args.select.split(",")
            if rule_id.strip()
        )
    except KeyError as exc:
        raise _UserError(exc.args[0]) from exc


def _lint_list_rules() -> int:
    from repro.analysis import all_rules

    for rule in all_rules():
        scope = ", ".join(rule.include) if rule.include else "all files"
        if rule.exclude:
            scope += f"; except {', '.join(rule.exclude)}"
        print(f"{rule.id}  {rule.name}  [{rule.severity}]  ({scope})")
        print(f"       {rule.description}")
    return 0


def _lint_main(argv) -> int:
    args = build_lint_parser().parse_args(argv)
    try:
        if args.list_rules:
            return _lint_list_rules()
        from repro.analysis import (
            Analyzer,
            Baseline,
            render_json,
            render_text,
        )

        rules = _lint_rules(args)
        baseline = None
        if args.baseline and not args.write_baseline:
            try:
                baseline = Baseline.load(args.baseline)
            except FileNotFoundError:
                raise _UserError(
                    f"baseline file {args.baseline!r} does not exist "
                    "(create it with --write-baseline)"
                ) from None
            except (ValueError, KeyError) as exc:
                raise _UserError(
                    f"baseline file {args.baseline!r} is not a valid "
                    f"baseline: {exc}"
                ) from exc
        analyzer = Analyzer(rules=rules, baseline=baseline, root=args.root)
        findings = analyzer.lint_paths(args.paths or ["src"])
        if args.write_baseline:
            if not args.baseline:
                raise _UserError(
                    "--write-baseline needs --baseline PATH to write to"
                )
            Baseline.dump(findings, args.baseline)
            print(
                f"baseline written to {args.baseline} "
                f"({len(findings)} entrie(s))"
            )
            return 0
        if args.json:
            text = render_json(findings)
            if args.json == "-":
                print(text, end="")
            else:
                with open(args.json, "w", encoding="utf-8") as handle:
                    handle.write(text)
        if args.json != "-":
            print(render_text(findings), end="")
        active = [f for f in findings if not f.baselined]
        return 1 if active else 0
    except _UserError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "scenarios":
        return _scenarios_main(argv[1:])
    if argv and argv[0] == "backends":
        return _backends_main(argv[1:])
    if argv and argv[0] == "service":
        return _service_main(argv[1:])
    if argv and argv[0] == "objectives":
        return _objectives_main(argv[1:])
    if argv and argv[0] == "lint":
        return _lint_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce figures from 'Framework for Integrating ML "
        "Methods for Path-Aware Source Routing'.",
        epilog="'repro scenarios --help' documents the scenario suite; "
        "'repro backends --help' the execution-backend registry; "
        "'repro service --help' the open-loop service mode; "
        "'repro objectives --help' the Hecate objective registry; "
        "'repro lint --help' the determinism invariant checker.",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (see 'list'), 'list'/'all', 'scenarios', "
        "'backends', 'service', 'objectives', or 'lint'",
    )
    args = parser.parse_args(argv)

    if args.experiment == "list":
        width = max(len(k) for k in EXPERIMENTS)
        for key, (description, _) in EXPERIMENTS.items():
            print(f"{key:<{width}}  {description}")
        return 0
    if args.experiment == "all":
        for key, (_, runner) in EXPERIMENTS.items():
            print(f"\n{'=' * 72}\n{key}\n{'=' * 72}")
            print(runner())
        return 0
    if args.experiment not in EXPERIMENTS:
        print(
            f"unknown experiment {args.experiment!r}; "
            f"choose from: {', '.join(EXPERIMENTS)} (or 'list'/'all')",
            file=sys.stderr,
        )
        return 2
    print(EXPERIMENTS[args.experiment][1]())
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
