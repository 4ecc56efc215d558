"""``assign_flows`` against its own pre-memo implementation, byte for byte.

:func:`reference_assign_flows` below is ``assign_flows`` exactly as it
stood at the commit *before* it learned to solve once per tunnel-count
vector (kept verbatim, as ``tests/net/test_fluid_vectorized.py`` keeps
the scalar fill).  The function under test must return, on every
instance, the same

- ``list(assignment.items())`` — the key **order** too: greedy returns
  ``current``'s insertion order, exhaustive returns sorted order, and
  ``Controller.reoptimize_now`` migrates and ``assign_fluid`` fills
  ``paths`` in that order;
- ``list(rates)`` and ``[r.hex() for r in rates.values()]`` — the score
  is lexicographic on the float sum of that sequence, so summation
  order and the strict first-wins tie-break are part of the contract;
- ``total_mbps.hex()`` and ``migrations``;

or raise the same exception with the same message.  Everything is
compared with ``==``.

Two sets of instances:

- ``data/assign_flows_corpus.json``: the real inputs, captured by
  monkeypatching ``repro.backends.fluid.assign_flows`` and
  ``repro.framework.controller.assign_flows`` over the perf ledger's
  ``sweep_cold_1k`` cells at 32 program seeds (groups of 6–32 flows on
  a k=4 fat tree, all but one of them greedy), every
  ``reoptimize_now`` call of ``service_rfr_loop`` at program seeds
  100–102 (groups of 4–19 flows on live telemetry capacities) and the
  Fig. 12 flow-aggregation scenario on every backend plus its staged
  replay.  Capacities are stored restricted to the links the
  instance's tunnels cross (the only keys ``max_min_fair`` reads),
  strings are interned and identical instances stored once;
- :func:`random_instances`: seeded random instances — 1–40 flows
  straddling ``max_enumerate``, repeated and looped router paths,
  undirected, symmetric and asymmetric directed capacities drawn from
  tie-heavy and continuous values, ``current`` dicts in shuffled
  insertion order with flows starting on different tunnels.

Tier-1 runs a slice of both against the reference in this process
(≈1.5 s) and again, candidate only, in two subprocesses under different
``PYTHONHASHSEED`` values, whose outcome digests must equal this
process's.  The whole corpus and all 3 000 random instances (≈40 s,
most of it the reference) run with

    PYTHONPATH=src python tests/hecate/test_assign_flows_equivalence.py

which is what the weekly ``perf-ledger`` CI job and the Python 3.12
tier-1 job do.  To re-capture the corpus after an intentional change
of its sources (≈20 s):

    PYTHONPATH=src python tests/hecate/test_assign_flows_equivalence.py \\
        --capture > tests/hecate/data/assign_flows_corpus.json
"""

import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
from itertools import product
from math import comb
from pathlib import Path
from typing import Dict, Mapping, Sequence, Tuple

import pytest

import repro.hecate.objectives
from repro.hecate.objectives import AssignmentResult, assign_flows
from repro.net.fluid import FluidFlow, max_min_fair, total_throughput

CORPUS_FILE = Path(__file__).parent / "data" / "assign_flows_corpus.json"

SWEEP_SEEDS = tuple(
    100 * seed + cell for seed in (1, 3, 4, 5) for cell in range(8)
)
RFR_SEEDS = (100, 101, 102)

RANDOM_SEED = 23
RANDOM_INSTANCES = 3000
#: the tier-1 slice: every n-th sweep instance (the small sources are
#: taken whole) and the first so-many random instances
SLICE_SWEEP_STRIDE = 32
SLICE_RANDOM = 80


# ------------------------------------------------------------ reference


def reference_assign_flows(
    current: Mapping[str, str],
    tunnel_paths: Mapping[str, Sequence[str]],
    capacities: Mapping[Tuple[str, str], float],
    max_enumerate: int = 6,
) -> AssignmentResult:
    """``assign_flows`` before the memo: one solve per scored candidate."""
    flows = sorted(current)
    tunnels = sorted(tunnel_paths)
    if not flows:
        raise ValueError("no flows to assign")
    if not tunnels:
        raise ValueError("no candidate tunnels")
    for tunnel in current.values():
        if tunnel not in tunnel_paths:
            raise KeyError(
                f"current assignment references unknown tunnel {tunnel!r}"
            )

    def score(assignment: Dict[str, str]):
        fluid = [
            FluidFlow.from_path(f, tunnel_paths[assignment[f]])
            for f in flows
        ]
        rates = max_min_fair(fluid, capacities)
        migrations = sum(1 for f in flows if assignment[f] != current[f])
        return (
            total_throughput(rates),
            min(rates.values()),
            -migrations,
        ), rates, migrations

    if len(flows) <= max_enumerate:
        best = None
        for combo in product(tunnels, repeat=len(flows)):
            assignment = dict(zip(flows, combo))
            key, rates, migrations = score(assignment)
            if best is None or key > best[0]:
                best = (key, assignment, rates, migrations)
        _, assignment, rates, migrations = best
    else:
        # greedy: move one flow at a time to its best tunnel, re-scoring
        assignment = dict(current)
        for f in flows:
            best_key, best_tunnel = None, assignment[f]
            for tunnel in tunnels:
                trial = dict(assignment)
                trial[f] = tunnel
                key, _, _ = score(trial)
                if best_key is None or key > best_key:
                    best_key, best_tunnel = key, tunnel
            assignment[f] = best_tunnel
        _, rates, migrations = score(assignment)
    return AssignmentResult(
        assignment=assignment,
        rates=rates,
        total_mbps=total_throughput(rates),
        migrations=migrations,
    )


# ------------------------------------------------------------ instances

# an instance is (source, current, tunnel_paths, capacities, max_enumerate)


def outcome(function, instance):
    """What one call returned, in directly comparable form."""
    _, current, tunnel_paths, capacities, max_enumerate = instance
    try:
        result = function(
            current=current,
            tunnel_paths=tunnel_paths,
            capacities=capacities,
            max_enumerate=max_enumerate,
        )
    except (KeyError, ValueError) as exc:
        return [type(exc).__name__, str(exc)]
    return [
        [list(item) for item in result.assignment.items()],
        list(result.rates),
        [rate.hex() for rate in result.rates.values()],
        result.total_mbps.hex(),
        result.migrations,
    ]


def load_corpus():
    """The committed instances, rebuilt with their original key order."""
    blob = json.loads(CORPUS_FILE.read_text(encoding="utf-8"))
    strings = blob["strings"]
    paths = [tuple(strings[i] for i in path) for path in blob["paths"]]
    tunnel_sets = [
        {strings[name]: paths[path] for name, path in tunnel_set}
        for tunnel_set in blob["tunnel_sets"]
    ]
    capacities = [
        {(strings[a], strings[b]): cap for a, b, cap in caps}
        for caps in blob["capacities"]
    ]
    instances = []
    for source, tunnel_set, caps, flows, starts in blob["instances"]:
        names = list(tunnel_sets[tunnel_set])
        if isinstance(starts, int):
            starts = [starts] * len(flows)
        current = {
            strings[flow]: names[start] for flow, start in zip(flows, starts)
        }
        instances.append(
            (
                blob["sources"][source],
                current,
                tunnel_sets[tunnel_set],
                capacities[caps],
                6,
            )
        )
    return instances


def _random_path(rng, nodes, src, dst):
    """A router path src -> dst over ``nodes``; one in six doubles back
    over its own first link (a looped path crosses a link twice)."""
    middle = [n for n in nodes if n not in (src, dst)]
    rng.shuffle(middle)
    path = [src] + middle[: rng.randrange(0, min(4, len(middle) + 1))] + [dst]
    if rng.random() < 1 / 6:
        path = path[:2] + [path[0]] + path[1:]
    return tuple(path)


def _random_capacities(rng, tunnel_paths):
    links = sorted(
        {
            tuple(sorted(link))
            for path in tunnel_paths.values()
            for link in zip(path[:-1], path[1:])
        }
    )
    values = rng.choice(
        (
            lambda: 10.0,  # all-equal ties
            lambda: rng.choice((5.0, 10.0, 20.0, 25.0, 40.0, 100.0)),
            lambda: rng.uniform(0.5, 120.0),
            lambda: rng.choice((1e-3, 1.0, 3.3, 1e9)),
        )
    )
    mode = rng.choice(("undirected", "symmetric", "asymmetric"))
    capacities = {}
    for a, b in links:
        if mode == "undirected":
            key = (a, b) if rng.random() < 0.5 else (b, a)
            capacities[key] = values()
        elif mode == "symmetric":
            capacities[(a, b)] = capacities[(b, a)] = values()
        else:
            capacities[(a, b)] = values()
            capacities[(b, a)] = values()
    return capacities


def random_instances(count=RANDOM_INSTANCES, seed=RANDOM_SEED):
    """``count`` seeded instances; instance ``i`` does not depend on
    ``count``, so the tier-1 slice is a prefix of the full run."""
    for index in range(count):
        rng = random.Random(f"{seed}:{index}")
        nodes = [f"r{i}" for i in range(rng.randrange(3, 9))]
        src, dst = rng.sample(nodes, 2)
        n_tunnels = rng.choice((1, 2, 2, 3, 3, 3, 4, 5))
        tunnel_paths = {}
        for t in rng.sample(range(1, 13), n_tunnels):
            # "T10" sorts before "T2": sorted order is not numeric
            if tunnel_paths and rng.random() < 0.2:
                path = rng.choice(list(tunnel_paths.values()))  # repeated
            else:
                path = _random_path(rng, nodes, src, dst)
            tunnel_paths[f"T{t}"] = path
        # half the instances enumerate; keep tunnels ** flows affordable
        if rng.random() < 0.5:
            n_flows = rng.randrange(1, 7 if n_tunnels <= 3 else 6)
        else:
            n_flows = rng.randrange(7, 41)
        ids = rng.sample(range(1, 200), n_flows)
        names = [
            f"{rng.choice(('mouse', 'elephant', 'f'))}{i}" for i in ids
        ]
        tunnels = list(tunnel_paths)
        if rng.random() < 0.4:
            current = {name: tunnels[0] for name in names}
        else:
            current = {name: rng.choice(tunnels) for name in names}
        max_enumerate = rng.choice((6, 6, 6, 6, 0, 3, 8))
        if n_tunnels**n_flows > 4096 and n_flows <= max_enumerate:
            max_enumerate = 6
        yield (
            f"random:{index}",
            current,
            tunnel_paths,
            _random_capacities(rng, tunnel_paths),
            max_enumerate,
        )


def tier1_slice():
    corpus = load_corpus()
    sweep = [i for i in corpus if i[0].startswith("sweep_cold_1k")]
    rest = [i for i in corpus if not i[0].startswith("sweep_cold_1k")]
    return (
        sweep[::SLICE_SWEEP_STRIDE]
        + rest
        + list(random_instances(SLICE_RANDOM))
    )


def digest_of(outcomes):
    blob = json.dumps(outcomes, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def differing_sources(instances, outcomes):
    """Sources on which the reference does not return ``outcomes``."""
    return [
        instance[0]
        for instance, got in zip(instances, outcomes)
        if got != outcome(reference_assign_flows, instance)
    ]


# ---------------------------------------------------------------- tests


@pytest.fixture(scope="module")
def slice_outcomes():
    instances = tier1_slice()
    return instances, [outcome(assign_flows, i) for i in instances]


def test_corpus_covers_what_it_names():
    corpus = load_corpus()
    sources = {instance[0] for instance in corpus}
    assert {f"sweep_cold_1k:{seed}" for seed in SWEEP_SEEDS} <= sources
    assert {f"service_rfr_loop:{seed}" for seed in RFR_SEEDS} <= sources
    assert any(source.startswith("fig12") for source in sources)
    sizes = {len(instance[1]) for instance in corpus}
    assert min(sizes) <= 3 and max(sizes) >= 30  # both branches
    assert CORPUS_FILE.stat().st_size <= 300_000


def test_random_instances_cover_the_shapes_they_name():
    """Of the generator, not of the slice: generating is cheap."""
    instances = list(random_instances(400))
    assert {len(i[1]) for i in instances} == set(range(1, 41))
    assert any(list(i[1]) != sorted(i[1]) for i in instances)
    assert any(len(set(i[1].values())) > 1 for i in instances)
    assert any(
        len(set(i[2].values())) < len(i[2]) for i in instances
    )  # repeated paths
    assert any(
        len(set(path)) < len(path) for i in instances for path in i[2].values()
    )  # looped paths
    assert any(
        (b, a) in i[3] and i[3][(a, b)] != i[3][(b, a)]
        for i in instances
        for a, b in i[3]
    )  # asymmetric directed
    assert any(
        (b, a) not in i[3] for i in instances for a, b in i[3]
    )  # undirected
    assert {i[4] for i in instances} == {0, 3, 6, 8}
    assert list(random_instances(5)) == list(random_instances(5))


def test_tier1_slice_is_byte_identical_to_the_reference(slice_outcomes):
    assert differing_sources(*slice_outcomes) == []


def test_slice_digest_is_hash_seed_independent(slice_outcomes):
    """Flow names key sets and dicts inside the solver; the outcomes must
    not depend on how they hash, so two interpreters with different
    ``PYTHONHASHSEED`` values must both reproduce this process's digest
    (which the test above compared with the reference)."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    children = [
        subprocess.Popen(
            [sys.executable, __file__, "--slice"],
            env=dict(env, PYTHONHASHSEED=hash_seed),
            stdout=subprocess.PIPE,
            text=True,
        )
        for hash_seed in ("0", "4242")
    ]
    outputs = [child.communicate()[0].strip() for child in children]
    assert [child.returncode for child in children] == [0, 0]
    digest = digest_of(slice_outcomes[1])
    assert outputs == [digest, digest]


def _shared_uplink_instance(n_flows, n_tunnels, max_enumerate=6):
    """``n_tunnels`` two-hop detours of different widths behind one
    shared 60 Mbps uplink; every flow starts on the narrowest."""
    widths = (5.0, 10.0, 10.0, 20.0, 25.0, 40.0)[:n_tunnels]
    capacities = {("in", "up"): 60.0}
    tunnel_paths = {}
    for i, width in enumerate(widths, start=1):
        tunnel_paths[f"T{i}"] = ("in", "up", f"m{i}", "out")
        capacities[("up", f"m{i}")] = width
        capacities[(f"m{i}", "out")] = 2 * width
    current = {f"f{i}": "T1" for i in range(n_flows, 0, -1)}
    return ("bound", current, tunnel_paths, capacities, max_enumerate)


def _count_solves(monkeypatch):
    """Record the claimant list of every solve ``assign_flows`` makes."""
    solves = []

    def counting(flows, capacities):
        solves.append(list(flows))
        return max_min_fair(flows, capacities)

    monkeypatch.setattr(repro.hecate.objectives, "max_min_fair", counting)
    return solves


@pytest.mark.parametrize("n_tunnels, compositions", [(4, 84), (6, 462)])
def test_exhaustive_branch_solves_once_per_composition(
    monkeypatch, n_tunnels, compositions
):
    """Six flows in one re-optimisation tick used to cost 4**6 = 4 096
    and 6**6 = 46 656 solves; the count-vector memo bounds them by the
    compositions of six flows over the tunnels, for the same bytes.
    Each solve sees one claimant per used tunnel, counting the flows on
    it."""
    solves = _count_solves(monkeypatch)
    instance = _shared_uplink_instance(6, n_tunnels)
    tunnel_paths = instance[2]
    got = outcome(assign_flows, instance)
    assert comb(6 + n_tunnels - 1, n_tunnels - 1) == compositions
    assert 0 < len(solves) <= compositions
    for claimants in solves:
        names = [claimant.name for claimant in claimants]
        assert len(set(names)) == len(names)
        total = 0
        for claimant in claimants:
            path = tunnel_paths[claimant.name]
            links = tuple(zip(path[:-1], path[1:]))
            assert claimant.links == links and claimant.count >= 1
            total += claimant.count
        assert total == 6
    assert got == outcome(reference_assign_flows, instance)
    assert got[4] > 0  # it had something to decide


def test_greedy_branch_solves_at_most_once_per_move(monkeypatch):
    solves = _count_solves(monkeypatch)
    instance = _shared_uplink_instance(20, 5)
    got = outcome(assign_flows, instance)
    assert 0 < len(solves) <= 20 * (5 - 1) + 1
    assert got == outcome(reference_assign_flows, instance)


def test_missing_capacity_raises_from_the_first_solve_that_meets_it(
    monkeypatch,
):
    """The first solve of a count vector goes through ``max_min_fair``
    with every used tunnel's claimant, so its ``KeyError`` fires where
    it did before, naming the same link."""
    for n_flows in (3, 9):
        instance = _shared_uplink_instance(n_flows, 3)
        del instance[3][("up", "m2")]
        solves = _count_solves(monkeypatch)
        got = outcome(assign_flows, instance)
        assert got == outcome(reference_assign_flows, instance)
        assert got[0] == "KeyError" and "('up', 'm2')" in got[1]
        assert len(solves) == 2  # all on T1, then the first use of T2


# -------------------------------------------------------------- capture


class _Interner:
    """Distinct items in first-seen order; calling it gives the index."""

    def __init__(self):
        self.items = []
        self._index = {}

    def __call__(self, item):
        if item not in self._index:
            self._index[item] = len(self.items)
            self.items.append(item)
        return self._index[item]


def _record_calls(source, calls):
    """Route both consumers' ``assign_flows`` through a recorder."""
    import repro.backends.fluid
    import repro.framework.controller

    def recording(current, tunnel_paths, capacities, max_enumerate=6):
        assert max_enumerate == 6
        calls.append(
            (source, dict(current), dict(tunnel_paths), dict(capacities))
        )
        return assign_flows(
            current=current,
            tunnel_paths=tunnel_paths,
            capacities=capacities,
        )

    repro.backends.fluid.assign_flows = recording
    repro.framework.controller.assign_flows = recording


def capture():
    """Run the sources and return the corpus as JSON text."""
    import repro.backends.fluid
    import repro.framework.controller
    from repro.experiments import fig12_flow_aggregation
    from repro.framework.service_mode import ServiceDriver
    from repro.scenarios import ScenarioRunner, get_scenario
    from repro.scenarios.registry import get_workload

    calls = []
    try:
        base = get_scenario("scale-fat-tree-2k")
        cell = base.with_overrides(
            traffic=dataclasses.replace(base.traffic, n_flows=1000)
        )
        for seed in SWEEP_SEEDS:
            _record_calls(f"sweep_cold_1k:{seed}", calls)
            ScenarioRunner(cell, backend="fluid", seed=seed).run()
        ring = get_workload("ring-steady")
        ring = ring.with_overrides(
            policy=dataclasses.replace(ring.policy, model="rfr")
        )
        for seed in RFR_SEEDS:
            _record_calls(f"service_rfr_loop:{seed}", calls)
            ServiceDriver(
                ring, rate=30.0, duration=40.0, warmup=0.0, seed=seed
            ).run()
        fig12 = get_scenario("fig12-flow-aggregation")
        for backend in ("fluid", "emulation-mock", "des"):
            _record_calls(f"fig12:{backend}", calls)
            ScenarioRunner(fig12.quick(12.0, 2.0), backend=backend).run()
        _record_calls("fig12:staged-replay", calls)
        fig12_flow_aggregation.run(phase_duration=6.0, warmup=32.0)
    finally:
        repro.backends.fluid.assign_flows = assign_flows
        repro.framework.controller.assign_flows = assign_flows

    strings, paths, tunnel_sets = _Interner(), _Interner(), _Interner()
    capacity_maps, sources = _Interner(), _Interner()
    instances, seen = [], set()
    for source, current, tunnel_paths, capacities in calls:
        used = {
            key
            for path in tunnel_paths.values()
            for a, b in zip(path[:-1], path[1:])
            for key in ((a, b), (b, a))
        }
        tunnel_set = tunnel_sets(
            tuple(
                (strings(name), paths(tuple(map(strings, path))))
                for name, path in tunnel_paths.items()
            )
        )
        caps = capacity_maps(
            tuple(
                (strings(a), strings(b), cap)
                for (a, b), cap in capacities.items()
                if (a, b) in used
            )
        )
        names = list(tunnel_paths)
        starts = [names.index(tunnel) for tunnel in current.values()]
        instance = (
            tunnel_set,
            caps,
            tuple(map(strings, current)),
            starts[0] if len(set(starts)) == 1 else tuple(starts),
        )
        if instance not in seen:  # the same call again adds nothing
            seen.add(instance)
            instances.append((sources(source),) + instance)

    def rows(items):
        compact = (json.dumps(i, separators=(",", ":")) for i in items)
        return "[\n" + ",\n".join(compact) + "\n]"

    tables = {
        "capacities": capacity_maps.items,
        "paths": paths.items,
        "sources": sources.items,
        "strings": strings.items,
        "tunnel_sets": tunnel_sets.items,
        "instances": instances,
    }
    body = ",\n".join(f'"{name}": {rows(t)}' for name, t in tables.items())
    return "{\n" + body + "\n}"


def main(argv):
    if argv == ["--capture"]:
        print(capture())
        return 0
    if argv == ["--slice"]:
        print(digest_of([outcome(assign_flows, i) for i in tier1_slice()]))
        return 0
    corpus = load_corpus()
    instances = corpus + list(random_instances())
    outcomes = [outcome(assign_flows, i) for i in instances]
    differing = differing_sources(instances, outcomes)
    print(
        f"{len(corpus)} corpus + {RANDOM_INSTANCES} random instances, "
        f"{len(differing)} differ from the reference; "
        f"outcomes {digest_of(outcomes)[:16]}"
    )
    for source in differing[:20]:
        print(f"  differs: {source}")
    print(
        "re-capture: PYTHONPATH=src python "
        "tests/hecate/test_assign_flows_equivalence.py --capture "
        "> tests/hecate/data/assign_flows_corpus.json"
    )
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
