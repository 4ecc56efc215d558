"""Result cache: key stability, round-trips, corruption, stats."""

import json

import pytest

from repro.scenarios import ScenarioResult, ScenarioRunner, get_scenario
from repro.sweep import (
    ResultCache,
    RunSpec,
    SweepEngine,
    SweepSpec,
    run_key,
    scenario_fingerprint,
)


def _cell(name="line-baseline", backend="fluid", seed=0, **overrides):
    scenario = get_scenario(name)
    if overrides:
        scenario = scenario.with_overrides(**overrides)
    return RunSpec(scenario, backend, seed)


class TestKeys:
    def test_equal_cells_share_a_key(self):
        assert run_key(_cell()) == run_key(_cell())

    def test_seed_backend_scenario_and_spec_all_distinguish(self):
        base = run_key(_cell())
        assert run_key(_cell(seed=1)) != base
        assert run_key(_cell(backend="des")) != base
        assert run_key(_cell(name="ring-uniform")) != base
        assert run_key(_cell(horizon=9.0)) != base

    def test_fingerprint_survives_tuple_keyed_params(self):
        # fig11 pins link-delay overrides under a tuple key, which plain
        # json.dumps cannot serialise — the canonicaliser must
        scenario = get_scenario("fig11-latency-migration")
        assert scenario_fingerprint(scenario) == scenario_fingerprint(scenario)

    def test_grid_cells_have_unique_keys(self):
        spec = SweepSpec(
            scenarios=("line-baseline", "ring-uniform"),
            seeds=(0, 1),
            backends=("des", "fluid"),
        )
        keys = [run_key(run) for run in spec.expand()]
        assert len(set(keys)) == len(keys)


class TestResultCache:
    def _result(self, run):
        return ScenarioRunner(
            run.scenario, backend=run.backend, seed=run.seed
        ).run()

    def test_miss_then_hit_round_trips_exactly(self, tmp_path):
        cache = ResultCache(tmp_path)
        run = _cell(horizon=8.0, warmup=2.0)
        assert cache.get(run) is None
        result = self._result(run)
        cache.put(run, result)
        assert cache.get(run) == result
        assert (cache.stats.misses, cache.stats.hits) == (1, 1)
        assert cache.stats.stores == 1

    def test_artifact_is_json_with_provenance_header(self, tmp_path):
        cache = ResultCache(tmp_path)
        run = _cell(horizon=8.0, warmup=2.0)
        path = cache.put(run, self._result(run))
        artifact = json.loads(path.read_text())
        assert artifact["scenario"] == "line-baseline"
        assert artifact["backend"] == "fluid"
        assert artifact["seed"] == 0
        assert artifact["key"] == run_key(run)
        assert artifact["result"]["total_throughput_mbps"] > 0

    def test_corrupt_artifact_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        run = _cell(horizon=8.0, warmup=2.0)
        cache.put(run, self._result(run))
        cache.path(run).write_text("{not json")
        assert cache.get(run) is None
        # and the sweep's overwrite heals it
        cache.put(run, self._result(run))
        assert cache.get(run) is not None

    def test_truncated_result_payload_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        run = _cell(horizon=8.0, warmup=2.0)
        path = cache.put(run, self._result(run))
        artifact = json.loads(path.read_text())
        del artifact["result"]["per_flow_mbps"]
        path.write_text(json.dumps(artifact))
        assert cache.get(run) is None

    @pytest.mark.parametrize("field", ["per_flow_mbps", "qoe_per_class"])
    @pytest.mark.parametrize("garbage", [[], None, "x", 3])
    def test_non_object_field_is_a_miss(self, tmp_path, field, garbage):
        """Valid JSON that is not an object where a mapping belongs once
        escaped ``get`` as an ``AttributeError`` and killed the sweep."""
        cache = ResultCache(tmp_path)
        run = _cell(name="ring-uniform", horizon=8.0, warmup=2.0)
        path = cache.put(run, self._result(run))
        artifact = json.loads(path.read_text())
        artifact["result"][field] = garbage
        with pytest.raises(TypeError, match=field):
            ScenarioResult.from_dict(artifact["result"])
        path.write_text(json.dumps(artifact))
        assert cache.get(run) is None
        assert cache.stats.misses == 1

    def test_engine_overwrites_a_garbled_artifact(self, tmp_path):
        spec = SweepSpec(
            scenarios=("ring-uniform",),
            seeds=(0,),
            backends=("fluid",),
            overrides={"horizon": 8.0, "warmup": 2.0},
        )
        (run,) = spec.expand()
        first = SweepEngine(spec, cache=ResultCache(tmp_path)).run()
        path = ResultCache(tmp_path).path(run)
        artifact = json.loads(path.read_text())
        artifact["result"]["per_flow_mbps"] = []
        path.write_text(json.dumps(artifact))
        again = SweepEngine(spec, cache=ResultCache(tmp_path)).run()
        assert (again.cache_hits, again.executed) == (0, 1)
        assert again.results == first.results
        assert ResultCache(tmp_path).get(run) == first.results[0]

    def test_hit_rate(self, tmp_path):
        cache = ResultCache(tmp_path)
        run = _cell(horizon=8.0, warmup=2.0)
        assert cache.stats.hit_rate() == 0.0
        cache.get(run)
        cache.put(run, self._result(run))
        cache.get(run)
        assert cache.stats.hit_rate() == 0.5
        assert "1/2" in cache.stats.summary()
