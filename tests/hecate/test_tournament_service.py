"""Tournament (Fig. 6 shape) and the HecateService bus interface.

The tournament tests pin the *qualitative* findings the paper reports:
which family wins, who is excluded, who trails — not absolute RMSE.
"""

import numpy as np
import pytest

from repro.bus import MessageBus
from repro.datasets import generate_uq_wireless
from repro.hecate import (
    ASK_PATH_BATCH_TOPIC,
    ASK_PATH_TOPIC,
    HecateService,
    PAPER_FIG6_RMSE,
    run_tournament,
)
from repro.ml import LinearRegression
from repro.net.telemetry import TimeSeriesDB


@pytest.fixture(scope="module")
def tournament():
    """One full 18-regressor tournament on the default dataset (shared
    across tests in this module; ~1 minute of model fitting)."""
    return run_tournament(generate_uq_wireless())


class TestTournamentShape:
    def test_all_18_entrants_scored(self, tournament):
        assert len(tournament.entries) == 18
        for e in tournament.entries:
            assert np.isfinite(e.rmse_wifi) and np.isfinite(e.rmse_lte)

    def test_rfr_is_selected_like_the_paper(self, tournament):
        assert tournament.best().label == "RFR"

    def test_rfr_and_gbr_lead_on_wifi(self, tournament):
        """Paper: 'RFR and GBR are the best regression models with the
        lowest RMSE' — in Fig. 6 the separation happens on the WiFi axis
        (WiFi spread 14-23.5 vs LTE spread 6.3-8.3)."""
        included = [e for e in tournament.entries if e.paper_id not in tournament.excluded]
        by_wifi = sorted(included, key=lambda e: e.rmse_wifi)
        assert {by_wifi[0].label, by_wifi[1].label} == {"RFR", "GBR"}

    def test_gpr_excluded_for_being_off_scale(self, tournament):
        """Paper: 'GPR is excluded from the scatter plot due to the high
        RMSE values'."""
        assert "R7" in tournament.excluded
        gpr = tournament.entry("R7")
        others_wifi = [e.rmse_wifi for e in tournament.entries if e.paper_id != "R7"]
        assert gpr.rmse_wifi > 2.0 * np.median(others_wifi)

    def test_gpr_worst_overall(self, tournament):
        worst = max(tournament.entries, key=lambda e: e.distance_to_origin)
        assert worst.paper_id == "R7"

    def test_lasso_and_elasticnet_trail_on_wifi(self, tournament):
        """Paper Fig. 6: Lasso (23.46) and ElasticNet (22.39) sit far
        right on the WiFi axis."""
        lasso = tournament.entry("R10").rmse_wifi
        enet = tournament.entry("R5").rmse_wifi
        included = [
            e.rmse_wifi for e in tournament.entries
            if e.paper_id not in tournament.excluded
        ]
        threshold = np.percentile(included, 75)
        assert lasso > threshold
        assert enet > threshold

    def test_scatter_omits_excluded(self, tournament):
        labels = [p[0] for p in tournament.scatter_points()]
        assert "GPR" not in labels
        assert len(labels) == 18 - len(tournament.excluded)

    def test_paper_reference_table_complete(self):
        assert set(PAPER_FIG6_RMSE) == {f"R{i}" for i in range(1, 19)}

    def test_unknown_entry_lookup(self, tournament):
        with pytest.raises(KeyError):
            tournament.entry("R99")


class TestTournamentOptions:
    def test_subset_of_entrants(self):
        ds = generate_uq_wireless()
        result = run_tournament(ds, entrants=["R11", "R14"])
        assert [e.paper_id for e in result.entries] == ["R11", "R14"]

    def test_entrants_by_label_or_id(self):
        ds = generate_uq_wireless()
        mixed = run_tournament(ds, entrants=["LR", "R14"])
        by_id = run_tournament(ds, entrants=["R11", "R14"])
        assert [e.label for e in mixed.entries] == ["LR", "Ridge"]
        assert mixed.entries == by_id.entries

    def test_unknown_entrant_lists_the_roster(self):
        with pytest.raises(
            KeyError, match=r"unknown regressor 'R99'.*R13 \(RFR\)"
        ):
            run_tournament(generate_uq_wireless(), entrants=["R99"])

    def test_gpr_standard_mode_is_less_catastrophic(self):
        ds = generate_uq_wireless()
        paper_mode = run_tournament(ds, entrants=["R7"], gpr_paper_mode=True)
        standard = run_tournament(ds, entrants=["R7"], gpr_paper_mode=False)
        assert (
            standard.entry("R7").rmse_lte < paper_mode.entry("R7").rmse_lte
        )


def seeded_db(paths=("T1", "T2"), n=60, levels=(5.0, 15.0)):
    """Telemetry history where T2 consistently has more headroom."""
    db = TimeSeriesDB()
    rng = np.random.default_rng(0)
    for path, level in zip(paths, levels):
        for t in range(n):
            db.insert(f"path:{path}:available_mbps", float(t),
                      level + rng.normal(scale=0.3))
            db.insert(f"path:{path}:latency_ms", float(t), 100.0 - level)
            db.insert(f"path:{path}:util", float(t), 1.0 - level / 20.0)
    return db


class TestHecateService:
    def test_recommends_path_with_most_headroom(self):
        service = HecateService(seeded_db(), model_factory=LinearRegression)
        rec = service.recommend(["T1", "T2"])
        assert rec.path == "T2"
        assert rec.trained
        assert set(rec.forecasts) == {"T1", "T2"}
        assert len(rec.forecasts["T2"]) == 10

    def test_min_latency_objective(self):
        service = HecateService(seeded_db(), model_factory=LinearRegression)
        rec = service.recommend(["T1", "T2"], objective="min_latency")
        assert rec.path == "T2"  # latency = 100 - level

    def test_cold_start_falls_back_to_last_value(self):
        db = TimeSeriesDB()
        for t in range(5):  # too little to train
            db.insert("path:T1:available_mbps", float(t), 3.0)
            db.insert("path:T2:available_mbps", float(t), 9.0)
        service = HecateService(db, model_factory=LinearRegression)
        rec = service.recommend(["T1", "T2"])
        assert rec.path == "T2"
        assert not rec.trained
        assert rec.forecasts["T2"] == [9.0] * 10

    def test_unknown_path_raises(self):
        service = HecateService(seeded_db(), model_factory=LinearRegression)
        with pytest.raises(KeyError):
            service.recommend(["nope"])

    def test_unknown_objective_raises(self):
        service = HecateService(seeded_db(), model_factory=LinearRegression)
        with pytest.raises(ValueError):
            service.recommend(["T1"], objective="fastest")

    def test_forecast_cache_skips_refit_until_new_sample(self):
        """Forecasts are cached on the store cursor: asking about an
        unchanged series (e.g. many placements within one telemetry
        interval) reuses the fitted forecast; one new sample refits."""
        db = seeded_db()
        service = HecateService(db, model_factory=LinearRegression)
        first = service.forecast_path("T1")
        assert service.fits == 1
        again = service.forecast_path("T1")
        assert again is first  # identical history -> cached object
        assert service.fits == 1
        assert service.forecast_cache_hits == 1
        db.insert("path:T1:available_mbps", 60.0, 5.0)
        refreshed = service.forecast_path("T1")
        assert refreshed is not first
        assert service.fits == 2

    def test_forecast_cache_keyed_on_horizon(self):
        service = HecateService(seeded_db(), model_factory=LinearRegression)
        short = service.forecast_path("T1", horizon=10)
        long = service.forecast_path("T1", horizon=20)
        assert len(short.available_mbps) == 10
        assert len(long.available_mbps) == 20
        assert service.fits == 2  # different horizon -> its own fit
        # alternating horizons must not evict each other's entries
        assert service.forecast_path("T1", horizon=10) is short
        assert service.forecast_path("T1", horizon=20) is long
        assert service.fits == 2
        assert service.forecast_cache_hits == 2

    def test_bus_interface(self):
        bus = MessageBus()
        HecateService(seeded_db(), bus=bus, model_factory=LinearRegression)
        replies = bus.request(ASK_PATH_TOPIC, paths=["T1", "T2"])
        assert len(replies) == 1
        assert replies[0]["ok"] and replies[0]["path"] == "T2"

    def test_bus_errors_reported_in_reply(self):
        bus = MessageBus()
        HecateService(seeded_db(), bus=bus, model_factory=LinearRegression)
        replies = bus.request(ASK_PATH_TOPIC, paths=["ghost"])
        assert replies[0]["ok"] is False

    def test_forecasts_are_non_negative(self):
        db = TimeSeriesDB()
        rng = np.random.default_rng(1)
        for t in range(80):  # headroom trending to zero
            db.insert("path:T1:available_mbps", float(t),
                      max(0.0, 8.0 - 0.1 * t) + rng.normal(scale=0.2))
        service = HecateService(db, model_factory=LinearRegression)
        forecast = service.forecast_path("T1", horizon=20)
        assert (forecast.available_mbps >= 0.0).all()


def ask_batch(service_bus, groups):
    """One ``hecate.ask_path_batch`` round-trip; the per-group entries."""
    replies = service_bus.request(ASK_PATH_BATCH_TOPIC, groups=groups)
    assert len(replies) == 1 and replies[0]["ok"]
    return replies[0]["recommendations"]


class TestHecateBatchRecommendations:
    def test_one_recommendation_per_group(self):
        bus = MessageBus()
        HecateService(seeded_db(), bus=bus, model_factory=LinearRegression)
        recs = ask_batch(bus, [
            {"paths": ["T1", "T2"], "objective": "max_bandwidth"},
            {"paths": ["T1", "T2"], "objective": "min_latency"},
        ])
        assert [r["path"] for r in recs] == ["T2", "T2"]
        assert [r["objective"] for r in recs] == [
            "max_bandwidth", "min_latency",
        ]

    def test_batch_matches_individual_recommendations(self):
        bus = MessageBus()
        HecateService(seeded_db(), bus=bus, model_factory=LinearRegression)
        single = HecateService(seeded_db(), model_factory=LinearRegression)
        groups = [{"paths": ["T1", "T2"]}, {"paths": ["T2"]}]
        for group, rec in zip(groups, ask_batch(bus, groups)):
            alone = single.recommend(group["paths"])
            assert rec["path"] == alone.path
            assert rec["forecasts"] == alone.forecasts

    def test_shared_paths_forecast_once(self):
        """The point of batching: a tunnel shared by N groups is fitted
        once, not N times."""
        calls = []
        bus = MessageBus()
        service = HecateService(
            seeded_db(), bus=bus, model_factory=LinearRegression
        )
        original = service.forecast_path

        def counting(path, horizon=10):
            calls.append(path)
            return original(path, horizon=horizon)

        service.forecast_path = counting
        ask_batch(bus, [
            {"paths": ["T1", "T2"]},
            {"paths": ["T1", "T2"]},
            {"paths": ["T2"]},
        ])
        assert sorted(calls) == ["T1", "T2"]

    def test_bus_batch_interface(self):
        bus = MessageBus()
        HecateService(seeded_db(), bus=bus, model_factory=LinearRegression)
        replies = bus.request(
            ASK_PATH_BATCH_TOPIC,
            groups=[{"paths": ["T1", "T2"]}, {"paths": ["T1"]}],
        )
        assert len(replies) == 1 and replies[0]["ok"]
        recs = replies[0]["recommendations"]
        assert all(r["ok"] for r in recs)
        assert [r["path"] for r in recs] == ["T2", "T1"]

    def test_bus_batch_isolates_group_failures(self):
        """A group whose forecast fails (no telemetry for its tunnel)
        must not void the other groups' recommendations."""
        bus = MessageBus()
        HecateService(seeded_db(), bus=bus, model_factory=LinearRegression)
        replies = bus.request(
            ASK_PATH_BATCH_TOPIC,
            groups=[{"paths": ["T1", "T2"]},
                    {"paths": ["ghost"]},
                    {"paths": ["T2"]}],
        )
        assert replies[0]["ok"]
        healthy, broken, alone = replies[0]["recommendations"]
        assert healthy["ok"] and healthy["path"] == "T2"
        assert broken["ok"] is False and "ghost" in broken["error"]
        assert alone["ok"] and alone["path"] == "T2"

    def test_bus_batch_empty_rejected(self):
        bus = MessageBus()
        HecateService(seeded_db(), bus=bus, model_factory=LinearRegression)
        replies = bus.request(ASK_PATH_BATCH_TOPIC, groups=[])
        assert replies[0]["ok"] is False
