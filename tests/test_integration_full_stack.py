"""Cross-package integration: the whole reproduction wired together."""

import numpy as np

from repro.datasets import generate_uq_wireless
from repro.framework import SelfDrivingNetwork
from repro.hecate import (
    QoSPredictor,
    evaluate_pipeline,
    run_tournament,
)
from repro.ml import (
    StandardScaler,
    make_lag_matrix,
    make_regressor,
    root_mean_squared_error,
)
from repro.topologies import TUNNEL1, TUNNEL2, fig12_capacities, global_p4_lab


class TestTournamentWinnerDrivesFramework:
    def test_selected_model_runs_the_loop(self):
        """The paper's pipeline end-to-end: tournament selects a model on
        a cheap subset, and that exact model class drives the framework's
        placement decision."""
        ds = generate_uq_wireless()
        tournament = run_tournament(ds, entrants=["R11", "R14", "R10"])
        best_id = tournament.best().paper_id

        def factory():
            return make_regressor(best_id)

        sdn = SelfDrivingNetwork(
            global_p4_lab(rates=fig12_capacities()), model_factory=factory
        )
        sdn.add_tunnel("T1", 1, TUNNEL1)
        sdn.add_tunnel("T2", 2, TUNNEL2)
        sdn.run(until=35.0)
        result = sdn.request_flow(flow_name="f", src="host1", dst="host2",
                                  protocol="tcp", tos=32, duration=5.0)
        assert result["controller"]["ok"]
        assert sdn.flow("f").tunnel == "T1"


class TestLagForecast:
    def test_lag_regression_extrapolates_the_trend(self):
        """The lag pipeline continues a linear series."""
        series = 10.0 + 0.05 * np.arange(200)
        lag = QoSPredictor(make_regressor("R11"), n_lags=5).fit(series)
        lag_f = lag.forecast(series, steps=10)
        assert lag_f.shape == (10,)
        # within a Mbps of the series' own continuation
        assert np.allclose(lag_f, 10.0 + 0.05 * np.arange(200, 210), atol=1.0)


class TestPipelineMatchesPaperProtocol:
    def test_evaluate_pipeline_reproduces_manual_steps(self):
        """The paper's protocol done by hand (75/25 time-ordered split,
        scaler fit on the training split only, 10 lags within each split,
        RMSE back in Mbps) is exactly what ``evaluate_pipeline`` scores."""
        series = generate_uq_wireless().lte
        train, test = series[:375], series[375:]
        scaler = StandardScaler().fit(train.reshape(-1, 1))

        def scaled(part):
            return scaler.transform(part.reshape(-1, 1)).ravel()

        def mbps(values):
            return scaler.inverse_transform(values.reshape(-1, 1)).ravel()

        X, y = make_lag_matrix(scaled(train), 10)
        X_test, y_test = make_lag_matrix(scaled(test), 10)
        model = make_regressor("R14").fit(X, y)
        manual = root_mean_squared_error(
            mbps(y_test), mbps(model.predict(X_test))
        )
        result = evaluate_pipeline(series, make_regressor("R14"))
        assert result.test_start_index == 375 + 10
        assert result.rmse == manual


class TestStressTopology:
    def test_framework_scales_to_wider_fanout(self):
        """Beyond Fig. 9: five parallel tunnels, five flows, one pass of
        the joint optimizer — no oscillation, capacity respected."""
        from repro.net import Network
        from repro.ml import LinearRegression

        net = Network()
        net.add_host("h1", ip="10.0.1.2")
        net.add_host("h2", ip="10.0.2.2")
        net.add_router("IN", edge=True)
        net.add_router("OUT", edge=True)
        rates = [25.0, 20.0, 15.0, 10.0, 5.0]
        for i, rate in enumerate(rates):
            net.add_router(f"M{i}")
            net.add_link("IN", f"M{i}", rate_mbps=rate, delay_ms=2.0)
            net.add_link(f"M{i}", "OUT", rate_mbps=rate, delay_ms=2.0)
        net.add_link("h1", "IN", rate_mbps=1000.0)
        net.add_link("OUT", "h2", rate_mbps=1000.0)
        net.build()

        sdn = SelfDrivingNetwork(net, model_factory=LinearRegression)
        for i in range(5):
            sdn.add_tunnel(f"P{i}", i + 1, ["IN", f"M{i}", "OUT"])
        sdn.run(until=35.0)
        for i in range(5):
            sdn.request_flow(flow_name=f"f{i}", src="h1", dst="h2",
                             protocol="tcp", tos=32 + i, duration=40.0)
        sdn.run(until=45.0)
        sdn.controller.reoptimize_now()
        sdn.run(until=75.0)
        tunnels = [sdn.flow(f"f{i}").tunnel for i in range(5)]
        assert len(set(tunnels)) == 5  # one flow per tunnel is optimal
        total = sum(
            sdn.flow(f"f{i}").app.goodput_mbps(55.0, 70.0) for i in range(5)
        )
        assert total > 0.75 * sum(rates)
