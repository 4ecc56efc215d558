"""Structural checks on the synthetic UQ wireless dataset (Fig. 5b)."""

import numpy as np
import pytest

from repro.datasets import generate_uq_wireless
from repro.datasets.uq_wireless import INDOOR_END_S, TRANSITION_END_S


class TestGeneratorStructure:
    def test_default_shape(self):
        ds = generate_uq_wireless()
        assert ds.n_samples == 500
        assert ds.time.shape == ds.wifi.shape == ds.lte.shape
        assert np.array_equal(ds.time, np.arange(500.0))

    def test_non_negative_bandwidth(self):
        ds = generate_uq_wireless()
        assert (ds.wifi >= 0).all()
        assert (ds.lte >= 0).all()

    def test_indoor_wifi_beats_lte(self):
        """Fig. 5b: indoors WiFi is strong and LTE poor."""
        ds = generate_uq_wireless()
        indoor = ds.time < INDOOR_END_S
        assert ds.wifi[indoor].mean() > 3.0 * ds.lte[indoor].mean()

    def test_outdoor_crossover(self):
        """Fig. 5b: outdoors LTE overtakes the degraded WiFi."""
        ds = generate_uq_wireless()
        outdoor = ds.time >= TRANSITION_END_S
        assert ds.lte[outdoor].mean() > ds.wifi[outdoor].mean()

    def test_outdoor_wifi_is_bursty(self):
        ds = generate_uq_wireless()
        outdoor = ds.time >= TRANSITION_END_S
        indoor = ds.time < INDOOR_END_S
        # coefficient of variation much higher outdoors
        cv_out = ds.wifi[outdoor].std() / ds.wifi[outdoor].mean()
        cv_in = ds.wifi[indoor].std() / ds.wifi[indoor].mean()
        assert cv_out > 2.0 * cv_in

    def test_wifi_outages_present_outdoors(self):
        ds = generate_uq_wireless()
        outdoor = ds.time >= TRANSITION_END_S
        assert (ds.wifi[outdoor] < 5.0).mean() > 0.05

    def test_deterministic_per_seed(self):
        a = generate_uq_wireless(seed=5)
        b = generate_uq_wireless(seed=5)
        assert np.array_equal(a.wifi, b.wifi)
        assert np.array_equal(a.lte, b.lte)

    def test_seeds_differ(self):
        a = generate_uq_wireless(seed=5)
        b = generate_uq_wireless(seed=6)
        assert not np.array_equal(a.wifi, b.wifi)

    def test_custom_duration(self):
        ds = generate_uq_wireless(duration_s=300, indoor_end_s=60, transition_end_s=90)
        assert ds.n_samples == 300

    def test_invalid_segments(self):
        with pytest.raises(ValueError):
            generate_uq_wireless(indoor_end_s=400, transition_end_s=300)
        with pytest.raises(ValueError):
            generate_uq_wireless(duration_s=100, indoor_end_s=100, transition_end_s=140)


class TestDatasetApi:
    def test_path_accessor(self):
        ds = generate_uq_wireless()
        assert np.array_equal(ds.path(1), ds.wifi)  # Path 1 = WiFi
        assert np.array_equal(ds.path(2), ds.lte)  # Path 2 = LTE
        with pytest.raises(ValueError):
            ds.path(3)
