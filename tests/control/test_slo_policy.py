"""SLOPolicy: validation and the hysteresis thresholds."""

import pytest

from repro.control import SLOPolicy
from repro.errors import ConfigurationError


def test_validation():
    with pytest.raises(ConfigurationError):
        SLOPolicy(latency_slo_ms=0.0)
    with pytest.raises(ConfigurationError):
        SLOPolicy(latency_slo_ms=-5.0)
    with pytest.raises(ConfigurationError):
        SLOPolicy(latency_slo_ms=float("nan"))
    with pytest.raises(ConfigurationError):
        SLOPolicy(latency_slo_ms=10.0, energy_budget_uj=0.0)
    with pytest.raises(ConfigurationError):
        SLOPolicy(latency_slo_ms=10.0, accuracy_floor=1.5)
    with pytest.raises(ConfigurationError):
        SLOPolicy(latency_slo_ms=10.0, recover_ratio=1.0)
    with pytest.raises(ConfigurationError):
        SLOPolicy(latency_slo_ms=10.0, breach_windows=0)
    with pytest.raises(ConfigurationError):
        SLOPolicy(latency_slo_ms=10.0, cooldown_windows=0)


def test_infinite_slo_is_legal():
    # a tuner that only ever moves on energy is built this way
    policy = SLOPolicy(latency_slo_ms=float("inf"))
    assert not policy.breached(1e12)


def test_breach_and_recover_thresholds():
    policy = SLOPolicy(latency_slo_ms=100.0, recover_ratio=0.7)
    assert policy.breached(100.1)
    assert not policy.breached(100.0)      # SLO is inclusive
    assert policy.healthy(70.0)            # at the recover threshold
    assert not policy.healthy(70.1)        # inside the dead band
    # the dead band: neither breached nor healthy
    assert not policy.breached(85.0) and not policy.healthy(85.0)


def test_energy_budget():
    unbudgeted = SLOPolicy(latency_slo_ms=10.0)
    assert not unbudgeted.over_energy(1e9)
    budgeted = SLOPolicy(latency_slo_ms=10.0, energy_budget_uj=50.0)
    assert budgeted.over_energy(50.1)
    assert not budgeted.over_energy(50.0)
