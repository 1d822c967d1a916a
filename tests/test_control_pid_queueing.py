"""Unit tests for the PID controller and queueing formulas."""

import math

import pytest
from hypothesis import example, given, strategies as st

from repro.control import (
    PIDController,
    erlang_c,
    mm1_response_time,
    mm1_utilization,
    mmc_response_time,
    mmc_wait_time,
    servers_for_response_time,
)


# ----------------------------------------------------------------------
# PID
# ----------------------------------------------------------------------
def test_pid_validation():
    with pytest.raises(ValueError):
        PIDController(kp=1.0, output_min=1.0, output_max=0.0)
    pid = PIDController(kp=1.0)
    with pytest.raises(ValueError):
        pid.update(0.0, dt=0.0)


def test_proportional_action():
    pid = PIDController(kp=2.0, setpoint=10.0)
    assert pid.update(7.0, dt=1.0) == pytest.approx(6.0)  # error 3 * kp 2


def test_integral_accumulates():
    pid = PIDController(kp=0.0, ki=1.0, setpoint=1.0)
    assert pid.update(0.0, dt=1.0) == pytest.approx(1.0)
    assert pid.update(0.0, dt=1.0) == pytest.approx(2.0)


def test_derivative_damps():
    pid = PIDController(kp=0.0, kd=1.0, setpoint=0.0)
    pid.update(0.0, dt=1.0)
    # Error went from 0 to -5: derivative = -5.
    assert pid.update(5.0, dt=1.0) == pytest.approx(-5.0)


def test_output_clamped():
    pid = PIDController(kp=100.0, setpoint=10.0, output_min=-1.0,
                        output_max=1.0)
    assert pid.update(0.0, dt=1.0) == 1.0
    assert pid.update(20.0, dt=1.0) == -1.0


def test_anti_windup_freezes_integral():
    pid = PIDController(kp=0.0, ki=1.0, setpoint=1.0,
                        output_min=-0.5, output_max=0.5)
    for _ in range(100):
        pid.update(0.0, dt=1.0)  # saturated at 0.5 the whole time
    # Flip the error: recovery must be immediate, not delayed by a
    # hundred accumulated error-seconds.
    out = pid.update(2.0, dt=1.0)
    assert out < 0.5


def test_reset_clears_memory():
    pid = PIDController(kp=0.0, ki=1.0, kd=1.0, setpoint=1.0)
    pid.update(0.0, dt=1.0)
    pid.reset()
    assert pid.update(0.0, dt=1.0) == pytest.approx(1.0)


# ----------------------------------------------------------------------
# M/M/1
# ----------------------------------------------------------------------
def test_mm1_utilization():
    assert mm1_utilization(50.0, 100.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        mm1_utilization(1.0, 0.0)
    with pytest.raises(ValueError):
        mm1_utilization(-1.0, 1.0)


def test_mm1_response_time_formula():
    assert mm1_response_time(50.0, 100.0) == pytest.approx(1.0 / 50.0)


def test_mm1_saturation_capped():
    assert mm1_response_time(100.0, 100.0, saturation_cap_s=9.0) == 9.0
    assert mm1_response_time(200.0, 100.0) == float("inf")


def test_mm1_response_time_explodes_near_saturation():
    low = mm1_response_time(10.0, 100.0)
    high = mm1_response_time(99.0, 100.0)
    assert high > 50 * low


# ----------------------------------------------------------------------
# Erlang-C / M/M/c
# ----------------------------------------------------------------------
def test_erlang_c_validation():
    with pytest.raises(ValueError):
        erlang_c(0, 1.0)
    with pytest.raises(ValueError):
        erlang_c(1, -1.0)


def test_erlang_c_single_server_equals_rho():
    """For c=1 the waiting probability is the utilization."""
    assert erlang_c(1, 0.3) == pytest.approx(0.3)
    assert erlang_c(1, 0.8) == pytest.approx(0.8)


def test_erlang_c_overload_is_one():
    assert erlang_c(4, 5.0) == 1.0


def test_erlang_c_known_value():
    """Classic call-center check: c=10, a=8 erlangs → P(wait) ≈ 0.409."""
    assert erlang_c(10, 8.0) == pytest.approx(0.409, abs=0.005)


def test_mmc_matches_mm1_for_single_server():
    assert mmc_response_time(1, 50.0, 100.0) \
        == pytest.approx(mm1_response_time(50.0, 100.0))


def test_mmc_wait_decreases_with_servers():
    waits = [mmc_wait_time(c, 80.0, 10.0) for c in range(9, 15)]
    assert all(a > b for a, b in zip(waits, waits[1:]))


def test_mmc_overload_infinite_wait():
    assert mmc_wait_time(4, 100.0, 10.0) == float("inf")


def test_mmc_wait_infinite_when_spare_rate_rounds_to_zero():
    """λ/μ rounds to just below c while c·μ − λ rounds to exactly 0."""
    lam, mu = 32.632372829495836, 1.4187988186737321
    assert lam / mu < 23 and 23 * mu - lam == 0.0
    assert mmc_wait_time(23, lam, mu) == float("inf")
    assert servers_for_response_time(lam, mu, 2.0 / mu) > 23


def test_servers_for_response_time_basic():
    c = servers_for_response_time(arrival_rate=80.0, service_rate=10.0,
                                  target_s=0.15)
    assert mmc_response_time(c, 80.0, 10.0) <= 0.15
    assert mmc_response_time(c - 1, 80.0, 10.0) > 0.15


def test_servers_for_response_time_infeasible_target():
    with pytest.raises(ValueError):
        servers_for_response_time(10.0, 10.0, target_s=0.01)
    with pytest.raises(ValueError):
        servers_for_response_time(10.0, 10.0, target_s=0.0)


@given(c=st.integers(min_value=1, max_value=30),
       a=st.floats(min_value=0.01, max_value=25.0))
def test_erlang_c_is_probability_property(c, a):
    p = erlang_c(c, a)
    assert 0.0 <= p <= 1.0


@given(lam=st.floats(min_value=1.0, max_value=50.0),
       mu=st.floats(min_value=1.0, max_value=10.0))
@example(lam=32.632372829495836, mu=1.4187988186737321)
def test_provisioning_monotone_in_load_property(lam, mu):
    """More traffic never needs fewer servers."""
    target = 2.0 / mu  # always feasible
    c_low = servers_for_response_time(lam, mu, target)
    c_high = servers_for_response_time(lam * 1.5, mu, target)
    assert c_high >= c_low
