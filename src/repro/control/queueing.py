"""Queueing-theoretic models (paper §5.1: "queuing theory ... plays
important roles").

Closed forms for M/M/1 and M/M/c (Erlang-C), plus the inverse problem
provisioning controllers actually solve: how many servers keep mean
response time (or wait probability) under a target.
"""

from __future__ import annotations

import math

__all__ = [
    "mm1_response_time",
    "mm1_utilization",
    "erlang_c",
    "mmc_wait_time",
    "mmc_response_time",
    "servers_for_response_time",
]


def mm1_utilization(arrival_rate: float, service_rate: float) -> float:
    """ρ = λ/μ for a single server."""
    if service_rate <= 0:
        raise ValueError("service rate must be positive")
    if arrival_rate < 0:
        raise ValueError("arrival rate cannot be negative")
    return arrival_rate / service_rate


def mm1_response_time(arrival_rate: float, service_rate: float,
                      saturation_cap_s: float = float("inf")) -> float:
    """Mean sojourn time of M/M/1: 1/(μ−λ).

    At or beyond saturation the true value is infinite; callers that
    feed controllers prefer a large finite cap so the loop still gets
    a usable error signal — pass ``saturation_cap_s`` for that.
    """
    if service_rate <= 0:
        raise ValueError("service rate must be positive")
    if arrival_rate < 0:
        raise ValueError("arrival rate cannot be negative")
    if arrival_rate >= service_rate:
        return saturation_cap_s
    return min(1.0 / (service_rate - arrival_rate), saturation_cap_s)


def erlang_c(servers: int, offered_load: float) -> float:
    """Probability an arrival waits in M/M/c (Erlang-C formula).

    ``offered_load`` is a = λ/μ in erlangs.  Requires a < c for a
    stable queue; returns 1.0 when overloaded.
    """
    if servers < 1:
        raise ValueError("need at least one server")
    if offered_load < 0:
        raise ValueError("offered load cannot be negative")
    if offered_load >= servers:
        return 1.0
    # Sum via stable iterative computation of the Erlang-B recursion,
    # then convert B -> C.
    b = 1.0
    for k in range(1, servers + 1):
        b = offered_load * b / (k + offered_load * b)
    rho = offered_load / servers
    return b / (1.0 - rho + rho * b)


def mmc_wait_time(servers: int, arrival_rate: float,
                  service_rate: float) -> float:
    """Mean queueing delay (excluding service) of M/M/c.

    Unstable queues (a = λ/μ ≥ c) wait forever.  At the boundary the
    ratio test and the spare rate ``c·μ − λ`` can disagree in floating
    point (a rounds just below c while the spare rate rounds to 0), so
    a non-positive spare rate counts as unstable too.
    """
    if service_rate <= 0:
        raise ValueError("service rate must be positive")
    a = arrival_rate / service_rate
    spare_rate = servers * service_rate - arrival_rate
    if a >= servers or spare_rate <= 0.0:
        return float("inf")
    pw = erlang_c(servers, a)
    return pw / spare_rate


def mmc_response_time(servers: int, arrival_rate: float,
                      service_rate: float) -> float:
    """Mean sojourn time of M/M/c (wait + service)."""
    wait = mmc_wait_time(servers, arrival_rate, service_rate)
    return wait + 1.0 / service_rate


def servers_for_response_time(arrival_rate: float, service_rate: float,
                              target_s: float, max_servers: int = 100_000
                              ) -> int:
    """Fewest servers keeping M/M/c mean response time ≤ target.

    The provisioning primitive: On/Off controllers call this with the
    forecast arrival rate.  Raises if even ``max_servers`` cannot meet
    the target (target below the bare service time).
    """
    if target_s <= 0:
        raise ValueError("target must be positive")
    if 1.0 / service_rate > target_s:
        raise ValueError(
            f"target {target_s}s is below the service time "
            f"{1.0 / service_rate}s; no server count can meet it")
    # Lower bound from stability, then linear scan (response time is
    # monotone decreasing in c, and the scan is short in practice).
    c = max(1, math.ceil(arrival_rate / service_rate))
    while c <= max_servers:
        if mmc_response_time(c, arrival_rate, service_rate) <= target_s:
            return c
        c += 1
    raise ValueError(f"no server count up to {max_servers} meets the target")
