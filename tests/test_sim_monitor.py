"""Unit tests for Monitor / CounterMonitor, plus hypothesis properties."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sim import CounterMonitor, Environment, Monitor


def test_empty_monitor_statistics():
    env = Environment()
    mon = Monitor(env)
    assert math.isnan(mon.last)
    assert mon.integral() == 0.0
    assert math.isnan(mon.time_weighted_mean())
    assert math.isnan(mon.maximum())


def test_record_and_last():
    env = Environment()
    mon = Monitor(env)
    mon.record(5.0, time=0.0)
    mon.record(7.0, time=2.0)
    assert mon.last == 7.0
    assert len(mon) == 2


def test_out_of_order_record_rejected():
    env = Environment()
    mon = Monitor(env)
    mon.record(1.0, time=10.0)
    with pytest.raises(ValueError):
        mon.record(2.0, time=5.0)


def test_same_instant_update_overwrites():
    env = Environment()
    mon = Monitor(env)
    mon.record(1.0, time=3.0)
    mon.record(9.0, time=3.0)
    assert len(mon) == 1
    assert mon.last == 9.0


def test_value_at_step_semantics():
    env = Environment()
    mon = Monitor(env)
    mon.record(10.0, time=0.0)
    mon.record(20.0, time=5.0)
    assert mon.value_at(0.0) == 10.0
    assert mon.value_at(4.999) == 10.0
    assert mon.value_at(5.0) == 20.0
    assert math.isnan(mon.value_at(-1.0))


def test_integral_of_constant_signal():
    env = Environment()
    mon = Monitor(env)
    mon.record(100.0, time=0.0)
    assert mon.integral(0.0, 10.0) == pytest.approx(1000.0)


def test_integral_of_step_signal():
    env = Environment()
    mon = Monitor(env)
    mon.record(100.0, time=0.0)
    mon.record(200.0, time=5.0)
    # 5 s at 100 plus 5 s at 200.
    assert mon.integral(0.0, 10.0) == pytest.approx(1500.0)


def test_integral_sub_interval():
    env = Environment()
    mon = Monitor(env)
    mon.record(100.0, time=0.0)
    mon.record(200.0, time=5.0)
    assert mon.integral(4.0, 6.0) == pytest.approx(100.0 + 200.0)


def test_time_weighted_mean():
    env = Environment()
    mon = Monitor(env)
    mon.record(0.0, time=0.0)
    mon.record(10.0, time=5.0)
    assert mon.time_weighted_mean(0.0, 10.0) == pytest.approx(5.0)


def test_resample_grid_and_values():
    env = Environment()
    mon = Monitor(env)
    mon.record(1.0, time=0.0)
    mon.record(2.0, time=10.0)
    grid, vals = mon.resample(step=5.0, start=0.0, end=10.0)
    assert list(grid) == [0.0, 5.0, 10.0]
    assert list(vals) == [1.0, 1.0, 2.0]


def test_resample_requires_positive_step():
    env = Environment()
    mon = Monitor(env)
    mon.record(1.0, time=0.0)
    with pytest.raises(ValueError):
        mon.resample(step=0.0)


def test_counter_monitor_inc_dec():
    env = Environment()
    counter = CounterMonitor(env, initial=5)
    counter.increment()
    counter.increment(2)
    counter.decrement(3)
    assert counter.last == 5


def test_monitor_inside_simulation():
    env = Environment()
    mon = Monitor(env, "power")

    def proc(env, mon):
        mon.record(100.0)
        yield env.timeout(10.0)
        mon.record(50.0)
        yield env.timeout(10.0)

    env.process(proc(env, mon))
    env.run()
    assert mon.integral() == pytest.approx(100.0 * 10 + 50.0 * 10)


# ----------------------------------------------------------------------
# Property-based invariants
# ----------------------------------------------------------------------
@given(
    values=st.lists(
        st.floats(min_value=-1e6, max_value=1e6,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=30),
)
def test_integral_additivity_property(values):
    """∫[a,c] = ∫[a,b] + ∫[b,c] for any split point b."""
    env = Environment()
    mon = Monitor(env)
    for i, v in enumerate(values):
        mon.record(v, time=float(i))
    end = float(len(values))
    mid = end / 2
    whole = mon.integral(0.0, end)
    parts = mon.integral(0.0, mid) + mon.integral(mid, end)
    assert whole == pytest.approx(parts, rel=1e-9, abs=1e-6)


@given(
    values=st.lists(
        st.floats(min_value=0.0, max_value=1e6,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=30),
)
def test_mean_bounded_by_extremes_property(values):
    """Time-weighted mean always lies within [min, max] of the samples."""
    env = Environment()
    mon = Monitor(env)
    for i, v in enumerate(values):
        mon.record(v, time=float(i))
    mean = mon.time_weighted_mean(0.0, float(len(values)))
    assert min(values) - 1e-9 <= mean <= max(values) + 1e-9


@given(
    step=st.floats(min_value=0.1, max_value=5.0),
    values=st.lists(
        st.floats(min_value=-100, max_value=100,
                  allow_nan=False, allow_infinity=False),
        min_size=2, max_size=20),
)
def test_resample_matches_value_at_property(step, values):
    """Every resampled point equals value_at of the same time."""
    env = Environment()
    mon = Monitor(env)
    for i, v in enumerate(values):
        mon.record(v, time=float(i))
    grid, vals = mon.resample(step=step, start=0.0, end=float(len(values) - 1))
    for t, v in zip(grid, vals):
        expected = mon.value_at(t)
        if math.isnan(expected):
            assert math.isnan(v)
        else:
            assert v == pytest.approx(expected)


# ----------------------------------------------------------------------
# Window edge cases against a brute-force reference
# ----------------------------------------------------------------------
def _brute_integral(times, values, a, b):
    """O(n) reference: sum value * overlap for every step segment."""
    total = 0.0
    for i, t in enumerate(times):
        nxt = times[i + 1] if i + 1 < len(times) else math.inf
        lo, hi = max(a, t), min(b, nxt)
        if hi > lo:
            total += values[i] * (hi - lo)
    return total


def test_window_entirely_before_first_sample():
    env = Environment()
    mon = Monitor(env)
    mon.record(5.0, time=10.0)
    mon.record(7.0, time=20.0)
    assert mon.integral(0.0, 8.0) == 0.0
    # The signal is undefined there, so the window holds no value.
    assert math.isnan(mon.value_at(3.0))


def test_window_straddling_first_sample():
    env = Environment()
    mon = Monitor(env)
    mon.record(4.0, time=10.0)
    mon.record(6.0, time=20.0)
    # Only [10, 15] contributes: 4 * 5.
    assert mon.integral(5.0, 15.0) == pytest.approx(20.0)


def test_window_entirely_after_last_sample():
    env = Environment()
    mon = Monitor(env)
    mon.record(5.0, time=0.0)
    mon.record(3.0, time=10.0)
    # The last value holds indefinitely under step interpretation.
    assert mon.integral(20.0, 30.0) == pytest.approx(3.0 * 10.0)
    assert mon.time_weighted_mean(20.0, 30.0) == pytest.approx(3.0)


def test_zero_width_window():
    env = Environment()
    mon = Monitor(env)
    mon.record(5.0, time=0.0)
    mon.record(9.0, time=10.0)
    assert mon.integral(4.0, 4.0) == 0.0
    # Degenerate mean falls back to the point value.
    assert mon.time_weighted_mean(4.0, 4.0) == 5.0
    assert mon.time_weighted_mean(10.0, 10.0) == 9.0


def test_same_instant_rerecord_after_query():
    """Overwriting the open segment never corrupts the prefix array,
    even when a query has already extended it."""
    env = Environment()
    mon = Monitor(env)
    mon.record(2.0, time=0.0)
    mon.record(4.0, time=10.0)
    assert mon.integral(0.0, 10.0) == pytest.approx(20.0)  # extends _cum
    mon.record(8.0, time=10.0)   # same-instant overwrite wins
    mon.record(1.0, time=20.0)
    times, values = mon.as_arrays()
    assert list(values) == [2.0, 8.0, 1.0]
    expected = _brute_integral(times, values, 0.0, 25.0)
    assert mon.integral(0.0, 25.0) == pytest.approx(expected)


def test_staged_extension_matches_one_shot():
    """Growing _cum in stages continues one left fold, so a monitor
    queried every 17 samples gives exactly the float of one queried
    once at the end."""
    rng = np.random.default_rng(11)
    times = np.cumsum(rng.uniform(0.1, 5.0, size=200))
    values = rng.uniform(-50.0, 50.0, size=200)

    def build(query_every):
        env = Environment()
        mon = Monitor(env)
        for i, (t, v) in enumerate(zip(times, values)):
            mon.record(v, time=t)
            if query_every and i % query_every == 0:
                mon.integral(times[0], t)  # force partial extension
        return mon.integral(times[0], times[-1])

    staged, fresh = build(17), build(0)
    assert staged == fresh
    assert build(1) == fresh
    # Same query schedule twice -> exactly the same float.
    assert build(17) == staged
    assert build(0) == fresh


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _ask(mon, query) -> float:
    kind, a, b = query
    if kind == "integral":
        return mon.integral(a, b)
    return mon.time_weighted_mean(a, b)


_queries = st.lists(
    st.tuples(st.sampled_from(["integral", "mean"]),
              st.floats(min_value=-10.0, max_value=1600.0),
              st.floats(min_value=-10.0, max_value=1600.0)),
    max_size=3)


@given(steps=st.lists(
    st.tuples(
        # dt == 0 re-records the same instant: an overwrite of the
        # open segment, possibly right after a query extended _cum.
        st.one_of(st.just(0.0),
                  st.floats(min_value=1e-3, max_value=50.0)),
        st.floats(min_value=-1e3, max_value=1e3),
        _queries),
    min_size=1, max_size=30))
def test_any_read_schedule_gives_the_bits_of_one_fresh_read(steps):
    """Interleave records with integral/mean reads in any order: every
    answer has the bits a fresh monitor holding the same samples gives
    when it is queried just once."""
    env = Environment()
    watched = Monitor(env)
    recorded = []
    t = 0.0

    def check(query):
        fresh = Monitor(env)
        for v, ts in recorded:
            fresh.record(v, time=ts)
        assert _bits(_ask(watched, query)) == _bits(_ask(fresh, query))

    for dt, value, queries in steps:
        t += dt
        watched.record(value, time=t)
        recorded.append((value, t))
        for query in queries:
            check(query)
    check(("integral", 0.0, t))
    check(("mean", 0.0, t + 1.0))


@given(
    data=st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=100.0,
                            allow_nan=False),
                  st.floats(min_value=-1e3, max_value=1e3,
                            allow_nan=False)),
        min_size=1, max_size=40),
    window=st.tuples(st.floats(min_value=-10.0, max_value=120.0,
                               allow_nan=False),
                     st.floats(min_value=-10.0, max_value=120.0,
                               allow_nan=False)),
)
def test_integral_matches_brute_force_property(data, window):
    """Prefix-sum windowed integral == O(n) loop, any window."""
    env = Environment()
    mon = Monitor(env)
    seen = {}
    for t, v in sorted(data, key=lambda p: p[0]):
        mon.record(v, time=t)
        seen[t] = v     # same-instant overwrite wins, like the monitor
    times = sorted(seen)
    values = [seen[t] for t in times]
    a, b = min(window), max(window)
    expected = _brute_integral(times, values, a, b) if b > a else 0.0
    assert mon.integral(a, b) == pytest.approx(expected, abs=1e-6)
    if b > a and expected is not None:
        assert mon.time_weighted_mean(a, b) == \
            pytest.approx(expected / (b - a), abs=1e-6)
