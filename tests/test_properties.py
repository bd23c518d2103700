"""Property-based tests (hypothesis) for core data structures and invariants."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.regression import linear_fit
from repro.analysis.series import rate_from_cumulative, sparkline
from repro.core.config import ControllerConfig, PIDGains
from repro.core.overload import FairShareSquish, WeightedFairShareSquish
from repro.ipc.bounded_buffer import BoundedBuffer
from repro.sched.rbs import Reservation
from repro.sim.events import EventQueue

from tests import figure4_oracle as oracle

# ----------------------------------------------------------------------
# Event queue ordering
# ----------------------------------------------------------------------


@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=50))
def test_event_queue_pops_in_nondecreasing_time_order(times):
    queue = EventQueue()
    for t in times:
        queue.schedule(t, lambda: None)
    popped = []
    while True:
        event = queue.pop_due(20_000)
        if event is None:
            break
        popped.append(event.time)
    assert popped == sorted(times)


# ----------------------------------------------------------------------
# Bounded buffer conservation
# ----------------------------------------------------------------------


@given(
    st.integers(min_value=1, max_value=10_000),
    st.lists(st.integers(min_value=1, max_value=500), max_size=60),
)
def test_bounded_buffer_fill_never_exceeds_capacity(capacity, operations):
    buffer = BoundedBuffer("q", capacity)
    for op in operations:
        if op % 2 == 0 and buffer.space_free() >= op:
            buffer.commit_put(op)
        elif buffer.bytes_available() >= op:
            buffer.commit_get(op)
        assert 0 <= buffer.fill_bytes() <= capacity
        assert (
            buffer.total_put_bytes - buffer.total_get_bytes == buffer.fill_bytes()
        )


# ----------------------------------------------------------------------
# Reservation accounting
# ----------------------------------------------------------------------


@given(
    proportion=st.integers(min_value=0, max_value=1_000),
    period=st.integers(min_value=1_000, max_value=100_000),
    now=st.integers(min_value=0, max_value=10_000_000),
)
def test_reservation_allocation_bounded_by_period(proportion, period, now):
    reservation = Reservation(proportion_ppt=proportion, period_us=period)
    assert 0 <= reservation.allocation_us <= period
    reservation.advance_to(now)
    assert reservation.period_start <= now or now < period
    assert reservation.used_in_period_us == 0


@given(
    proportion=st.integers(min_value=1, max_value=1_000),
    period=st.integers(min_value=1_000, max_value=100_000),
    charges=st.lists(st.integers(min_value=1, max_value=5_000), max_size=30),
)
def test_reservation_remaining_never_negative(proportion, period, charges):
    reservation = Reservation(proportion_ppt=proportion, period_us=period)
    for charge in charges:
        reservation.used_in_period_us += charge
        assert reservation.remaining_us >= 0


# ----------------------------------------------------------------------
# Squish policies
# ----------------------------------------------------------------------

squish_requests = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1_000),
        st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
    ),
    min_size=1,
    max_size=10,
)


def split(requests):
    """Index-aligned (desired, importance) lists of the requests."""
    return [d for d, _ in requests], [w for _, w in requests]


@given(requests=squish_requests, available=st.integers(min_value=0, max_value=1_000))
@settings(max_examples=200)
def test_squish_never_grants_more_than_desired(requests, available):
    desired, importance = split(requests)
    for policy in (FairShareSquish(5), WeightedFairShareSquish(5)):
        grants = policy.squish(desired, importance, available)
        assert len(grants) == len(desired)
        for want, granted in zip(desired, grants):
            assert granted <= max(want, min(5, want))
            assert granted >= 0


@given(requests=squish_requests, available=st.integers(min_value=0, max_value=1_000))
@settings(max_examples=200)
def test_squish_respects_budget_up_to_minimum_floors(requests, available):
    """The total grant never exceeds the budget plus the starvation floors.

    (Each request may be topped up to the minimum proportion even when
    the budget is tiny — that slack is what the overload threshold's
    reserve capacity absorbs.)
    """
    desired, importance = split(requests)
    policy = FairShareSquish(5)
    grants = policy.squish(desired, importance, available)
    floor_total = sum(min(5, want) for want in desired)
    assert sum(grants) <= available + floor_total + len(desired)


@given(requests=squish_requests)
@settings(max_examples=100)
def test_squish_grants_everything_when_budget_is_ample(requests):
    desired, importance = split(requests)
    policy = WeightedFairShareSquish(5)
    grants = policy.squish(desired, importance, sum(desired))
    assert grants == desired


def reference_water_fill(desired, importance, available, floor, weighted):
    """Naive water-fill: weights recomputed every round, dict grants."""

    def weight(i):
        return float(desired[i]) * importance[i] if weighted else float(desired[i])

    if sum(desired) <= available:
        return list(desired)
    available = max(0, available)
    grants = {}
    remaining = list(range(len(desired)))
    while remaining and available > 0:
        total_weight = 0.0
        for i in remaining:
            total_weight += weight(i)
        if total_weight <= 0:
            break
        shares = {i: int(available * weight(i) / total_weight) for i in remaining}
        capped = [i for i in remaining if shares[i] >= desired[i]]
        if not capped:
            grants.update(shares)
            break
        for i in capped:
            grants[i] = desired[i]
            available -= desired[i]
        remaining = [i for i in remaining if i not in capped]
    return [
        max(grants.get(i, 0), min(floor, desired[i])) for i in range(len(desired))
    ]


@given(
    requests=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=1_000),
            st.one_of(
                st.sampled_from([0.1, 1 / 3, 0.7, 1.1, 2 / 3, 2.9, 7.3]),
                st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
            ),
        ),
        min_size=1,
        max_size=24,
    ),
    available=st.integers(min_value=0, max_value=4_000),
    floor=st.integers(min_value=0, max_value=20),
)
@settings(max_examples=300)
def test_squish_matches_reference_water_fill(requests, available, floor):
    """The one-weights-per-squish water-fill grants exactly what the
    naive per-round reference grants, for non-dyadic importances too."""
    desired, importance = split(requests)
    for policy, weighted in (
        (FairShareSquish(floor), False),
        (WeightedFairShareSquish(floor), True),
    ):
        assert policy.squish(desired, importance, available) == reference_water_fill(
            desired, importance, available, floor, weighted
        )


# ----------------------------------------------------------------------
# PID controller
# ----------------------------------------------------------------------


@given(
    errors=st.lists(
        st.floats(min_value=-0.5, max_value=0.5, allow_nan=False), min_size=1,
        max_size=200,
    )
)
def test_pid_output_respects_saturation_bounds(errors):
    gains = PIDGains(kp=1.0, ki=2.0, kd=0.1)
    state = oracle.State()
    for error in errors:
        output = oracle.pid_step(
            state, error, 0.01, gains, output_low=0.0, output_high=1.0
        )
        assert 0.0 <= output <= 1.0
        assert 0.0 <= state.integral <= 1.0 / gains.ki


@given(
    gain=st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
    error=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
)
def test_pid_proportional_term_is_linear(gain, error):
    gains = PIDGains(kp=gain, ki=0.0, kd=0.0)
    assert oracle.pid_step(oracle.State(), error, 0.01, gains) == gain * error


# ----------------------------------------------------------------------
# Proportion estimator
# ----------------------------------------------------------------------


@given(
    pressures=st.lists(
        st.floats(min_value=-0.5, max_value=0.5, allow_nan=False),
        min_size=1,
        max_size=100,
    )
)
@settings(max_examples=100)
def test_estimator_output_always_within_configured_bounds(pressures):
    config = ControllerConfig()
    state = oracle.State()
    current = config.min_proportion_ppt
    for pressure in pressures:
        allocated = 10_000 * current // 1000
        usage = oracle.Usage(allocated, 10_000, allocated)
        result = oracle.estimate(state, config, pressure, usage, current, 0.01)
        current = result.desired_ppt
        assert config.min_proportion_ppt <= current <= config.max_proportion_ppt


# ----------------------------------------------------------------------
# Analysis helpers
# ----------------------------------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=-1_000, max_value=1_000, allow_nan=False),
            st.floats(min_value=-1_000, max_value=1_000, allow_nan=False),
        ),
        min_size=3,
        max_size=50,
    )
)
def test_linear_fit_r_squared_in_unit_interval(points):
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    assume(max(xs) - min(xs) > 1e-6)
    fit = linear_fit(xs, ys)
    assert -1e-6 <= fit.r_squared <= 1.0 + 1e-6


@given(
    st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=2,
             max_size=50)
)
def test_rate_from_cumulative_of_nondecreasing_counter_is_nonnegative(increments):
    times = [float(i) for i in range(len(increments))]
    cumulative = []
    total = 0.0
    for inc in increments:
        total += inc
        cumulative.append(total)
    _, rates = rate_from_cumulative(times, cumulative)
    assert all(rate >= 0 for rate in rates)


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=1, max_size=300),
       st.integers(min_value=1, max_value=120))
def test_sparkline_width_bounded(values, width):
    line = sparkline(values, width)
    assert 0 < len(line) <= width
