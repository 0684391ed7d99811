import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demandcast.cli import _impact_section
from demandcast.features import trailing_mean
from demandcast.inventory import (
    InventoryOutcome,
    ReplenishmentPolicy,
    impact_table,
    pool_outcomes,
    simulate,
)

LEDGER = ("opening", "ordered", "received", "demand", "sold", "lost_sales", "closing")
# One value per series; negative_forecast_days is the batch's total.
SCALARS = ("overstock_rate", "stockout_rate", "cost_index", "forecast_mae")


def reference_simulate(demand, forecast, policy=ReplenishmentPolicy(), sigma_hat=0.0):
    """The replay as one loop over numpy scalars, with each target its own slice sum."""
    demand = np.asarray(demand, dtype=np.float64)
    forecast = np.asarray(forecast, dtype=np.float64)
    n = len(demand)
    negative_days = int((forecast < 0).sum())
    fc = np.maximum(forecast, 0.0)

    opening = np.zeros(n)
    ordered = np.zeros(n)
    received = np.zeros(n)
    sold = np.zeros(n)
    lost = np.zeros(n)
    closing = np.zeros(n)

    on_hand = float(policy.initial_stock)
    pipeline = {}
    protection = policy.lead_time + policy.review_period

    for t in range(n):
        opening[t] = on_hand
        arrived = pipeline.pop(t, 0.0)
        if t % policy.review_period == 0:
            target = fc[t : t + protection].sum() + policy.safety_factor * sigma_hat
            position = on_hand + arrived + sum(pipeline.values())
            qty = max(0.0, target - position)
            ordered[t] = qty
            if qty > 0.0:
                if policy.lead_time == 0:
                    arrived += qty
                else:
                    pipeline[t + policy.lead_time] = pipeline.get(t + policy.lead_time, 0.0) + qty
        received[t] = arrived
        on_hand += arrived
        sold[t] = min(demand[t], on_hand)
        lost[t] = demand[t] - sold[t]
        on_hand -= sold[t]
        closing[t] = on_hand

    trailing = trailing_mean(demand, np.arange(n), 7)
    overstock_days = closing > policy.overstock_multiplier * trailing
    return InventoryOutcome(
        lengths=np.array([n]),
        opening=opening,
        ordered=ordered,
        received=received,
        demand=demand,
        sold=sold,
        lost_sales=lost,
        closing=closing,
        overstock_rate=float(overstock_days.mean()) if n else 0.0,
        stockout_rate=float((lost > 0).mean()) if n else 0.0,
        cost_index=float(policy.holding_cost * closing.sum() + policy.emergency_cost * lost.sum()),
        forecast_mae=float(np.abs(demand - forecast).mean()) if n else 0.0,
        negative_forecast_days=negative_days,
    )


def simulate_series(demands, forecasts, policy=ReplenishmentPolicy(), sigma_hats=None):
    """simulate on per-series lists, joined into the flat columns it takes."""
    lengths = np.array([len(demand) for demand in demands], dtype=np.int64)
    flat = [np.concatenate([np.empty(0), *columns]) for columns in (demands, forecasts)]
    return simulate(*flat, lengths, policy, sigma_hats)


def assert_same_bits(out, refs):
    """Each series of the batch ``out`` equals its reference outcome bit for bit."""
    assert out.lengths.tolist() == [ref.days for ref in refs]
    starts = np.cumsum(out.lengths) - out.lengths
    for i, (start, ref) in enumerate(zip(starts.tolist(), refs)):
        for name in LEDGER:
            got, want = getattr(out, name)[start : start + ref.days], getattr(ref, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (i, name)
        for name in SCALARS:
            got, want = getattr(out, name), getattr(ref, name)
            assert got.dtype == np.float64 and got[i].tobytes() == np.float64(want).tobytes(), (i, name)
    assert out.negative_forecast_days == sum(ref.negative_forecast_days for ref in refs)
    assert type(out.negative_forecast_days) is int


# simulate sums each review's window as picked rows of sliding windows, one
# window length at a time, so the windows cut at a series' end keep their
# slice sums.  Two simpler forms do not reproduce the slice sums:
# np.add.reduceat adds each window in order, where numpy's sum adds pairwise
# (1,828 of 3,000 random cases differed), and zero-padding the cut windows
# into full rows changes their pairwise order once protection reaches 8.
# Protection here reaches 17.
ODD_FLOATS = st.sampled_from(
    [0.0, -0.0, float("nan"), 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1e-300]
)


@st.composite
def oracle_inputs(draw):
    n = draw(st.integers(0, 60))
    demand = draw(st.lists(st.one_of(st.floats(0.0, 1e6), ODD_FLOATS), min_size=n, max_size=n))
    forecast = draw(
        st.lists(
            st.one_of(st.floats(-1e3, 1e6), st.floats(allow_nan=True, allow_infinity=False), ODD_FLOATS),
            min_size=n,
            max_size=n,
        )
    )
    return np.array(demand, dtype=np.float64), np.array(forecast, dtype=np.float64)


@settings(max_examples=300, deadline=None)
@given(
    oracle_inputs(),
    st.one_of(st.just(0.0), st.floats(0.0, 1e3)),
    st.integers(1, 7),
    st.integers(0, 10),
    st.floats(0.0, 3.0),
    st.one_of(st.just(0.0), st.floats(0.0, 1e4)),
)
def test_simulate_matches_reference_bit_for_bit(data, sigma, review, lead, safety, initial):
    demand, forecast = data
    policy = ReplenishmentPolicy(
        review_period=review, lead_time=lead, safety_factor=safety, initial_stock=initial
    )
    with np.errstate(all="ignore"):
        out = simulate(demand, forecast, np.array([len(demand)]), policy, [sigma])
        ref = reference_simulate(demand, forecast, policy, sigma_hat=sigma)
    assert_same_bits(out, [ref])


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(oracle_inputs(), st.one_of(st.just(0.0), st.floats(0.0, 1e3))), min_size=1, max_size=6),
    st.integers(1, 7),
    st.integers(0, 10),
    st.floats(0.0, 3.0),
    st.one_of(st.just(0.0), st.floats(0.0, 1e4)),
)
def test_batched_simulate_matches_reference_per_series(batch, review, lead, safety, initial):
    # Series of different lengths share one replay; padding the shorter ones
    # must not reach their ledgers, their scalars or the pooled rates.
    policy = ReplenishmentPolicy(
        review_period=review, lead_time=lead, safety_factor=safety, initial_stock=initial
    )
    demands = [demand for (demand, _), _ in batch]
    forecasts = [forecast for (_, forecast), _ in batch]
    sigmas = [sigma for _, sigma in batch]
    with np.errstate(all="ignore"):
        out = simulate_series(demands, forecasts, policy, sigmas)
        refs = [reference_simulate(d, f, policy, sigma_hat=s) for d, f, s in zip(demands, forecasts, sigmas)]
    assert_same_bits(out, refs)
    total_days = sum(ref.days for ref in refs)
    if not total_days:
        return
    with np.errstate(all="ignore"):
        pooled = pool_outcomes(out)
        # The portfolio formula over per-series outcomes: sum() folds the
        # series' terms left to right, which also fixes the NaN a sum of
        # several NaNs keeps.
        overstock_days = sum(ref.overstock_rate * ref.days for ref in refs)
        mae = float(sum(ref.forecast_mae * ref.days for ref in refs) / total_days)
        mean_demand = float(np.concatenate([ref.demand for ref in refs]).mean())
        expected = {
            "overstock_rate": float(overstock_days / total_days),
            "stockout_rate": float((np.concatenate([ref.lost_sales for ref in refs]) > 0).mean()),
            "forecast_accuracy": 0.0 if mean_demand == 0.0 else 100.0 * (1.0 - mae / mean_demand),
            "cost_index": float(sum(ref.cost_index for ref in refs)),
            "negative_forecast_days": sum(ref.negative_forecast_days for ref in refs),
        }
    assert pooled.keys() == expected.keys()
    for name, want in expected.items():
        assert type(pooled[name]) is type(want), name
        assert np.array(pooled[name]).tobytes() == np.array(want).tobytes(), name


@pytest.mark.parametrize("n", [0, 1, 4, 7])
def test_simulate_matches_reference_on_short_test_windows(n):
    # Protection 9 exceeds every n here, where sliding_window_view would raise.
    rng = np.random.default_rng(n)
    demand = rng.poisson(20, size=n).astype(np.float64)
    forecast = demand + rng.normal(scale=4.0, size=n)
    policy = ReplenishmentPolicy(review_period=2, lead_time=7, safety_factor=0.5)
    assert_same_bits(
        simulate_series([demand], [forecast], policy, [3.0]),
        [reference_simulate(demand, forecast, policy, sigma_hat=3.0)],
    )


def test_simulate_rejects_lengths_that_miss_the_columns():
    demand = np.full(10, 5.0)
    for forecast, lengths in ((demand[:9], [10]), (demand, [4, 5]), (demand, [4, 7])):
        with pytest.raises(ValueError, match="must align"):
            simulate(demand, forecast, np.array(lengths), ReplenishmentPolicy())


def outcome_with(overstock, stockout, accuracy, cost):
    """Pooled rates, as pool_outcomes returns them."""
    return {
        "overstock_rate": overstock,
        "stockout_rate": stockout,
        "forecast_accuracy": accuracy,
        "cost_index": cost,
        "negative_forecast_days": 0,
    }


@st.composite
def demand_and_forecast(draw):
    n = draw(st.integers(1, 60))
    demand = draw(st.lists(st.floats(0.0, 100.0), min_size=n, max_size=n))
    forecast = draw(st.lists(st.floats(-50.0, 150.0), min_size=n, max_size=n))
    return np.array(demand), np.array(forecast)


@settings(max_examples=300, deadline=None)
@given(
    demand_and_forecast(),
    st.floats(0.0, 30.0),
    st.integers(1, 7),
    st.integers(0, 5),
    st.floats(0.0, 3.0),
    st.floats(0.0, 200.0),
)
def test_ledger_identities_hold(data, sigma, review, lead, safety, initial):
    demand, forecast = data
    policy = ReplenishmentPolicy(
        review_period=review, lead_time=lead, safety_factor=safety, initial_stock=initial
    )
    out = simulate_series([demand], [forecast], policy, [sigma])
    assert np.array_equal(out.closing, out.opening + out.received - out.sold)
    assert np.array_equal(out.sold, np.minimum(demand, out.opening + out.received))
    assert np.array_equal(out.lost_sales, demand - out.sold)
    assert (out.sold >= 0.0).all() and (out.sold <= demand).all()
    assert np.array_equal(out.opening[1:], out.closing[:-1])
    assert out.opening[0] == initial
    assert out.negative_forecast_days == int((forecast < 0).sum())
    # Overstock days compare closing stock with the mean of each day's slice
    # of up to 7 days of (fractional) demand.
    trailing = np.array([demand[max(0, t - 6) : t + 1].mean() for t in range(len(demand))])
    assert out.overstock_rate[0] == float((out.closing > policy.overstock_multiplier * trailing).mean())


def test_perfect_forecast_zero_lead_never_stocks_out_or_holds():
    demand = np.array([5.0, 8.0, 3.0, 9.0, 4.0])
    policy = ReplenishmentPolicy(review_period=1, safety_factor=0.0, lead_time=0, initial_stock=0.0)
    out = simulate_series([demand], [demand.copy()], policy, [0.0])
    assert out.stockout_rate[0] == 0.0
    assert np.allclose(out.closing, 0.0)


def test_zero_forecast_starves():
    demand = np.full(30, 6.0)
    policy = ReplenishmentPolicy(review_period=1, safety_factor=0.0, lead_time=0, initial_stock=0.0)
    out = simulate_series([demand], [np.zeros(30)], policy, [0.0])
    assert out.stockout_rate[0] == 1.0


def test_negative_forecast_clamped_and_counted():
    demand = np.full(10, 5.0)
    forecast = np.full(10, -2.0)
    out = simulate_series([demand], [forecast], ReplenishmentPolicy(lead_time=0))
    assert out.negative_forecast_days == 10
    assert (out.ordered >= 0.0).all()


def test_increasing_safety_factor_never_increases_stockouts():
    rng = np.random.default_rng(1)
    for seed in range(10):
        r = np.random.default_rng(seed)
        demand = r.poisson(15, size=90).astype(float)
        forecast = np.maximum(demand + r.normal(scale=5.0, size=90), 0.0)
        rates = []
        for sf in (0.0, 0.5, 1.0, 2.0):
            policy = ReplenishmentPolicy(review_period=2, safety_factor=sf, lead_time=1)
            rates.append(simulate_series([demand], [forecast], policy, [5.0]).stockout_rate[0])
        assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))


def test_zero_demand_never_stocks_out():
    out = simulate_series([np.zeros(40)], [np.full(40, 3.0)], ReplenishmentPolicy())
    assert out.stockout_rate[0] == 0.0
    assert out.lost_sales.sum() == 0.0


def test_lower_mae_forecast_dominates_over_seeds():
    stockouts = {"good": [], "bad": []}
    costs = {"good": [], "bad": []}
    policy = ReplenishmentPolicy(review_period=1, safety_factor=0.5, lead_time=1)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        base = 30 + 10 * np.sin(np.arange(150) / 7.0)
        demand = rng.poisson(base).astype(float)
        good = np.maximum(demand + rng.normal(scale=2.0, size=150), 0.0)
        bad = np.maximum(demand + rng.normal(scale=12.0, size=150), 0.0)
        for name, fc, sigma in (("good", good, 2.0), ("bad", bad, 12.0)):
            out = simulate_series([demand], [fc], policy, [sigma])
            stockouts[name].append(out.stockout_rate[0])
            costs[name].append(out.cost_index[0])
    assert np.mean(stockouts["good"]) <= np.mean(stockouts["bad"])
    assert np.mean(costs["good"]) <= np.mean(costs["bad"])


def test_pool_outcomes_weights_by_days():
    demand = np.full(10, 5.0)
    policy = ReplenishmentPolicy(review_period=1, safety_factor=0.0, lead_time=0)
    # A perfect forecast and a zero one, replayed together.
    pooled = pool_outcomes(simulate_series([demand, demand], [demand.copy(), np.zeros(10)], policy))
    assert abs(pooled["stockout_rate"] - 0.5) < 1e-12


def test_impact_table_reduction_percentages():
    baseline = outcome_with(overstock=0.15, stockout=0.12, accuracy=75.0, cost=100.0)
    after = outcome_with(overstock=0.05, stockout=0.03, accuracy=92.0, cost=80.0)
    rows = impact_table({"model": after}, baseline)
    improvement = {metric: pct for _, metric, _, _, pct, _ in rows}
    direction = {metric: way for _, metric, _, _, _, way in rows}
    assert round(improvement["stockout_rate"], 1) == 75.0
    assert round(improvement["overstock_rate"], 1) == 66.7
    assert direction["forecast_accuracy"] == "increase"
    assert improvement["forecast_accuracy"] > 0
    assert improvement["cost_index"] == pytest.approx(20.0)


def test_impact_table_identical_outcomes_zero_improvement():
    same = outcome_with(0.1, 0.1, 80.0, 50.0)
    rows = impact_table({"m": same}, same)
    assert all(improvement == 0.0 for _, _, _, _, improvement, _ in rows)
    assert "m vs naive:" in _impact_section(rows)


def test_policy_validation():
    with pytest.raises(ValueError):
        ReplenishmentPolicy(review_period=0)
    with pytest.raises(ValueError):
        ReplenishmentPolicy(safety_factor=-1.0)
