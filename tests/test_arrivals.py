"""Property tests for the open-loop arrival layer.

The MMPP sampler is the one place the workload layer does nontrivial
stochastic work (competing exponentials against a hidden modulating
chain), so its contract is pinned as properties over the whole
parameter space hypothesis can reach:

- every inter-arrival draw is strictly positive, so cumulative arrival
  schedules are strictly increasing;
- sampling is a pure function of (parameters, initial phase, RNG
  stream): fresh instances with equal seeds reproduce byte-equal
  schedules, and the advertised phase state evolves identically;
- the long-run empirical rate converges on the analytic stationary
  rate ``1 / mean`` (tolerance scaled by the distribution's own CV);
- the closed-form survival function is a genuine survival function and
  matches the empirical tail;
- requests carrying MMPP scenarios cross the JSON wire byte-identically
  (the epoch-6 strategies in ``test_cache_epoch6_session.py`` fold the
  widened vocabulary into the cache-key properties).

The scenario builders get the corresponding algebraic checks: offered
load, ramp skew, and class fractions are exactly what the names claim.
"""

import math
import random

import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.session import RunRequest
from repro.workload.arrivals import (
    MarkovModulatedPoisson,
    bursty_equal_load,
    heterogeneous_load,
    on_off_poisson,
    two_class_priority_load,
)

_rates = st.floats(min_value=0.2, max_value=5.0, allow_nan=False)
_switches = st.floats(min_value=0.05, max_value=2.0, allow_nan=False)

#: Full two-phase MMPPs plus the degenerate on-off corner (one silent
#: phase) — the zero-rate branch consumes RNG differently and must obey
#: every property too.
_mmpps = st.builds(
    MarkovModulatedPoisson,
    rates=st.one_of(
        st.tuples(_rates, _rates),
        st.tuples(_rates, st.just(0.0)),
        st.tuples(st.just(0.0), _rates),
    ),
    switch_rates=st.tuples(_switches, _switches),
    phase=st.sampled_from([0, 1]),
)

_seeds = st.integers(min_value=0, max_value=2**31)


class TestSamplerProperties:
    @hyp_settings(max_examples=60, deadline=None)
    @given(mmpp=_mmpps, seed=_seeds)
    def test_arrival_schedules_strictly_increase(self, mmpp, seed):
        rng = random.Random(seed)
        clock = 0.0
        for _ in range(200):
            draw = mmpp.sample(rng)
            assert draw > 0.0
            assert clock + draw > clock
            clock += draw

    @hyp_settings(max_examples=60, deadline=None)
    @given(mmpp=_mmpps, seed=_seeds)
    def test_equal_seeds_reproduce_byte_equal_schedules(self, mmpp, seed):
        twin = MarkovModulatedPoisson(mmpp.rates, mmpp.switch_rates, mmpp.phase)
        rng_a, rng_b = random.Random(seed), random.Random(seed)
        schedule_a = [mmpp.sample(rng_a) for _ in range(100)]
        schedule_b = [twin.sample(rng_b) for _ in range(100)]
        # strict float equality: same draws, same phase trajectory
        assert schedule_a == schedule_b
        assert mmpp.phase == twin.phase

    @hyp_settings(max_examples=25, deadline=None)
    @given(mmpp=_mmpps, seed=_seeds)
    def test_long_horizon_rate_matches_stationary_mean(self, mmpp, seed):
        rng = random.Random(seed)
        draws = 4000
        total = sum(mmpp.sample(rng) for _ in range(draws))
        empirical_mean = total / draws
        # Standard error of the sample mean, inflated for the draw-to-draw
        # correlation the modulating chain introduces.
        tolerance = 8.0 * mmpp.cv * mmpp.mean / math.sqrt(draws) + 0.02 * mmpp.mean
        assert empirical_mean == pytest.approx(mmpp.mean, abs=tolerance)

    @hyp_settings(max_examples=60, deadline=None)
    @given(mmpp=_mmpps)
    def test_survival_is_a_survival_function(self, mmpp):
        assert mmpp.survival(0.0) == 1.0
        assert mmpp.survival(-1.0) == 1.0
        previous = 1.0
        for step in range(1, 40):
            x = step * 0.25 * mmpp.mean
            value = mmpp.survival(x)
            assert 0.0 <= value <= previous + 1e-12
            previous = value
        # The tail decays at the slow eigenvalue of D0, which for a very
        # bursty on-off source is far slower than 1 / mean — bound the
        # far tail loosely and let the empirical-tail test pin the shape.
        assert mmpp.survival(200.0 * mmpp.mean) < 1e-3

    def test_survival_matches_empirical_tail(self):
        mmpp = MarkovModulatedPoisson((2.0, 0.25), (0.2, 0.1))
        rng = random.Random(404)
        draws = sorted(mmpp.sample(rng) for _ in range(40000))
        for x in (0.5, 1.0, 2.0, 5.0):
            empirical = sum(1 for d in draws if d > x) / len(draws)
            assert mmpp.survival(x) == pytest.approx(empirical, abs=0.01)


class TestParameterValidation:
    def test_rejects_negative_and_all_zero_rates(self):
        with pytest.raises(ConfigurationError):
            MarkovModulatedPoisson((-1.0, 1.0), (0.1, 0.1))
        with pytest.raises(ConfigurationError):
            MarkovModulatedPoisson((0.0, 0.0), (0.1, 0.1))

    def test_rejects_nonpositive_switch_rates_and_bad_phase(self):
        with pytest.raises(ConfigurationError):
            MarkovModulatedPoisson((1.0, 2.0), (0.0, 0.1))
        with pytest.raises(ConfigurationError):
            MarkovModulatedPoisson((1.0, 2.0), (0.1, 0.1), phase=2)

    def test_on_off_validates_its_shape(self):
        with pytest.raises(ConfigurationError):
            on_off_poisson(0.0, 1.0, 1.0)
        with pytest.raises(ConfigurationError):
            on_off_poisson(1.0, 0.0, 1.0)


class TestAnalyticMoments:
    def test_on_off_long_run_rate(self):
        source = on_off_poisson(rate=2.0, mean_on=3.0, mean_off=5.0)
        # long-run rate = rate * on_fraction => mean = (on + off) / (rate * on)
        assert source.mean == pytest.approx((3.0 + 5.0) / (2.0 * 3.0))

    def test_equal_rates_degenerate_to_plain_poisson(self):
        flat = MarkovModulatedPoisson((1.5, 1.5), (0.3, 0.7))
        assert flat.mean == pytest.approx(1.0 / 1.5)
        assert flat.cv == pytest.approx(1.0)

    @hyp_settings(max_examples=40, deadline=None)
    @given(mmpp=_mmpps)
    def test_burstiness_never_below_poisson(self, mmpp):
        assert mmpp.cv >= 1.0 - 1e-9


class TestCodecRoundTrip:
    @hyp_settings(max_examples=30, deadline=None)
    @given(mmpp=_mmpps)
    def test_mmpp_requests_cross_the_wire_byte_identically(self, mmpp):
        from repro.workload.scenarios import AgentSpec, ScenarioSpec

        scenario = ScenarioSpec(
            name="wire-probe",
            agents=(
                AgentSpec(agent_id=1, interrequest=mmpp, open_loop=True),
                AgentSpec(agent_id=2, interrequest=mmpp, priority_fraction=0.25),
            ),
        )
        request = RunRequest(scenario, "rr", tag="wire")
        restored = RunRequest.from_json(request.to_json())
        assert restored.to_json() == request.to_json()
        assert restored.cache_key() == request.cache_key()
        # and the restored distributions are real MMPPs with the phase kept
        spec = restored.scenario.agents[0]
        assert isinstance(spec.interrequest, MarkovModulatedPoisson)
        assert spec.interrequest.spec_key() == mmpp.spec_key()

    def test_round_trip_preserves_a_nondefault_phase(self):
        source = MarkovModulatedPoisson((1.0, 0.1), (0.2, 0.4), phase=1)
        from repro.workload.scenarios import AgentSpec, ScenarioSpec

        scenario = ScenarioSpec(
            name="phase-probe",
            agents=(AgentSpec(agent_id=1, interrequest=source, open_loop=True),),
        )
        restored = RunRequest.from_json(RunRequest(scenario, "fcfs").to_json())
        assert restored.scenario.agents[0].interrequest.phase == 1


class TestBuilderAlgebra:
    def test_bursty_offered_load_is_exact(self):
        scenario = bursty_equal_load(6, 0.9, on_fraction=0.3, cycle_time=10.0)
        offered = sum(1.0 / spec.interrequest.mean for spec in scenario.agents)
        assert offered == pytest.approx(0.9)
        for spec in scenario.agents:
            assert spec.open_loop
            assert spec.interrequest.rates[1] == 0.0  # genuinely on-off

    def test_bursty_agents_do_not_share_distribution_state(self):
        scenario = bursty_equal_load(4, 0.8)
        sources = [spec.interrequest for spec in scenario.agents]
        assert len(set(map(id, sources))) == len(sources)

    def test_heterogeneous_ramp_hits_skew_and_total(self):
        scenario = heterogeneous_load(5, 0.8, skew=3.0)
        loads = [1.0 / spec.interrequest.mean for spec in scenario.agents]
        assert sum(loads) == pytest.approx(0.8)
        assert loads[-1] / loads[0] == pytest.approx(3.0)

    def test_heterogeneous_closed_loop_ramps_offered_load(self):
        scenario = heterogeneous_load(4, 2.0, skew=2.0, open_loop=False, max_outstanding=3)
        loads = [spec.offered_load() for spec in scenario.agents]
        assert sum(loads) == pytest.approx(2.0)
        assert loads[-1] / loads[0] == pytest.approx(2.0)
        assert all(not spec.open_loop and spec.max_outstanding == 1 for spec in scenario.agents)
        (single,) = heterogeneous_load(1, 0.5, skew=4.0).agents
        assert 1.0 / single.interrequest.mean == pytest.approx(0.5)

    def test_two_class_open_loop_offers_arrival_rates(self):
        scenario = two_class_priority_load(4, 0.8, open_loop=True, max_outstanding=2)
        assert sum(1.0 / spec.interrequest.mean for spec in scenario.agents) == pytest.approx(0.8)
        assert all(spec.open_loop and spec.max_outstanding == 2 for spec in scenario.agents)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: bursty_equal_load(0, 0.5),
            lambda: bursty_equal_load(4, 1.0),
            lambda: bursty_equal_load(4, 0.5, on_fraction=1.0),
            lambda: bursty_equal_load(4, 0.5, cycle_time=0.0),
            lambda: heterogeneous_load(0, 0.5),
            lambda: heterogeneous_load(4, 0.5, skew=0.0),
            lambda: heterogeneous_load(4, 1.5),
            lambda: two_class_priority_load(0, 2.0),
            lambda: two_class_priority_load(4, 1.5, open_loop=True),
        ],
    )
    def test_builders_reject_invalid_shapes(self, build):
        with pytest.raises(ConfigurationError):
            build()

    def test_two_class_sets_the_urgent_fraction_everywhere(self):
        scenario = two_class_priority_load(5, 2.0, urgent_fraction=0.35)
        assert all(spec.priority_fraction == 0.35 for spec in scenario.agents)
        assert all(not spec.open_loop for spec in scenario.agents)
        with pytest.raises(ConfigurationError):
            two_class_priority_load(5, 2.0, urgent_fraction=1.0)
