"""Regression pins for distribution RNG consumption.

The lane engine draws think times through :meth:`Distribution.sample_batch`
— including hand-inlined hot paths (``Exponential`` reimplements CPython's
``expovariate`` arithmetic) — while the event engine draws one at a time
through :meth:`sample`.  Cross-engine bit identity therefore rests on an
invisible contract: *for every distribution, the batch path consumes the
RNG stream exactly like the sample loop*.  A refactor that reordered a
uniform draw, changed ``1 - random()`` to ``random()``, or let a phase
update slip out of sync would silently break engine equivalence long
before a differential test localised it here.

Three pins per distribution family:

- batch == loop: ``sample_batch`` equals ``count`` calls to ``sample``
  from an equally-seeded generator, by strict float equality;
- chunking is invisible: two half-batches continue the stream exactly;
- literal values: the first draws from a fixed seed are pinned byte for
  byte, so even a coordinated change to both paths (which the equality
  checks cannot see) trips a failure that names the distribution.

A Hypothesis property runs the MMPP batch path against its sample loop
over rates, switch rates, start phases and chunkings.

Two end-to-end pins close the loop through the lane engine: an open-loop
on-off MMPP agent's issue gaps on lanes are exactly its sample loop, and
a priority-classed agent's stream interleaves one think draw and one
class draw per request while an unclassed neighbour keeps its batches.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from repro.engine.batch import batch_capable, run_lanes
from repro.engine.rng import RandomStreams
from repro.experiments.runner import SimulationSettings, run_simulation
from repro.workload.arrivals import MarkovModulatedPoisson, on_off_poisson
from repro.workload.distributions import (
    Deterministic,
    Erlang,
    Exponential,
    Hyperexponential,
)
from repro.workload.scenarios import AgentSpec, ScenarioSpec
from repro.workload.traces import TraceDistribution

SEEDS = (1, 7, 19880530, 424242)

#: One representative per family, parameters chosen to exercise every
#: branch (multi-phase Erlang, CV > 1 hyperexponential, a two-rate MMPP
#: plus the on-off corner whose silent phase skips the uniform draw).
def _families():
    return {
        "deterministic": lambda: Deterministic(1.5),
        "exponential": lambda: Exponential(2.0),
        "erlang": lambda: Erlang(2.0, 4),
        "hyperexponential": lambda: Hyperexponential(2.0, 2.5),
        "mmpp": lambda: MarkovModulatedPoisson((1.5, 0.25), (0.2, 0.1)),
        "on-off": lambda: MarkovModulatedPoisson((2.0, 0.0), (0.4, 0.25)),
        "trace": lambda: TraceDistribution([0.5, 1.25, 2.0], cycle=True),
    }


@pytest.mark.parametrize("family", sorted(_families()))
@pytest.mark.parametrize("seed", SEEDS)
def test_sample_batch_equals_sample_loop(family, seed):
    build = _families()[family]
    loop_dist, batch_dist = build(), build()
    loop_rng, batch_rng = random.Random(seed), random.Random(seed)
    looped = [loop_dist.sample(loop_rng) for _ in range(200)]
    batched = batch_dist.sample_batch(batch_rng, 200)
    assert looped == batched  # strict float equality, no approx
    # and the generators are left in the same state (no extra draws)
    assert loop_rng.random() == batch_rng.random()


@pytest.mark.parametrize("family", sorted(_families()))
def test_chunked_batches_continue_the_stream(family):
    build = _families()[family]
    whole_dist, split_dist = build(), build()
    whole = whole_dist.sample_batch(random.Random(99), 100)
    split_rng = random.Random(99)
    split = split_dist.sample_batch(split_rng, 37) + split_dist.sample_batch(
        split_rng, 63
    )
    assert whole == split


#: First four draws from seed 19880530, pinned as literals.  These fail
#: only if the arithmetic itself changes — the loop-vs-batch checks
#: above cannot catch a change applied to both paths at once.
PINNED = {
    "exponential": (
        Exponential(2.0),
        [7.150154216381039, 1.1854590260554219, 0.8102383679083632, 0.9573678899017541],
    ),
    "erlang": (
        Erlang(2.0, 4),
        [1.5384413520765576, 1.8372540471686192, 5.54271525931017, 2.7950553099251363],
    ),
    "hyperexponential": (
        Hyperexponential(2.0, 2.5),
        [7.954122639521287, 0.5172269349406082, 1.67789993973717, 23.871444427608616],
    ),
    "mmpp": (
        MarkovModulatedPoisson((1.5, 0.25), (0.2, 0.1)),
        [2.1029865342297174, 0.23830540232598918, 0.34538711753558443, 1.6247948749432362],
    ),
}


@pytest.mark.parametrize("family", sorted(PINNED))
def test_pinned_draw_sequences(family):
    dist, expected = PINNED[family]
    assert dist.sample_batch(random.Random(19880530), 4) == expected


def test_expovariate_inline_matches_cpython_formula():
    # The Exponential batch path hand-inlines CPython's expovariate:
    # -log(1 - random()) / lambd.  Pin the equivalence against the
    # stdlib call itself, not just our own loop.
    rng_inline, rng_stdlib = random.Random(31), random.Random(31)
    batched = Exponential(0.75).sample_batch(rng_inline, 50)
    stdlib = [rng_stdlib.expovariate(1.0 / 0.75) for _ in range(50)]
    assert batched == stdlib


_RATE = st.floats(min_value=0.05, max_value=5.0)


@hyp_settings(max_examples=150, deadline=None)
@given(
    rates=st.one_of(
        st.tuples(_RATE, _RATE),
        st.tuples(st.just(0.0), _RATE),
        st.tuples(_RATE, st.just(0.0)),
    ),
    switch_rates=st.tuples(_RATE, _RATE),
    phase=st.sampled_from((0, 1)),
    chunks=st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_mmpp_sample_batch_is_the_sample_loop(rates, switch_rates, phase, chunks, seed):
    # The MMPP batch path is its own loop, with expovariate inlined:
    # over two-rate and on-off sources (the silent phase on either
    # side), from either start phase and in any chunking, it must give
    # the sample loop's variates, final phase and generator state.
    looped_dist = MarkovModulatedPoisson(rates, switch_rates, phase)
    batched_dist = MarkovModulatedPoisson(rates, switch_rates, phase)
    looped_rng, batched_rng = random.Random(seed), random.Random(seed)
    looped = [looped_dist.sample(looped_rng) for _ in range(sum(chunks))]
    batched = []
    for count in chunks:
        batched += batched_dist.sample_batch(batched_rng, count)
    assert batched == looped
    assert batched_dist.phase == looped_dist.phase
    assert batched_rng.random() == looped_rng.random()


@pytest.mark.parametrize("seed", SEEDS)
def test_open_loop_mmpp_agent_on_lanes_consumes_the_sample_loop(seed):
    # An open-loop r=1 agent runs on the lane engine, which refills its
    # think buffer with sample_batch blocks.  With one agent nothing
    # contends, so every think draw is the gap between a completion and
    # the next issue: the lane must consume exactly the draws a fresh
    # MMPP's sample loop produces on the agent's stream, across several
    # buffer refills, and match the event engine record for record.
    def scenario():
        return ScenarioSpec(
            name="open-loop-on-off",
            agents=(
                AgentSpec(
                    agent_id=1,
                    interrequest=on_off_poisson(0.5, mean_on=8.0, mean_off=4.0),
                    open_loop=True,
                    max_outstanding=1,
                ),
            ),
        )

    settings = SimulationSettings(
        batches=2, batch_size=75, warmup=0, seed=seed, keep_records=True
    )
    assert batch_capable(scenario(), "rr", settings)[0]
    (lane,) = run_lanes([(scenario(), "rr", settings)])
    records = lane.collector.records
    assert len(records) == 150  # > two _THINK_BLOCK refills

    source = on_off_poisson(0.5, mean_on=8.0, mean_off=4.0)
    rng = RandomStreams(seed).agent_stream(1)
    draws = [source.sample(rng) for _ in range(len(records))]
    assert records[0].issue_time == 0.0 + draws[0]
    for previous, record, think in zip(records, records[1:], draws[1:]):
        assert record.issue_time == previous.completion_time + think

    event = run_simulation(scenario(), "rr", replace(settings, engine="event"))
    assert event.collector.records == records


def _classed_pair(fraction):
    """Agent 1 draws a request class with ``fraction``; agent 2 does not."""
    return ScenarioSpec(
        name="classed-pair",
        agents=(
            AgentSpec(agent_id=1, interrequest=Exponential(2.0), priority_fraction=fraction),
            AgentSpec(agent_id=2, interrequest=Exponential(3.0)),
        ),
    )


@pytest.mark.parametrize("dropout", [False, True])
@pytest.mark.parametrize("fraction", [0.5, 1.0])
@pytest.mark.parametrize("seed", SEEDS)
def test_classed_agent_on_lanes_interleaves_think_and_class_draws(seed, fraction, dropout):
    # A classed agent's stream is think, class, think, class... — one
    # sample() per think time and one uniform per issued request, even
    # at fraction 1.0, where the class is certain but the draw is still
    # consumed (BusAgent._draw_priority).  A think timer that expires
    # while the agent is dropped out issues nothing and draws no class;
    # the rejoin draws a fresh think time.  The unclassed agent beside
    # it keeps its sample_batch think sequence and never draws a class.
    from repro.faults.plan import FaultEvent, FaultKind, FaultPlan

    window = (20.0, 50.0)
    plan = None
    if dropout:
        plan = FaultPlan(
            events=(
                FaultEvent(
                    time=window[0],
                    kind=FaultKind.AGENT_DROPOUT,
                    agent_id=1,
                    duration=window[1] - window[0],
                ),
            )
        )
    settings = SimulationSettings(
        batches=2, batch_size=75, warmup=0, seed=seed, keep_records=True, fault_plan=plan
    )
    assert batch_capable(_classed_pair(fraction), "fcfs", settings)[0]
    (lane,) = run_lanes([(_classed_pair(fraction), "fcfs", settings)])
    records = lane.collector.records

    think = Exponential(2.0)
    rng = RandomStreams(seed).agent_stream(1)
    completed = 0.0
    swallowed = 0
    classed = [record for record in records if record.agent_id == 1]
    for record in classed:
        issue = completed + think.sample(rng)
        if dropout and window[0] <= issue < window[1]:
            swallowed += 1
            issue = window[1] + think.sample(rng)
        assert record.issue_time == issue
        assert record.priority == (rng.random() < fraction)
        completed = record.completion_time
    assert swallowed == (1 if dropout else 0)
    if fraction == 1.0:
        assert all(record.priority for record in classed)

    unclassed = [record for record in records if record.agent_id == 2]
    draws = Exponential(3.0).sample_batch(
        RandomStreams(seed).agent_stream(2), len(unclassed)
    )
    completed = 0.0
    for record, drawn in zip(unclassed, draws):
        assert record.issue_time == completed + drawn
        assert not record.priority
        completed = record.completion_time

    event = run_simulation(
        _classed_pair(fraction), "fcfs", replace(settings, engine="event")
    )
    assert event.collector.records == records
