"""Property suite: the FCFS heap pick equals the scan.

Every FCFS kernel files each request in one arrival heap of
``(stamp, -agent)`` entries and picks a class-blind winner from its top
(:class:`~repro.engine.batch._FcfsKernel`); a fault-free lane's kernel
pops the top alone (:class:`~repro.engine.batch._FaultFreeFcfsKernel`).
The reference here is a twin kernel driven through the same steps whose
every pass is :meth:`~repro.engine.batch._FcfsKernel.arbitrate_keys`:
the full key map, which the differential suites pin to the event
arbiter, and its maximum.  Both strategies, classed and unclassed
requests and 1 to 30 agents are covered.  On a fault-free drive every
pass's winner is granted before the next pass, as on a fault-free lane.
A faulted drive adds the steps that leave stamp order: an anomalous
pass (its winner stays pending, one clock step younger than the rest),
a deviated pass (another competitor is granted) and, on
``fcfs-glitchable``, a counter upset.  The pick must agree with the
scan on every winner and competitor set, and the kernels on every
pending counter.

A class-blind pass falls back to the scan when its oldest live request
has aged to the counter modulus ``2**k``.  On a fault-free lane that can
only happen to a normal request held back by urgent traffic: an
unclassed or urgent request never reaches an age of N (§3.2), and
``2**k > N``.  An upset counter can wrap too.
"""

from heapq import heapify

from hypothesis import example, given, settings as hyp_settings, strategies as st

from repro.engine.batch import _FaultFreeFcfsKernel, _FcfsKernel, _GlitchableFcfsKernel


def _counting(kernel_type):
    """``kernel_type``, counting the class-blind passes that scanned."""

    class Counting(kernel_type):
        def __init__(self, *args):
            super().__init__(*args)
            self.scans = 0

        def _scan(self, mask):
            if not self.urgent & self.pending:
                self.scans += 1
            return super()._scan(mask)

    return Counting


def _ids(mask):
    return [agent for agent in range(mask.bit_length()) if mask >> agent & 1]


def _assert_live(kernel, fresh):
    """Heap liveness: every pending request has a live entry, and every
    entry is live or stale (its agent not pending with that stamp).  A
    fresh kernel (fault-free, unclassed) holds its live entries alone."""
    heap = kernel.arrivals
    copy = list(heap)
    heapify(copy)
    assert copy == heap
    live = {
        (stamp, negated)
        for stamp, negated in heap
        if kernel.pending >> -negated & 1 and kernel.stamp[-negated] == stamp
    }
    assert live == {(kernel.stamp[agent], -agent) for agent in _ids(kernel.pending)}
    if fresh:
        assert len(heap) == len(live)


def _drive(kernel, twin, agents, classed, steps, faulted=False):
    """Run ``steps`` on ``kernel`` and on its scanning ``twin``; return
    the kernel's count of class-blind scans.

    Asserts on every pass that the pick equals the scan and, on a
    fault-free drive, that no unclassed or urgent request has reached an
    age of ``agents``; after every step that both kernels hold the same
    requests and counters and that the heap is live; and at the end
    that the kernel scanned exactly on the class-blind passes whose
    oldest request had wrapped.
    """
    modulus = twin.modulus
    fresh = not (faulted or classed)
    wrapped = 0
    now = 0.0
    for step in steps:
        kind = step[0]
        if kind == "request":
            _, agent, urgent, gap = step
            agent = 1 + (agent - 1) % agents
            now += gap
            if not twin.pending >> agent & 1:
                twin.request(agent, now, urgent and classed)
                kernel.request(agent, now, urgent and classed)
        elif kind == "upset":
            _, agent, value = step
            agent = 1 + (agent - 1) % agents
            if faulted and hasattr(kernel, "glitch_counter"):
                assert kernel.glitch_counter(agent, value) == twin.glitch_counter(agent, value)
        elif not twin.pending:
            pass
        elif kind == "arbitrate" or not faulted:
            pending = twin.pending
            urgent = twin.urgent & pending
            oldest = max(twin.counter[agent] for agent in _ids(urgent or pending))
            if not faulted and (urgent or not classed):
                # §3.2: N-1 requests ahead at most, whatever the strategy.
                assert oldest < agents
            wrapped += not urgent and oldest >= modulus
            expected = twin.arbitrate_keys()[:3]
            picked = kernel.arbitrate_classed() if classed else kernel.arbitrate()
            assert picked == expected
            twin.grant(expected[0])
            kernel.grant(expected[0])
        else:
            # A keyed pass that the line faults perturbed: both kernels
            # build the key map; an anomaly grants nobody, a deviation
            # grants another competitor.
            expected = twin.arbitrate_keys()
            assert kernel.arbitrate_keys() == expected
            if kind == "deviate":
                others = [agent for agent in _ids(expected[2]) if agent != expected[0]]
                granted = others[step[1] % len(others)] if others else expected[0]
                twin.grant(granted)
                kernel.grant(granted)
        assert kernel.pending == twin.pending
        assert kernel.urgent & kernel.pending == twin.urgent & twin.pending
        counters = twin.counter
        assert [kernel.counter[a] for a in _ids(twin.pending)] == [
            counters[a] for a in _ids(twin.pending)
        ]
        _assert_live(kernel, fresh)
    assert kernel.scans == wrapped
    return kernel.scans


def _fault_free(strategy, agents, classed, steps):
    kernel = _counting(_FaultFreeFcfsKernel)(agents, strategy)
    return _drive(kernel, _FcfsKernel(agents, strategy), agents, classed, steps)


def _held_back(strategy):
    """Agent 1's normal request held back by urgent agents 2 and 3 for
    more than ``2**k = 4`` passes (and, for strategy 2, ticks); then
    both turn normal, and the oldest counter has wrapped.  Re-requests
    come half a time unit apart, so each raises a new a-incr tick."""
    urgent_stream = [("arbitrate",), ("request", 2, True, 0.5), ("request", 3, True, 0.5)]
    return (
        [("request", 1, False, 0.0), ("request", 2, True, 0.0), ("request", 3, True, 0.0)]
        + urgent_stream * 6
        + [("arbitrate",), ("arbitrate",)]
        + [("request", 2, False, 0.5), ("request", 3, False, 0.5)]
        + [("arbitrate",)] * 3
    )


_request = st.tuples(
    st.just("request"),
    st.integers(min_value=1, max_value=30),
    st.booleans(),
    st.sampled_from([0.0, 0.5]),
)

_steps = st.lists(st.one_of(_request, st.just(("arbitrate",))), max_size=120)

_fault_steps = st.lists(
    st.one_of(
        _request,
        st.just(("arbitrate",)),
        st.just(("anomaly",)),
        st.tuples(st.just("deviate"), st.integers(min_value=0, max_value=29)),
        st.tuples(
            st.just("upset"),
            st.integers(min_value=1, max_value=30),
            st.integers(min_value=0, max_value=63),
        ),
    ),
    max_size=120,
)


@hyp_settings(max_examples=300, deadline=None)
@example(strategy=1, agents=3, classed=True, steps=_held_back(1))
@example(strategy=2, agents=3, classed=True, steps=_held_back(2))
@given(
    strategy=st.sampled_from([1, 2]),
    agents=st.integers(min_value=1, max_value=30),
    classed=st.booleans(),
    steps=_steps,
)
def test_group_pick_equals_scan(strategy, agents, classed, steps):
    _fault_free(strategy, agents, classed, steps)


@hyp_settings(max_examples=300, deadline=None)
@given(
    protocol=st.sampled_from(["fcfs", "fcfs-aincr", "fcfs-glitchable"]),
    agents=st.integers(min_value=1, max_value=30),
    classed=st.booleans(),
    steps=_fault_steps,
)
def test_faulted_heap_pick_equals_scan(protocol, agents, classed, steps):
    # The kernel a lane with a fault injector runs: anomalies and
    # deviations on every FCFS protocol, counter upsets on the
    # glitchable one.
    if protocol == "fcfs-glitchable":
        kernel = _counting(_GlitchableFcfsKernel)(agents)
        twin = _GlitchableFcfsKernel(agents)
    else:
        strategy = 2 if protocol == "fcfs-aincr" else 1
        kernel = _counting(_FcfsKernel)(agents, strategy)
        twin = _FcfsKernel(agents, strategy)
    _drive(kernel, twin, agents, classed, steps, faulted=True)


def test_held_back_request_wraps_into_the_scan():
    for strategy in (1, 2):
        assert _fault_free(strategy, 3, True, _held_back(strategy)) > 0
    # Two agents: one urgent agent alone holds the normal one back.
    steps = [("request", 1, False, 0.0)] + [
        ("request", 2, True, 0.5),
        ("arbitrate",),
    ] * 8 + [("request", 2, False, 0.5), ("arbitrate",)]
    assert _fault_free(1, 2, True, steps) > 0


def _glitchable(agents, steps):
    kernel = _counting(_GlitchableFcfsKernel)(agents)
    _drive(kernel, _GlitchableFcfsKernel(agents), agents, False, steps, faulted=True)
    return kernel


def test_anomalous_winner_is_filed_again():
    # Agents 1-3 request in one pass interval: agent 3 wins, but the
    # pass is anomalous, so it stays pending one clock step younger than
    # agents 1 and 2, which now win in id order before it.
    requests = [("request", agent, False, 0.0) for agent in (1, 2, 3)]
    kernel = _glitchable(3, requests + [("anomaly",)])
    assert kernel.stamp[3] == 1 and kernel.clock == 1
    assert (1, -3) in kernel.arrivals and (0, -3) in kernel.arrivals
    kernel = _glitchable(3, requests + [("anomaly",)] + [("arbitrate",)] * 3)
    assert kernel.pending == 0 and kernel.scans == 0


def test_upset_counter_is_filed_again():
    # Agent 1 requests first; an upset makes agent 3's later request the
    # oldest, so it wins the next pass.  An upset to the counter a
    # request already has files nothing.
    steps = [
        ("request", 1, False, 0.0),
        ("arbitrate",),
        ("request", 1, False, 0.0),
        ("request", 3, False, 0.0),
        ("upset", 3, 3),
    ]
    kernel = _glitchable(3, steps)
    assert kernel.counter[3] == 3 and (-2, -3) in kernel.arrivals
    filed = len(kernel.arrivals)
    assert kernel.glitch_counter(3, 3) and len(kernel.arrivals) == filed
    assert kernel.arbitrate()[0] == 3
    kernel = _glitchable(3, steps + [("upset", 1, 3)] + [("arbitrate",)] * 2)
    assert kernel.pending == 0
    # Agent 1's upset counter 3 wins three anomalous passes while agents
    # 2 and 3 age to 3 as well; agent 3 then wins the fourth, and agents
    # 1 and 2 reach the modulus (4 for three agents).  The oldest live
    # request has wrapped, so the class-blind pass scans, and agent 3's
    # counter 3 beats their wrapped 0.
    wrap = [("request", agent, False, 0.0) for agent in (1, 2, 3)]
    wrap += [("upset", 1, 3)] + [("anomaly",)] * 4 + [("arbitrate",)]
    kernel = _glitchable(3, wrap)
    assert kernel.scans == 1 and kernel.pending == 0b110
