"""Property suite: the FCFS group pick equals the scan.

A fault-free FCFS lane picks each winner from the oldest arrival group
(:class:`~repro.engine.batch._FcfsGroupKernel`) instead of scanning
every pending requester (:class:`~repro.engine.batch._FcfsKernel`, the
kernel the differential suites pin to the event arbiter).  Both
kernels are driven here through the same request, arbitrate and grant
steps, with every pass's winner granted before the next pass as on a
fault-free lane, for both counter strategies, classed and unclassed
requests and 1 to 30 agents.  They must agree on every winner and
competitor set and on every pending counter.

The group pick falls back to the scan on a pass whose oldest group has
aged to the counter modulus ``2**k``.  That can only happen to a normal
request on a classed lane, held back by urgent traffic: an unclassed or
urgent request never reaches an age of N (§3.2), and ``2**k > N``.
"""

from hypothesis import example, given, settings as hyp_settings, strategies as st

from repro.engine.batch import _FcfsGroupKernel, _FcfsKernel


class _CountingGroupKernel(_FcfsGroupKernel):
    """The group kernel, counting the passes that fell back to the scan."""

    def __init__(self, num_agents, strategy):
        super().__init__(num_agents, strategy)
        self.scans = 0

    def _scan(self, mask):
        self.scans += 1
        return super()._scan(mask)


def _ids(mask):
    return [agent for agent in range(mask.bit_length()) if mask >> agent & 1]


def _drive(strategy, agents, classed, steps):
    """Run ``steps`` on both kernels; return the group kernel's scan count.

    Asserts on every pass that the kernels agree and that no unclassed
    or urgent request has reached an age of ``agents``, and at the end
    that the group kernel fell back exactly on the passes whose oldest
    candidate had wrapped.
    """
    scan = _FcfsKernel(agents, strategy)
    group = _CountingGroupKernel(agents, strategy)
    modulus = scan.modulus
    wrapped = 0
    now = 0.0
    for step in steps:
        if step[0] == "request":
            _, agent, urgent, gap = step
            agent = 1 + (agent - 1) % agents
            now += gap
            if not scan.pending >> agent & 1:
                scan.request(agent, now, urgent and classed)
                group.request(agent, now, urgent and classed)
        elif scan.pending:
            pending = scan.pending
            urgent = scan.urgent & pending
            oldest = max(scan.counter[agent] for agent in _ids(urgent or pending))
            if urgent or not classed:
                # §3.2: N-1 requests ahead at most, whatever the strategy.
                assert oldest < agents
            wrapped += oldest >= modulus
            if classed:
                expected = scan.arbitrate_classed()
                picked = group.arbitrate_classed()
            else:
                expected = scan.arbitrate()
                picked = group.arbitrate()
            assert picked == expected
            scan.grant(expected[0])
            group.grant(expected[0])
        assert group.pending == scan.pending
        assert group.urgent & group.pending == scan.urgent & scan.pending
        counters = scan.counter
        assert [group.counter[a] for a in _ids(scan.pending)] == [
            counters[a] for a in _ids(scan.pending)
        ]
        # The groups partition the pending set, oldest stamp first.
        assert list(group.order) == sorted(group.groups)
        assert sum(group.groups.values()) == group.pending
        for stamp, members in group.groups.items():
            assert members
            assert all(group.stamp[a] == stamp for a in _ids(members))
    assert group.scans == wrapped
    return group.scans


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


_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("request"),
            st.integers(min_value=1, max_value=30),
            st.booleans(),
            st.sampled_from([0.0, 0.5]),
        ),
        st.just(("arbitrate",)),
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
    _drive(strategy, agents, classed, steps)


def test_held_back_request_wraps_into_the_scan():
    for strategy in (1, 2):
        assert _drive(strategy, 3, True, _held_back(strategy)) > 0
    # Two agents: one urgent agent alone holds the normal one back.
    steps = [("request", 1, False, 0.0)] + [
        ("request", 2, True, 0.5),
        ("arbitrate",),
    ] * 8 + [("request", 2, False, 0.5), ("arbitrate",)]
    assert _drive(1, 2, True, steps) > 0
