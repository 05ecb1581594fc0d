"""End-to-end and per-layer benchmark of the bus-arbitration simulator.

``perfbench/run.py`` is the command; this package holds its parts:

- :mod:`arbbench.measure`: percentiles that refuse thin tails, output
  digests, peak memory and CPU pinning;
- :mod:`arbbench.spans`: the in-memory span recorder and self-time
  arithmetic of the traced run;
- :mod:`arbbench.layers`: timed wrappers around the program's public
  layer functions (request hashing and codec, cache I/O, the lane and
  direct runners, the planner and ``execute_plan``);
- :mod:`arbbench.loadgen`: the open-loop job generator and the
  closed-loop saturation loop;
- :mod:`arbbench.workloads`: the three workloads.

Nothing here changes the program: every layer is timed from outside,
by wrapping calls into its public functions.
"""
