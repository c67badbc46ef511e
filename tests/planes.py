"""Helpers for tests that read the cube's block layout.

objective_planes gives both objectives of an instance as byte planes, for
tests that compare whole cubes: byte i of each is that objective's value at
index i. The library holds no such plane. This builds them by doubling from
the objectives' step tables, far faster than evaluating every index, and
tests/test_problems.py pins them to index_evaluator on the grid.

at_span is the one way for a test to change the blocks' span.
"""

from contextlib import contextmanager
from unittest import mock

from bibench import problems
from bibench.problems import _objective_tables, _state_plane, _translate


def objective_planes(inst):
    """The planes of f1 and f2: from state 0, each index bit read doubles
    the plane of states, which the final values then translate."""
    return [
        _translate(_state_plane(tables, b"\0"), final) for tables, final in _objective_tables(inst)
    ]


@contextmanager
def at_span(value):
    """The cube cut into blocks of 2^value indices (problems._SET_BITS)
    inside the with statement. The cells are kept per automaton whatever the
    span, so they are cleared on entry and again on exit: none built at one
    span is read at another."""
    problems._cells.cache_clear()
    try:
        with mock.patch.object(problems, "_SET_BITS", value):
            yield
    finally:
        problems._cells.cache_clear()
