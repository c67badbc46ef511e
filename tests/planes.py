"""Both objectives of an instance as byte planes, for tests that compare
whole cubes: byte i of each is that objective's value at index i.

The library holds no such plane. This builds them by doubling from the
objectives' step tables, far faster than evaluating every index, and
tests/test_problems.py pins them to index_evaluator on the grid.
"""

from bibench.problems import _objective_tables, _state_plane, _translate


def objective_planes(inst):
    """The planes of f1 and f2: from state 0, each index bit read doubles
    the plane of states, which the final values then translate."""
    return [
        _translate(_state_plane(tables, b"\0"), final) for tables, final in _objective_tables(inst)
    ]
