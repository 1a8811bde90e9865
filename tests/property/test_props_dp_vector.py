"""Property-based tests: scalar/vector DP bit-identity over random instances.

The vectorized backend's contract is *exact* equality with the scalar
scan — value, schedule, states — on every correlated instance.  Random
snapshot round trips ride along: saving and loading a table built from a
random box must preserve every entry byte for byte.
"""

from hypothesis import given, settings

from repro.core.dp import solve_dp
from repro.core.dp_vector import solve_dp_vector

from tests.strategies import multicast_sets


@given(multicast_sets(max_n=8, max_types=3))
@settings(max_examples=60, deadline=None)
def test_vector_solve_bit_identical(mset):
    scalar = solve_dp(mset)
    vector = solve_dp_vector(mset)
    assert vector.value == scalar.value
    assert vector.schedule == scalar.schedule
    assert vector.schedule.reception_times == scalar.schedule.reception_times
    assert vector.schedule.delivery_times == scalar.schedule.delivery_times
    assert vector.states_computed == scalar.states_computed


@given(multicast_sets(max_n=7, max_types=3, max_latency=4))
@settings(max_examples=30, deadline=None)
def test_vector_snapshot_round_trip(tmp_path_factory, mset):
    """A random table snapshots and reloads with every entry intact."""
    from repro.core.canonical import canonicalize
    from repro.core.dp_table import OptimalTable

    canon = canonicalize(mset).mset
    counts = canon.destination_type_counts()
    table = OptimalTable(
        canon.type_keys(), counts, canon.latency, backend="vector"
    ).build()
    path = tmp_path_factory.mktemp("snap") / "t.snap"
    table.save_snapshot(path)
    loaded = OptimalTable.load_snapshot(path)
    k = len(counts)
    for s in range(k):
        assert loaded.completion(s, counts) == table.completion(s, counts)
    assert loaded.schedule_for(canon) == table.schedule_for(canon)
