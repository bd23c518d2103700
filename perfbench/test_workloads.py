"""The workload seed reaches the dispatch order, and only the seed does."""

import pytest

from perfbench.workloads import WORKLOADS
from repro.workloads.engine import dispatch_fingerprint

#: Long enough for every workload's seeded draws to reach the log.
SIM_US = 300_000


def fingerprint(name: str, seed: int) -> str:
    built = WORKLOADS[name].build(seed)
    built.kernel.run_for(SIM_US)
    return dispatch_fingerprint(built.kernel)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_fingerprint_and_seeds_differ(name):
    first = fingerprint(name, 1)
    assert fingerprint(name, 1) == first
    assert fingerprint(name, 2) != first
