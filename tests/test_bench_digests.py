"""The benchmark's seed-1 answers are pinned.

perfbench/workloads.py is loaded from its file, read only.  Each case of a
workload runs once through its kind's run, canon and check, and the sha256
of the answers must be the digest below, which perfbench/run.py prints for
`--seed 1`.  A change that alters any answer of the benchmark fails here.
"""

import pytest

from helpers import perfbench_workloads

DIGESTS = {
    "h1-permutation": "06a95b0c94d7ae13bfa2e13aaf8f6633dcfd19b7035a8970202cb4dac968deae",
    "serre-lattices": "b631f80883d77d252dceeda9bfd5b81faae80d4639b3d9c45719e5590ed2313a",
    "tables-primes": "e77d059931f46c2a13351c09ac6db43ec5517b5a78de4d793c5da716d4a7b117",
}


@pytest.fixture(scope="module")
def workloads():
    with perfbench_workloads() as module:
        yield module


def test_every_workload_has_a_digest(workloads):
    assert sorted(workloads.WORKLOADS) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_seed_1_digest(workloads, name):
    rows, wrong = [], []
    for case in workloads.build(name, 1):
        run, canon, check = workloads.KINDS[case.kind]
        answer = canon(case.args, run(case.args))
        if not check(case.args, answer):
            wrong.append(case.key)
        rows.append((case.key, answer))
    assert wrong == []
    assert workloads.digest(rows) == DIGESTS[name]
