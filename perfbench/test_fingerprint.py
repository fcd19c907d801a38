"""Pinned fingerprints of the benchmark workloads.

For a fixed seed and number of rounds the outcome counts, the op counts per
condition or pipeline and the total Budget steps depend only on the
generators and the library's algorithms, never on timing, so an
algorithmic change shows here without timing noise.  A change that moves
these numbers on purpose updates them and says why.

    python3 -m pytest perfbench/test_fingerprint.py
"""
import pytest

import run

SEED = 7
ROUNDS = 1

PINNED = {
    "check_sweep": {
        "ops": 52, "yes": 26, "no": 26,
        "ops_by_target": {"cor1": 8, "dgns": 8, "edmonds": 8, "fkk": 8,
                          "frank_mixed": 6, "kiraly": 8, "main": 6},
        "budget_steps": 483554, "failed": 0,
    },
    "pack_yes": {
        "ops": 156, "yes": 156, "no": 0,
        "ops_by_target": {"cor1": 130, "main": 8, "mrb_mixed": 18},
        "budget_steps": 314148, "failed": 0,
    },
    "pack_no": {
        "ops": 221, "yes": 0, "no": 221,
        "ops_by_target": {"cor1": 195, "main": 8, "mrb_mixed": 18},
        "budget_steps": 139457, "failed": 0,
    },
}


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_fingerprint(workload):
    assert run.fingerprint(workload, SEED, ROUNDS) == PINNED[workload]


def test_rounds_are_prefix_stable():
    first = run.workloads.generate("pack_no", SEED, 1)
    assert run.workloads.generate("pack_no", SEED, 2)[0] == first[0]
