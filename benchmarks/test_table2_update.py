"""Table 2 (E4): VCM/VCMC state-update times on chunk insertion.

Benchmarked kernel: one count-store insert+evict round trip at the base
level (the maintenance cost every cache movement pays).  The full Table 2
— loading level (6,2,3,1,0) then (6,2,3,0,0), min/max/avg per insert —
is regenerated and written to ``results/table2.txt``.
"""

from __future__ import annotations

import pytest

from repro.core.counts import CountStore
from repro.core.costs import CostStore
from repro.harness.common import build_components
from repro.harness.table2 import run_table2


@pytest.fixture(scope="module")
def components(config):
    return build_components(config)


def test_vcm_insert_evict_roundtrip(benchmark, components):
    store = CountStore(components.schema)
    base = components.schema.base_level

    def roundtrip():
        store.on_insert_many([(base, 0)])
        store.on_evict_many([(base, 0)])

    benchmark(roundtrip)
    assert store.count(base, 0) == 0


def test_vcmc_insert_evict_roundtrip(benchmark, components):
    store = CostStore(components.schema, components.sizes)
    base = components.schema.base_level

    def roundtrip():
        store.on_insert_many([(base, 0)])
        store.on_evict_many([(base, 0)])

    benchmark(roundtrip)
    assert not store.is_computable(base, 0)


def test_table2_full_reproduction(benchmark, config, emit):
    result = benchmark.pedantic(
        lambda: run_table2(config), rounds=1, iterations=1
    )
    emit("table2", result.format())
    vcm_first, vcm_second = result.times["vcm"]
    vcmc_first, vcmc_second = result.times["vcmc"]
    # Paper signature: after the first load everything is computable, so
    # VCM's second-load updates stop at the inserted chunk itself...
    assert vcm_second.average <= vcm_first.average
    # ...while VCMC still propagates cost changes to descendants.
    assert result.updates["vcmc"][1] > result.updates["vcm"][1]
