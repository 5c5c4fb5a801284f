"""Harness smoke tests: every experiment runs on the quick config and its
report carries the structure the paper's artifact has."""

from __future__ import annotations

import pytest

from repro.harness import (
    build_components,
    quick_config,
    run_aggregation_benefit,
    run_cost_variation,
    run_policy_comparison,
    run_scheme_comparison,
    run_stream,
    run_table1,
    run_table2,
    run_table3,
)
from repro.harness.config import ExperimentConfig
from repro.harness.streams import SchemeSpec
from repro.harness.table2 import table2_levels


@pytest.fixture(scope="module")
def config():
    return quick_config()


def test_build_components_memoised(config):
    assert build_components(config) is build_components(config)


def test_table1_structure(config):
    result = run_table1(
        config,
        esmc_preloaded_config=ExperimentConfig(
            schema_name="apb_tiny", num_tuples=100
        ),
    )
    for algo in ("esm", "esmc", "vcm", "vcmc"):
        assert result.empty[algo].count == 12
        assert result.preloaded[algo].count == 12
    text = result.format()
    assert "Table 1" in text and "ESMC" in text


def test_table1_vcm_beats_esmc_on_average(config):
    result = run_table1(config)
    assert result.empty["vcm"].average <= result.empty["esmc"].average + 0.5


def test_table2_levels_generalisation():
    assert table2_levels((6, 2, 3, 1, 1)) == ((6, 2, 3, 1, 0), (6, 2, 3, 0, 0))
    assert table2_levels((2, 1, 1)) == ((2, 1, 0), (2, 0, 0))


def test_table2_vcm_second_load_propagates_nothing(config):
    result = run_table2(config)
    # Once the first (finer) level is loaded, every chunk is computable:
    # VCM's inserts on the second level touch only the chunk's own count.
    _, second_updates = result.updates["vcm"]
    second_level = result.levels[1]
    schema = quick_config().make_schema()
    assert second_updates == schema.num_chunks(second_level)
    # VCMC still pays: the new level changes descendants' least costs.
    assert result.updates["vcmc"][1] > result.updates["vcm"][1]
    assert "Table 2" in result.format()


def test_table3_matches_paper_ratios(config):
    result = run_table3(config)
    assert result.state_bytes["esm"] == 0
    assert result.state_bytes["esmc"] == 0
    assert result.state_bytes["vcmc"] == 6 * result.state_bytes["vcm"]
    assert result.state_bytes["vcm"] == result.total_chunks
    assert "% of base" in result.format()


def test_aggregation_benefit_cache_wins(config):
    result = run_aggregation_benefit(config)
    assert result.speedup.count > 0
    assert result.speedup.average > 1.0
    assert result.cache_ms.average < result.backend_ms.average
    assert "benefit of aggregation" in result.format()


def test_cost_variation_ratios_at_least_one(config):
    result = run_cost_variation(config)
    assert result.ratio.count > 0
    assert result.ratio.min_value >= 1.0 - 1e-9
    assert "fastest" in result.format()


def test_run_stream_accounting(config):
    result = run_stream(
        config, SchemeSpec(strategy="vcmc", policy="two_level"), 1.2
    )
    assert result.queries == config.num_queries
    assert 0 <= result.complete_hits <= result.queries
    assert result.total.total_ms > 0
    assert result.hit_ratio == result.complete_hits / result.queries


def test_run_stream_memoised(config):
    spec = SchemeSpec(strategy="vcmc", policy="two_level")
    assert run_stream(config, spec, 1.2) is run_stream(config, spec, 1.2)


def test_policy_comparison_structure(config):
    result = run_policy_comparison(config)
    assert set(result.policies()) == {"benefit", "two_level"}
    assert len(result.results) == 2 * len(config.cache_fractions)
    assert "Figure 7" in result.format_fig7()
    assert "Figure 8" in result.format_fig8()


def test_scheme_comparison_structure(config):
    result = run_scheme_comparison(config)
    assert len(result.results) == 3 * len(config.cache_fractions)
    assert "Figure 9" in result.format_fig9()
    assert "Figure 10" in result.format_fig10()
    assert "Table 4" in result.format_table4()


def test_active_cache_beats_noagg_on_hits(config):
    """Figure 9's headline: aggregation-capable schemes get far more
    complete hits than the conventional cache at a big cache size."""
    result = run_scheme_comparison(config)
    big = max(config.cache_fractions)
    assert result.get("vcmc", big).complete_hits > result.get(
        "noagg", big
    ).complete_hits


def test_cli_quick_run(capsys):
    from repro.harness.__main__ import main

    assert main(["--quick", "table3"]) == 0
    out = capsys.readouterr().out
    assert "Table 3" in out


def test_cli_store_switch_is_cell_identical(capsys):
    """--store mmap routes every experiment through the columnar store
    and produces exactly the tables --store dict does."""
    from repro.harness.__main__ import main

    outputs = {}
    for store in ("dict", "mmap"):
        assert main(["--quick", "--store", store, "fig7", "table3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out and "Table 3" in out
        # Strip the configuration echo (it names the store) and the
        # timing lines (wall-clock noise); the hit-ratio and state-byte
        # cells must match exactly.  tests/backend/test_chunkstore.py
        # (test_answers_do_not_depend_on_the_store) holds the *answers*
        # to cell identity — this checks the CLI plumbing end to end.
        outputs[store] = [
            line
            for line in out.splitlines()
            if not line.startswith("# Configuration")
            and not line.startswith("[")
        ]
    assert outputs["dict"] == outputs["mmap"]
