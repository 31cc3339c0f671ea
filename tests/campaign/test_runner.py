"""Campaign-engine determinism: sharding and caching must be invisible.

The two properties the golden tables stand on:

* the same grid run with ``jobs=1`` and ``jobs=N`` yields identical
  results in identical order (scheduling never leaks into payloads),
* a warm-cache re-run executes nothing and returns payloads
  bit-identical to the cold run's.

Both are checked property-style with hypothesis over randomized
``selftest.echo`` grids (cheap, no simulation) and once against a real
simulation grid.
"""

from __future__ import annotations

import gc
import json
import weakref

from hypothesis import given, settings, strategies as st

from repro.campaign import (
    CampaignCell,
    CampaignGrid,
    CampaignRunner,
    resolve_cell,
)
from repro.campaign import tasks
from repro.campaign.runner import _execute_cell
from repro.obs import MetricsRegistry
from repro.sim import derive_seed

echo_grids = st.builds(
    CampaignGrid,
    st.just("selftest.echo"),
    axes=st.fixed_dictionaries(
        {
            "x": st.lists(st.integers(0, 9), min_size=1, max_size=3, unique=True),
            "y": st.lists(st.text("ab", max_size=2), min_size=1, max_size=2,
                          unique=True),
        }
    ),
    base=st.fixed_dictionaries({"tag": st.sampled_from(["t0", "t1"])}),
)


def payload_bytes(result) -> bytes:
    return json.dumps(result.results(), sort_keys=True).encode()


class TestShardingDeterminism:
    @settings(max_examples=8, deadline=None)
    @given(echo_grids, st.integers(0, 2**31 - 1))
    def test_serial_and_sharded_runs_are_identical(self, grid, master_seed):
        serial = CampaignRunner(jobs=1, master_seed=master_seed).run(grid)
        sharded = CampaignRunner(jobs=3, master_seed=master_seed).run(grid)
        assert payload_bytes(serial) == payload_bytes(sharded)
        assert [o.cell for o in serial.outcomes] == [o.cell for o in sharded.outcomes]
        assert [o.key for o in serial.outcomes] == [o.key for o in sharded.outcomes]

    def test_real_simulation_grid_is_shard_independent(self):
        grid = CampaignGrid(
            "timers.point",
            axes={"query_interval": [10.0, 25.0]},
            base={"seed": 0},
        )
        serial = CampaignRunner(jobs=1).run(grid)
        sharded = CampaignRunner(jobs=2).run(grid)
        assert payload_bytes(serial) == payload_bytes(sharded)


class TestCacheDeterminism:
    @settings(max_examples=8, deadline=None)
    @given(echo_grids, st.integers(0, 2**31 - 1))
    def test_warm_cache_is_bit_identical_and_executes_nothing(
        self, tmp_path_factory, grid, master_seed
    ):
        cache_dir = tmp_path_factory.mktemp("campaign-cache")
        cold = CampaignRunner(
            jobs=1, cache_dir=cache_dir, master_seed=master_seed
        ).run(grid)
        warm = CampaignRunner(
            jobs=1, cache_dir=cache_dir, master_seed=master_seed
        ).run(grid)
        assert cold.executed == len(grid) and cold.cached == 0
        assert warm.executed == 0 and warm.cached == len(grid)
        assert payload_bytes(cold) == payload_bytes(warm)

    def test_cache_hits_cross_jobs_settings(self, tmp_path):
        """A cache warmed by a sharded run satisfies a serial run."""
        grid = CampaignGrid("selftest.echo", axes={"x": [1, 2, 3, 4]})
        cold = CampaignRunner(jobs=2, cache_dir=tmp_path).run(grid)
        warm = CampaignRunner(jobs=1, cache_dir=tmp_path).run(grid)
        assert warm.executed == 0
        assert payload_bytes(cold) == payload_bytes(warm)

    def test_different_master_seed_misses_the_cache(self, tmp_path):
        grid = CampaignGrid("selftest.echo", axes={"x": [1, 2]})
        CampaignRunner(jobs=1, cache_dir=tmp_path, master_seed=0).run(grid)
        rerun = CampaignRunner(jobs=1, cache_dir=tmp_path, master_seed=1).run(grid)
        assert rerun.executed == len(grid)


class TestSeedResolution:
    def test_explicit_seed_wins(self):
        cell = CampaignCell("selftest.echo", {"seed": 42, "x": 1})
        assert resolve_cell(cell, master_seed=7).params["seed"] == 42

    def test_derived_seed_matches_the_documented_scheme(self):
        cell = CampaignCell("selftest.echo", {"x": 1})
        resolved = resolve_cell(cell, master_seed=7)
        assert resolved.params["seed"] == derive_seed(
            7, 'selftest.echo:{"x":1}'
        )

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_derived_seed_ignores_param_order(self, master_seed):
        a = CampaignCell("selftest.echo", {"x": 1, "y": "b"})
        b = CampaignCell("selftest.echo", {"y": "b", "x": 1})
        assert (
            resolve_cell(a, master_seed).params["seed"]
            == resolve_cell(b, master_seed).params["seed"]
        )

    def test_sibling_cells_get_distinct_seeds(self):
        grid = CampaignGrid("selftest.echo", axes={"x": list(range(8))})
        seeds = {resolve_cell(c, 0).params["seed"] for c in grid}
        assert len(seeds) == len(grid)


class TestProgressAndMetrics:
    def test_progress_callback_sees_every_cell(self, tmp_path):
        seen = []
        grid = CampaignGrid("selftest.echo", axes={"x": [1, 2, 3]})
        runner = CampaignRunner(
            jobs=1,
            cache_dir=tmp_path,
            progress=lambda done, total, outcome: seen.append(
                (done, total, outcome.cached)
            ),
        )
        runner.run(grid)
        assert seen == [(1, 3, False), (2, 3, False), (3, 3, False)]
        seen.clear()
        runner.run(grid)
        assert seen == [(1, 3, True), (2, 3, True), (3, 3, True)]

    def test_metrics_registry_counts_cached_vs_executed(self, tmp_path):
        registry = MetricsRegistry()
        grid = CampaignGrid("selftest.echo", axes={"x": [1, 2]})
        runner = CampaignRunner(jobs=1, cache_dir=tmp_path, registry=registry)
        runner.run(grid)
        runner.run(grid)
        text = registry.render_prometheus()
        assert (
            'repro_campaign_cells_total{status="executed",task="selftest.echo"} 2'
            in text
            or 'repro_campaign_cells_total{task="selftest.echo",status="executed"} 2'
            in text
        )
        assert runner.stats() == {
            "campaigns": 2,
            "cells": 4,
            "executed": 2,
            "cached": 2,
            "failed": 0,
            "retries": 0,
            "pool_restarts": 0,
            "jobs": 1,
            "wall_clock": runner.stats()["wall_clock"],
        }


class _Node:
    pass


class TestCellMemory:
    def test_execute_cell_frees_the_cells_cyclic_garbage(self, monkeypatch):
        refs = []

        def build_cycle(seed: int = 0):
            node = _Node()
            node.self = node  # unreachable once the task returns
            refs.append(weakref.ref(node))
            return {"seed": seed}

        monkeypatch.setitem(tasks._REGISTRY, "test.cycle", build_cycle)
        enabled = gc.isenabled()
        gc.disable()  # only the runner's own collection may free it
        try:
            result, _, error = _execute_cell("test.cycle", {"seed": 3})
            assert refs and refs[0]() is None
        finally:
            if enabled:
                gc.enable()
        assert error is None and result == {"seed": 3}
