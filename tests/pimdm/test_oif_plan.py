"""The memoised (S,G) forwarding plan against a live recomputation.

``PimDmEngine.outgoing_ifaces`` keeps the entry's oif list in an
``OifPlan`` and recomputes it only when its validity key changes (the
engine epoch, the upstream interface, the downstream pruned and
assert-loser flags).  The differential tests below wrap the method so
that every call, from every caller, also computes the list from
scratch and records any difference: a control event that changes the
list without changing the key shows up as a mismatch.
"""

from __future__ import annotations

import pytest

from repro.chaos import chaos_cell
from repro.core.comparison import run_full_comparison
from repro.core.fluidstudy import fluid_cell
from repro.core.goldens import CANNED_RUNS
from repro.core.scenario import PaperScenario, ScenarioConfig
from repro.net import Address, ApplicationData
from repro.pimdm import STATE_BACKENDS, PimDmConfig, PimDmEngine

from topo_helpers import build_line

SMALL_HIER = {"model": "hier", "depth": 2, "fanout": 3}


@pytest.fixture
def checked(monkeypatch):
    """Wrap ``outgoing_ifaces`` so each call is checked against a fresh
    computation; returns the call count and the mismatches seen."""
    original = PimDmEngine.outgoing_ifaces
    seen = {"calls": 0, "mismatches": []}

    def outgoing_ifaces(self, entry):
        memo = original(self, entry)
        live = self._live_oifs(entry)
        seen["calls"] += 1
        if tuple(memo) != live:
            seen["mismatches"].append(
                (
                    self.node.name,
                    self.node.sim.now,
                    str(entry.source),
                    [i.name for i in memo],
                    [i.name for i in live],
                )
            )
        return memo

    monkeypatch.setattr(PimDmEngine, "outgoing_ifaces", outgoing_ifaces)
    return seen


def assert_clean(seen) -> None:
    assert seen["calls"] > 0
    assert seen["mismatches"] == [], seen["mismatches"][:5]


# ----------------------------------------------------------------------
# differential runs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", STATE_BACKENDS)
@pytest.mark.parametrize("name", ("fig2", "fig3", "fig4"))
def test_figures_memo_matches_live(checked, name, backend):
    recipe = CANNED_RUNS[name]
    sc = PaperScenario(
        ScenarioConfig(
            seed=0, approach=recipe.approach, pim=PimDmConfig(state_backend=backend)
        )
    )
    sc.converge()
    host, link = recipe.move
    sc.move(host, link, at=recipe.move_at)
    sc.run_until(recipe.run_until)
    assert_clean(checked)


def test_comparison_cells_memo_matches_live(checked):
    report = run_full_comparison(seed=0, jobs=1)
    assert report.all_claims_hold
    assert_clean(checked)


@pytest.mark.parametrize("backend", STATE_BACKENDS)
@pytest.mark.parametrize("archetype", ("flaps", "ha-storm"))
def test_nemesis_cell_memo_matches_live(checked, archetype, backend):
    """Link down/up (flaps) and home-agent crash/restart (ha-storm)."""
    row = chaos_cell(
        topo=SMALL_HIER, archetype=archetype, intensity=0.6,
        receivers=6, seed=2, backend=backend,
    )
    assert row["converged"], row["divergence_rules"]
    assert_clean(checked)


def test_fluid_cell_memo_matches_live(checked):
    row = fluid_cell(
        model="hier", model_params={"depth": 2, "fanout": 3},
        receivers=20, warmup=5.0, duration=10.0,
    )
    assert row["traffic_model"] == "fluid"
    assert_clean(checked)


# ----------------------------------------------------------------------
# invalidation by direct state writes
# ----------------------------------------------------------------------
def _flooding_line(backend):
    """R0 has just flooded one datagram toward R1 (no prune yet)."""
    topo = build_line(2, pim_config=PimDmConfig(state_backend=backend))
    sender = topo.host_on(0, 100, "S")
    topo.net.run(until=1.0)
    sender.send_multicast(topo.group, ApplicationData(seqno=0))
    topo.net.run(until=1.1)
    r0 = topo.routers[0]
    entry = r0.pim.get_entry(sender.primary_address(), topo.group)
    iface = r0.iface_on(topo.links[1])
    assert iface in r0.pim.outgoing_ifaces(entry)
    return topo, r0, entry, iface


@pytest.mark.parametrize("backend", STATE_BACKENDS)
@pytest.mark.parametrize("flag", ("pruned", "assert_loser"))
def test_direct_flag_write_invalidates(backend, flag):
    _, r0, entry, iface = _flooding_line(backend)
    ds = entry.downstream_state(iface)
    setattr(ds, flag, True)
    assert iface not in r0.pim.outgoing_ifaces(entry)
    setattr(ds, flag, False)
    assert iface in r0.pim.outgoing_ifaces(entry)


@pytest.mark.parametrize("backend", STATE_BACKENDS)
def test_upstream_change_invalidates(backend):
    _, r0, entry, iface = _flooding_line(backend)
    entry.upstream_iface = iface
    assert iface not in r0.pim.outgoing_ifaces(entry)


def test_interface_detach_invalidates():
    _, r0, entry, iface = _flooding_line("compact")
    iface.detach()
    assert iface not in r0.pim.outgoing_ifaces(entry)


def test_forward_record_uses_plan_text():
    topo, r0, entry, _ = _flooding_line("compact")
    forward = topo.net.tracer.first("mcast.forward", node="R0")
    plan = entry.oif_plan
    assert forward.detail["source"] == plan.source == str(entry.source)
    assert forward.detail["group"] == plan.group == str(Address(topo.group))
    assert forward.detail["links"] == plan.links == ["L1"]
    # each record owns its list: mutating one leaves the plan intact
    forward.detail["links"].append("X")
    assert plan.links == ["L1"]
