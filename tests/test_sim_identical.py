"""``scripts/sim_identical.py``'s heal gate on synthetic reports: no
scenario runs."""

import importlib.util
import json
import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "sim_identical", REPO / "scripts" / "sim_identical.py"
)
sim_identical = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sim_identical)

Cell = sim_identical.Cell


def _report(reconnects: int) -> bytes:
    """What ``python -m repro.chaos --json`` prints for one run."""
    body = {"ok": True, "stats": {"reconnects": reconnects, "waves": 2}}
    return (b"chaos fleet_fanin seed=3: OK\n" + json.dumps(body).encode()
            + b"\n1/1 chaos runs passed\n")


@pytest.mark.parametrize("reconnects, fails", [(0, True), (2500, False)])
def test_a_hub_partition_must_resume_sessions(reconnects, fails):
    cell = Cell("fleet_fanin", "link_down@3:site=hub,for=5", True)
    assert sim_identical.heals_nothing(cell, _report(reconnects)) is fails


@pytest.mark.parametrize("cell", [
    Cell("fleet_fanin", "link_down@1.1:site=ep000007,for=2", True),
    Cell("wan_transfer", "link_down@3:site=B,for=30", True),
])
def test_no_other_cell_is_held_to_a_heal(cell):
    assert not sim_identical.heals_nothing(cell, _report(0))

