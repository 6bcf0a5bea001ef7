"""ORACLE_EVIDENCE.json, the measured reach of the numerical oracle that
tools/oracle_evidence.py writes, parses with the stated keys, every order the grid
runs lies within the grid's bound on the grid's points and on the sample, and the
file holds what the tool computes from the code as it stands."""
import importlib.util
import json
from pathlib import Path

from ncstirling.jets import GRID_MAX_ORDER, GRID_REL_TOL

ROOT = Path(__file__).resolve().parent.parent
RECORD_KEYS = ["points", "max_rel_residual", "at", "max_over_cond_u", "cond_at"]


def test_oracle_evidence_covers_the_grid_orders_within_the_bound():
    doc = json.loads((ROOT / "ORACLE_EVIDENCE.json").read_text())
    assert doc["grid_max_order"] == GRID_MAX_ORDER and doc["grid_rel_tol"] == GRID_REL_TOL
    assert doc["max_order"] >= GRID_MAX_ORDER
    assert [order["n"] for order in doc["orders"]] == list(range(doc["max_order"] + 1))
    for order in doc["orders"]:
        for name, points in (("grid", 7 * 5 * 4), ("sample", doc["sample"]["points"])):
            record = order[name]
            assert list(record) == RECORD_KEYS, (order["n"], name)
            assert record["points"] == points, (order["n"], name)
            assert record["max_rel_residual"] >= 0 and record["max_over_cond_u"] >= 0
            assert isinstance(record["at"], str) and isinstance(record["cond_at"], str)
            if order["n"] <= GRID_MAX_ORDER:
                assert record["max_rel_residual"] <= GRID_REL_TOL, (order["n"], name)


def test_oracle_evidence_is_what_the_tool_computes():
    # the document built in memory, through a JSON round trip as the file is written, is the
    # committed one on every key but the two that name the host that wrote it
    spec = importlib.util.spec_from_file_location("oracle_evidence",
                                                  ROOT / "tools" / "oracle_evidence.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    computed = json.loads(json.dumps(tool.evidence()))
    committed = json.loads((ROOT / "ORACLE_EVIDENCE.json").read_text())
    for doc in (computed, committed):
        del doc["python"], doc["machine"]
    assert computed == committed
