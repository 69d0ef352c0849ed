"""Tests of the benchmark itself, on small slices of each workload.

    python3 -m pytest perfbench/test_perfbench.py

The tracer must leave results unchanged, and every output check must
fire when one verdict is corrupted, so that no check is vacuous.
"""

import copy
import importlib
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import tracer  # noqa: E402
import worker  # noqa: E402

SEED = 3


def workload(name):
    return importlib.import_module(f"workload_{name}")


def small_slice(name, seed=SEED):
    """A cheap, still varied, subset of the workload's items."""
    items = workload(name).generate(seed)
    if name == "table":
        return [it for it in items if it["r"] in (None, 3)][::3]
    if name == "verify":
        return ([it for it in items if it.get("r") == 3]
                + [it for it in items if it["kind"] == "law"][:5])
    return [it for it in items if it["k0"] * max(it["factor_degrees"]) <= 8][:12]


@pytest.fixture(scope="module", params=["table", "verify", "fibers"])
def ran(request):
    name = request.param
    W = workload(name)
    items = small_slice(name)
    outs, _, _, _, errors = worker.run_pass(W, items)
    return name, W, items, outs, errors


def test_program_outputs_pass_their_checks(ran):
    _, W, items, outs, errors = ran
    assert not errors
    assert worker.check_pass(W, items, outs, errors) == {}


def test_tracer_leaves_results_unchanged(ran):
    name, W, items, outs, _ = ran
    hyper = importlib.import_module("frey2.curves").hyper_discriminant
    tr = tracer.Tracer()
    traced, _, _, _, errors = worker.run_pass(W, items, tr)
    assert not errors
    assert [W.render(o) for o in traced] == [W.render(o) for o in outs]
    assert tr.spans, "the traced pass recorded no spans"
    layers = tr.summary()
    assert layers[{"table": "classify.classify.calls", "verify": "families.identities.calls",
                   "fibers": "fibers.singular_points.calls"}[name]] > 0
    # uninstall restored every re-bound name
    assert importlib.import_module("frey2.cli").hyper_discriminant is hyper
    assert importlib.import_module("frey2.pipelines").hyper_discriminant is hyper


def _first(items, outs, pred):
    for it, out in zip(items, outs):
        if pred(it, out):
            return it, copy.deepcopy(out)
    raise AssertionError("no item matches the corruption's precondition")


def _flip_exponent(it, out):
    out["row"]["exponent"] = 2 if out["row"]["exponent"] != 2 else 0


def _drop_conflict(it, out):
    out["row"].pop("conflict")
    out["row"]["oracle_agrees"] = True


TABLE_CORRUPTIONS = {
    "printed exponent": (lambda it, o: True, _flip_exponent),
    "inertial type": (lambda it, o: o["row"]["exponent"] == 2,
                      lambda it, o: o["row"].update(inertial_type="good")),
    "oracle exponent": (lambda it, o: "oracle_exponent" in o["row"],
                        lambda it, o: o["row"].update(oracle_exponent=1)),
    "missing conflict": (lambda it, o: "conflict" in o["row"], _drop_conflict),
    "serialized row": (lambda it, o: True,
                       lambda it, o: o.update(json=o["json"].replace('"r"', '"R"'))),
}

VERIFY_CORRUPTIONS = {
    "identity status": (lambda it, o: it["kind"] == "identities",
                        lambda it, o: o.update({"f-2": "pass"})),
    "closed-form status": (lambda it, o: it.get("family") == "H_rr",
                           lambda it, o: o.update(status="documented-mismatch")),
    "C_plus ratio": (lambda it, o: it.get("family") == "C_plus",
                     lambda it, o: o.update(ratio=None)),
    "law verdict": (lambda it, o: it["kind"] == "law", lambda it, o: o.update(holds=False)),
    "law discriminant": (lambda it, o: it["kind"] == "law",
                         lambda it, o: o.update(before=o["before"] * 2)),
    "law factor": (lambda it, o: it["kind"] == "law",
                   lambda it, o: o.update(factor=o["factor"] + Fraction(1))),
}


def _move_point(it, out):
    out["points"][0][4] ^= 1


FIBERS_CORRUPTIONS = {
    "node count": (lambda it, o: True, lambda it, o: o.update(nodes=o["nodes"] + 1)),
    "fiber kind": (lambda it, o: o["kind"] == "nodal", lambda it, o: o.update(kind="smooth")),
    "point off the curve": (lambda it, o: o["points"], _move_point),
    "missing point": (lambda it, o: o["points"], lambda it, o: o["points"].pop()),
    "point kind": (lambda it, o: o["points"],
                   lambda it, o: o["points"][0].__setitem__(5, "smooth")),
}


@pytest.mark.parametrize("name,corruption", [
    (name, c) for name, table in (("table", TABLE_CORRUPTIONS), ("verify", VERIFY_CORRUPTIONS),
                                  ("fibers", FIBERS_CORRUPTIONS))
    for c in table])
def test_each_check_fires(name, corruption):
    W = workload(name)
    items = small_slice(name)
    if name == "table":
        # the slice has too few ppr-odd rows to be sure of a conflict
        items = [it for it in W.generate(SEED) if it["signature"] == "ppr-odd"
                 and it["r"] == 3][:3] + items
    pred, corrupt = {"table": TABLE_CORRUPTIONS, "verify": VERIFY_CORRUPTIONS,
                     "fibers": FIBERS_CORRUPTIONS}[name][corruption]
    outs = [W.run(it) for it in items]
    it, out = _first(items, outs, pred)
    assert W.check(it, out) == []
    corrupt(it, out)
    assert W.check(it, out), f"{corruption} corruption went unnoticed"


@pytest.mark.parametrize("name", ["table", "verify", "fibers"])
def test_inputs_are_seeded(name):
    W = workload(name)
    a, b, c = W.generate(7), W.generate(7), W.generate(8)
    assert a == b
    assert a != c
    assert W.describe(a) == W.describe(c)
    W.check_inputs(c)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
