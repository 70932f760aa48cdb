"""Byte-for-byte golden reports of the CLI.

Each case is a CLI invocation whose standard output is stored in
``tests/golden/<name>.json`` (``<name>.csv`` for the catalog's CSV output).
The stored outputs pin the reports, including the order of every list in
them, across refactors of the engine.  To rewrite
them after a deliberate change of a report, run

    PYTHONPATH=src python tests/test_golden.py

The unscaled Theorem 2 control has no CLI verb; its reports are stored the
same way from ``verify_theorem2(model, rescaled=False)``, so its failure
counts and the order of its mismatches are pinned too.  So is the report
of twist-iso B on E1 x K3A with the first two weights of the twist swapped,
the control whose mismatches are ``bidegree changed`` records.
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from lgmirror.bvlg import TwistModel, block_j_elements, build_bv, verify_twist_iso
from lgmirror.cli import main
from lgmirror.frobenius import verify_theorem2
from lgmirror.polyring import WeightSystem, parse_polynomial, weight_system
from lgmirror.symmetry import parse_group_elements

GOLDEN = pathlib.Path(__file__).with_name("golden")

E1 = "x0^2+x1^3+x2^6"
E2 = "x0^2+x1^4+x2^4"
K3A = "y0^2+y1^6+y2^6+y3^6"
OCTIC = "y0^2+y1^8+y2^8+y3^8+y4^8"
OVERCAP = "y0^2+y1^3+y2^12+y3^24+y4^24"
NONPRODUCT = "1/2,1/4,1/4,0,0,0,0;0,0,0,1/2,1/6,1/6,1/6;0,1/4,3/4,0,1/6,5/6,0"
VERBS = (
    "theorem1", "bvms", "twist-iso", "group-lemma", "lgcy",
    "twist-corollary", "mirror", "twist", "theorem2",
)

CASES = {
    "analyze_e1": ["analyze", E1, "--json"],
    "analyze_k3a": ["analyze", K3A, "--json"],
    "state_space_a_k3a": ["state-space", "A", "--w", K3A, "--gens", "1/2,1/6,1/6,1/6", "--json"],
    "state_space_b_k3a": ["state-space", "B", "--w", K3A, "--gens", "0,1/6,1/6,2/3;1/2,1/2,0,0", "--json"],
}
for _verb in VERBS:
    CASES[f"e1k3a_{_verb}"] = ["bv", _verb, "--w1", E1, "--w2", K3A, "--json"]
    CASES[f"nonproduct_{_verb}"] = ["bv", _verb, "--w1", E2, "--w2", K3A, "--gens", NONPRODUCT, "--json"]
# the large model: its dual groups and Milnor bases are the biggest built
for _verb in ("theorem1", "bvms", "twist-iso", "mirror", "theorem2"):
    CASES[f"e1octic_{_verb}"] = ["bv", _verb, "--w1", E1, "--w2", OCTIC, "--json"]
# the largest admissible group on the octic rung, G = SL(W1) x SL(W2)
SL_OCTIC = (
    "0,1/3,2/3,0,0,0,0,0;1/2,0,1/2,0,0,0,0,0;0,0,0,0,0,0,1/8,7/8;"
    "0,0,0,0,0,1/8,0,7/8;0,0,0,0,1/8,0,0,7/8;0,0,0,1/2,0,0,0,1/2"
)
CASES["e1octic_sl_theorem2"] = ["bv", "theorem2", "--w1", E1, "--w2", OCTIC, "--gens", SL_OCTIC, "--json"]
# the rung past the Gmax cap: |Gmax(W1 + W2)| = 1,327,104, |G^T| = 13,824
CASES["e2overcap_theorem1"] = ["bv", "theorem1", "--w1", E2, "--w2", OVERCAP, "--json"]
# the K3 catalog with the invertible sample of each half-degree system
CASES["catalog_list_samples"] = ["catalog", "list", "--with-samples", "--json"]
CASES["catalog_filter_samples"] = ["catalog", "filter", "--with-samples"]
CASES["catalog_filter_half_samples"] = [
    "catalog", "filter", "--half-degree-only", "--with-samples", "--json",
]


# (w1, w2, generators or "" for J1 x J2) of the unscaled Theorem 2 control
UNSCALED = {
    "e1k3a_theorem2_unscaled": (E1, K3A, ""),
    "nonproduct_theorem2_unscaled": (E2, K3A, NONPRODUCT),
}


def golden_path(name):
    suffix = ".json" if "--json" in CASES.get(name, ["--json"]) else ".csv"
    return GOLDEN / f"{name}{suffix}"


def run_case(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def run_unscaled(w1, w2, gens):
    """The report of the unscaled control, written as ``--json`` writes one."""
    p1, p2 = parse_polynomial(w1), parse_polynomial(w2)
    if gens:
        elements = parse_group_elements(gens, p1.nvars + p2.nvars)
    else:
        elements = block_j_elements(weight_system(p1), weight_system(p2))
    report = verify_theorem2(build_bv(p1, p2, elements), rescaled=False)
    return json.dumps(report.to_json(), sort_keys=True) + "\n"


def run_swapped_twist_weights():
    """twist-iso B on E1 x K3A, its twist weight system (2,1,1,1,1;6) read
    as (1,2,1,1,1;6), written as ``--json`` writes one."""
    p1, p2 = parse_polynomial(E1), parse_polynomial(K3A)
    model = build_bv(p1, p2, block_j_elements(weight_system(p1), weight_system(p2)))
    tw = model.twist()
    w = tw.ws.weights
    swapped = WeightSystem((w[1], w[0]) + w[2:], tw.ws.degree)
    model._twist = TwistModel(tw.poly, swapped, tw.delta, tw.group, tw.keep, tw.source)
    report = verify_twist_iso(model, "B")
    return json.dumps(report.to_json(), sort_keys=True) + "\n"


SWAPPED = "e1k3a_twist-iso-b_swapped_weights"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name):
    code, out = run_case(CASES[name])
    assert code == 0
    assert out == golden_path(name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(UNSCALED))
def test_golden_unscaled_theorem2(name):
    out = run_unscaled(*UNSCALED[name])
    assert out == golden_path(name).read_text(encoding="utf-8")


def test_golden_swapped_twist_weights():
    out = run_swapped_twist_weights()
    report = json.loads(out)
    assert not report["pass"]
    assert [m["reason"] for m in report["mismatches"]] == ["bidegree changed"] * 43
    assert out == golden_path(SWAPPED).read_text(encoding="utf-8")


if __name__ == "__main__":
    for name, argv in sorted(CASES.items()):
        code, out = run_case(argv)
        golden_path(name).write_text(out, encoding="utf-8")
        print(f"{name}: exit {code}", file=sys.stderr)
    for name, args in sorted(UNSCALED.items()):
        golden_path(name).write_text(run_unscaled(*args), encoding="utf-8")
        print(f"{name}: written", file=sys.stderr)
    golden_path(SWAPPED).write_text(run_swapped_twist_weights(), encoding="utf-8")
    print(f"{SWAPPED}: written", file=sys.stderr)
