import json
import os
import subprocess
import sys

import pytest

import lgmirror
from lgmirror.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze(capsys):
    code, out, err = run(capsys, "analyze", "x0^2+x1^3+x2^6", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["weights"] == [3, 2, 1]
    assert data["degree"] == 6
    assert data["gmax_order"] == 36
    assert data["calabi_yau"] is True
    assert data["invertible"] is True
    assert data["self_transpose"] is True


def test_analyze_bad_input(capsys):
    code, out, err = run(capsys, "analyze", "x^2 + x^3 + y^5")
    assert code == 2
    assert "error" in err


def test_analyze_parse_error(capsys):
    code, out, err = run(capsys, "analyze", "x0^2 - x1^-1")
    assert code == 2


def test_analyze_nondegenerate_mass_term_is_not_invertible(capsys):
    # square, nondegenerate, but the mass term x0*x1 leaves no one-term-per-
    # variable block structure: not invertible, and no blocks to print
    code, out, err = run(capsys, "analyze", "x1*x2^2+x2^3+x0*x1", "--json")
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["invertible"] is False
    assert "atomic_blocks" not in data and "transpose" not in data
    assert data["weights"] == [1, 1, 2]


def test_state_space_elliptic(capsys):
    code, out, err = run(
        capsys, "state-space", "A", "--w", "x0^2+x1^3+x2^6",
        "--gens", "1/2,1/3,1/6", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["flavor"] == "A"
    assert data["total"] == 4
    assert len(data["entries"]) == 4
    assert all(e["dim"] == 1 for e in data["entries"])


def test_state_space_k3_total(capsys):
    code, out, err = run(
        capsys, "state-space", "A", "--w", "y0^2+y1^6+y2^6+y3^6",
        "--gens", "1/2,1/6,1/6,1/6", "--json",
    )
    assert code == 0
    assert json.loads(out)["total"] == 24


def test_state_space_inadmissible(capsys):
    code, out, err = run(
        capsys, "state-space", "B", "--w", "x0^2+x1^3+x2^6",
        "--gens", "1/2,1/3,1/6;0,1/3,1/3;1/2,0,0",
    )
    assert code == 3


def test_state_space_degenerate_locus_exits_3(capsys):
    # (0, 1/3, 0) is no symmetry of W (it would fix x0 and x2, with x0 in no
    # monomial of W there), and the command names it before any sweep
    code, out, err = run(
        capsys, "state-space", "A", "--w", "x0^2*x1+x1^3+x2^2",
        "--gens", "1/3,1/3,1/2;0,1/3,0", "--json",
    )
    assert code == 3
    assert out == ""
    assert "precondition violated: generator 0,1/3,0 is not a symmetry of" in err


def test_state_space_rejects_a_generator_outside_gmax(capsys):
    """(1/2, 1/2) scales x0^3 by -1: exit 3, naming it, and no table."""
    code, out, err = run(capsys, "state-space", "A", "--w", "x0^3+x1^3", "--gens", "1/3,1/3;1/2,1/2")
    assert code == 3
    assert out == ""
    assert "generator 1/2,1/2 is not a symmetry of x0^3 + x1^3" in err


def test_bv_theorem1_pass(capsys):
    code, out, err = run(
        capsys, "bv", "theorem1",
        "--w1", "x0^2+x1^3+x2^6", "--w2", "y0^2+y1^2", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["check"] == "theorem1" and data["pass"] is True


def test_bv_twist(capsys):
    code, out, err = run(
        capsys, "bv", "twist",
        "--w1", "x0^2+x1^3+x2^6", "--w2", "y0^2+y1^6+y2^6+y3^6", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["delta"] == 3
    assert data["weights"] == [2, 1, 1, 1, 1]


def test_bv_corrupted_group_fails(capsys):
    # sigma G built from a group missing J2 is a precondition violation
    code, out, err = run(
        capsys, "bv", "theorem1",
        "--w1", "x0^2+x1^3+x2^6", "--w2", "y0^2+y1^2",
        "--gens", "1/2,1/3,1/6,0,0",
    )
    assert code == 3


@pytest.mark.parametrize(
    "argv",
    [
        ("bv", "lgcy", "--w1", "x0^2+x1^3+x2^6", "--w2", "y0^2+y1^6+y2^6+y3^6", "--gens", gens)
        for gens in ("a,b,c,d,e,f,g", "1/0,0,0,0,0,0,0", "1/2,1/3,1/6")
    ]
    + [("state-space", "A", "--w", "x0^2+x1^3+x2^6", "--gens", "1/2,1/3,1/6;1/x,0,0")],
)
def test_malformed_gens_is_a_usage_error(capsys, argv):
    """A `--gens` component that is not a rational number, or an element
    with the wrong number of components, is an input error (exit 2)."""
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("input error:")


def test_bv_missing_w2_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bv", "theorem1", "--w1", "x0^2+x1^3+x2^6"])
    assert exc.value.code == 2


def test_bv_not_cy(capsys):
    code, out, err = run(
        capsys, "bv", "theorem1", "--w1", "x0^2+x1^5", "--w2", "y0^2+y1^2",
    )
    assert code == 3


def test_catalog_list_count(capsys):
    code, out, err = run(capsys, "catalog", "list")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 96  # header + 95 rows


def test_catalog_filter_44(capsys):
    code, out, err = run(capsys, "catalog", "filter")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 45  # header + 44 rows
    assert "without an invertible sample" in err


def test_catalog_filter_half_degree_48(capsys):
    code, out, err = run(capsys, "catalog", "filter", "--half-degree-only")
    assert code == 0
    assert len(out.strip().splitlines()) == 49


def test_catalog_sample(capsys):
    code, out, err = run(capsys, "catalog", "sample", "3,1,1,1,6")
    assert code == 0
    assert out.strip() == "y1^6 + y2^6 + y3^6 + y0^2"


@pytest.mark.parametrize("weights", ["", "6", "3,x,1,1,6", "3,1.5,1,1,6"])
def test_catalog_sample_malformed_weights_is_a_usage_error(capsys, weights):
    code, out, err = run(capsys, "catalog", "sample", weights)
    assert code == 2
    assert out == ""
    assert "expected weights and degree" in err


def test_catalog_sample_no_invertible(capsys):
    code, out, err = run(capsys, "catalog", "sample", "11,5,4,2,22")
    assert code == 3


@pytest.mark.parametrize("bound", ["0", "-3", "x"])
def test_catalog_bound_below_one_is_a_usage_error(capsys, bound):
    """A `--max-weight` below 1 is malformed input (exit 2), not a bound
    to raise (exit 3, as for a positive bound that finds too few)."""
    with pytest.raises(SystemExit) as exc:
        main(["catalog", "list", f"--max-weight={bound}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-weight: expected a positive integer" in captured.err
    assert run(capsys, "catalog", "list", "--max-weight", "5")[0] == 3


def test_bv_shared_variable_name_is_an_input_error(capsys):
    """`--w1` and `--w2` that share a variable name are malformed input:
    exit 2, naming the shared variable."""
    code, out, err = run(capsys, "bv", "mirror", "--w1", "x0^2+x1^3+x2^6", "--w2", "x0^2+y1^6+y2^6+y3^6")
    assert code == 2
    assert out == ""
    assert err == "input error: variable names collide: x0\n"


def test_catalog_out_file(tmp_path):
    """The file `--out` writes holds the bytes the same command prints to
    standard output without it, for `list` and for `filter`."""
    env = dict(os.environ, PYTHONPATH=SRC)
    for action, rows in (("list", 95), ("filter", 44)):
        path = tmp_path / f"{action}.csv"
        command = [sys.executable, "-m", "lgmirror.cli", "catalog", action]
        written = subprocess.run(
            [*command, "--out", str(path)], env=env, capture_output=True, check=True, timeout=120
        )
        assert written.stdout == b""
        assert f"wrote {rows} records".encode() in written.stderr
        printed = subprocess.run(command, env=env, capture_output=True, check=True, timeout=120)
        assert path.read_bytes() == printed.stdout
        assert len(printed.stdout.splitlines()) == 1 + rows


@pytest.mark.parametrize("action", ["list", "filter"])
def test_catalog_unwritable_out_is_an_input_error(tmp_path, capsys, action):
    path = tmp_path / "missing" / f"{action}.csv"
    code, out, err = run(capsys, "catalog", action, "--out", str(path))
    assert code == 2
    assert out == ""
    errors = [line for line in err.splitlines() if line.startswith("input error:")]
    assert len(errors) == 1 and str(path) in errors[0]
    assert not path.parent.exists()


def test_catalog_filter_samples_each_half_degree_system_once(monkeypatch, capsys):
    """`catalog filter` searches a sample for each of the 48 half-degree
    systems once, and reports the 4 without one from the same search."""
    from lgmirror import catalog

    calls = []
    sample = catalog.sample_polynomial

    def counted(ws):
        calls.append(ws)
        return sample(ws)

    monkeypatch.setattr(catalog, "sample_polynomial", counted)
    code, out, err = run(capsys, "catalog", "filter")
    assert code == 0
    assert len(calls) == len(set(calls)) == 48
    assert err == (
        "half-degree systems without an invertible sample: "
        "(11, 5, 4, 2);22; (17, 7, 6, 4);34; (17, 10, 4, 3);34; (19, 8, 6, 5);38\n"
    )


def test_bv_theorem2_without_property1_exits_3(capsys):
    # y1^4*y2 is a chain: the group fixes y2 alone in some sectors, so the
    # all-or-nothing hypothesis of Theorem 2 fails; that is a precondition
    code, out, err = run(
        capsys, "bv", "theorem2", "--w1", "x0^2+x1^3+x2^6",
        "--w2", "y0^2+y1^4*y2+y2^7+y3^7",
    )
    assert code == 3
    assert out == ""
    assert "property 1" in err


def test_bv_theorem2_out_of_memory_exits_3(monkeypatch, capsys):
    """A run that runs out of memory names the limit on one line of standard
    error and exits 3, not 1 (a mismatch) with a traceback."""
    import lgmirror.frobenius as frobenius

    def exhausted(model):
        raise MemoryError

    monkeypatch.setattr(frobenius, "verify_theorem2", exhausted)
    code, out, err = run(capsys, "bv", "theorem2", "--w1", "x0^2+x1^3+x2^6", "--w2", "y0^2+y1^6+y2^6+y3^6", "--json")
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and "MemoryError" in err


# |Gmax(W1 + W2)| = 1,327,104 is over the default cap of 10^6, but no step
# enumerates Gmax: the largest group built is G^T, of order 13,824
OVER_GMAX_CAP = (
    "--w1", "x0^2+x1^4+x2^4", "--w2", "y0^2+y1^3+y2^12+y3^24+y4^24", "--json",
)


@pytest.mark.parametrize(
    "verb, totals",
    [
        ("theorem1", ("lhs_total", "rhs_total")),
        ("lgcy", ("cr_total", "fjrw_total")),
        ("bvms", ("lhs_total", "rhs_total")),
    ],
)
def test_bv_past_the_gmax_cap(capsys, verb, totals):
    code, out, err = run(capsys, "bv", verb, *OVER_GMAX_CAP)
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert [data[key] for key in totals] == [2976, 2976]


def test_bv_theorem1_cap_below_dual_order_exits_3(capsys, monkeypatch):
    monkeypatch.setenv("LGMIRROR_MAX_GROUP", "13823")
    code, out, err = run(capsys, "bv", "theorem1", *OVER_GMAX_CAP)
    assert code == 3
    assert out == ""
    assert "cap 13823" in err


@pytest.mark.parametrize("value", ["abc", "0", "-5"])
def test_bv_malformed_group_cap_is_a_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("LGMIRROR_MAX_GROUP", value)
    code, out, err = run(
        capsys, "bv", "theorem1", "--w1", "x0^2+x1^3+x2^6", "--w2", "y0^2+y1^6+y2^6+y3^6"
    )
    assert code == 2
    assert out == ""
    assert "LGMIRROR_MAX_GROUP" in err and repr(value) in err


# Cold processes: pytest has imported every lgmirror module by now, so the
# lazy verifier imports of the CLI and their exit codes are checked in fresh
# interpreters.  The snapshot of sys.modules is taken before lgmirror.cli is
# imported, so modules that start-up already loaded do not count.
SRC = os.path.dirname(os.path.dirname(os.path.abspath(lgmirror.__file__)))
COLD_MAIN = """
import contextlib, io, json, sys
before = set(sys.modules)
import lgmirror.cli
err = io.StringIO()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
    try:
        rc = lgmirror.cli.main(sys.argv[1:])
    except SystemExit as exc:
        rc = exc.code
print(json.dumps({"rc": rc, "err": err.getvalue(), "added": sorted(set(sys.modules) - before)}))
"""
VERIFIERS = {"lgmirror.chenruan", "lgmirror.frobenius", "lgmirror.catalog"}
E1K3A = ("--w1", "x0^2+x1^3+x2^6", "--w2", "y0^2+y1^6+y2^6+y3^6")


def cold(*argv, env=()):
    """lgmirror.cli.main(argv) in a fresh interpreter, with the variables
    `env` set: its exit code, its standard error and the modules that
    importing the CLI and the run added."""
    env = dict(os.environ, PYTHONPATH=SRC, **dict(env))
    done = subprocess.run(
        [sys.executable, "-c", COLD_MAIN, *argv],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    result = json.loads(done.stdout)
    return result["rc"], result["err"], set(result["added"])


@pytest.mark.parametrize(
    "verb, loaded",
    [
        ("theorem1", set()),
        ("twist-iso", set()),
        ("bvms", {"lgmirror.chenruan"}),
        ("theorem2", {"lgmirror.frobenius"}),
    ],
)
def test_cold_verb_loads_only_its_verifier(verb, loaded):
    code, err, added = cold("bv", verb, *E1K3A, "--json")
    assert code == 0, err
    assert added & VERIFIERS == loaded
    assert not added & {"dataclasses", "inspect"}


@pytest.mark.parametrize(
    "argv, code, loaded",
    [
        # HypothesisFailed, raised in the lazily imported frobenius
        (
            ("bv", "theorem2", "--w1", "x0^2+x1^3+x2^6", "--w2", "y0^2+y1^4*y2+y2^7+y3^7"),
            3,
            {"lgmirror.frobenius"},
        ),
        # NoInvertibleRepresentative, a CatalogError from the lazy catalog
        (("catalog", "sample", "11,5,4,2,22"), 3, {"lgmirror.catalog"}),
        # NotCY, a BVError raised while the model is built
        (("bv", "bvms", "--w1", "x0^2+x1^5", "--w2", "y0^2+y1^2"), 3, set()),
        # DegenerateSingularity, a MilnorError on the locus {x0, x2}
        (
            ("state-space", "A", "--w", "x0^2*x1+x1^3+x2^2", "--gens", "1/3,1/3,1/2;0,1/3,0"),
            3,
            set(),
        ),
        # a parse error is a usage error
        (("bv", "theorem2", "--w1", "x0^2 - x1^-1", *E1K3A[2:]), 2, set()),
    ],
)
def test_cold_exit_codes(argv, code, loaded):
    rc, err, added = cold(*argv)
    assert rc == code
    assert ("precondition violated" in err) == (code == 3)
    assert added & VERIFIERS == loaded


NOT_IN_SL = "1/2,1/3,1/6,0,0,0,0;0,0,0,1/2,1/6,1/6,1/6;0,1/3,0,0,0,0,0"


@pytest.mark.parametrize(
    "argv, env, message",
    [
        # EnumerationCapExceeded, a GroupError raised by the verifier itself:
        # |sigma G| = 72 fits the cap, the dual group G^T of order 432 does not
        (("bv", "group-lemma", *E1K3A), {"LGMIRROR_MAX_GROUP": "100"}, "exceeds cap 100"),
        # GroupOutOfRange: a generator of G outside SL(W1) x SL(W2)
        (("bv", "twist-iso", *E1K3A, "--gens", NOT_IN_SL), {}, "leaves SL(W1) x SL(W2)"),
        # GroupOutOfRange: G = <J1> does not contain J2
        (
            ("bv", "lgcy", *E1K3A, "--gens", "1/2,1/3,1/6,0,0,0,0"),
            {},
            "J1 x J2 is not contained in G",
        ),
        # BadForm: W1 has no z0^2 summand
        (
            ("bv", "twist-corollary", "--w1", "x0^3+x1^3+x2^3", *E1K3A[2:]),
            {},
            "is not of the form z0^2 + f",
        ),
    ],
)
def test_cold_verb_preconditions_exit_3(argv, env, message):
    """A precondition exits 3 with its message and loads none of the lazily
    imported verifier modules: group-lemma's verifier lives in bvlg, and the
    other three fail while the model is built, before their verifier is
    imported."""
    rc, err, added = cold(*argv, env=env)
    assert rc == 3
    assert "precondition violated" in err and message in err
    assert not added & VERIFIERS


NOT_INVERTIBLE = ("--w1", "x0^2+x1^3+x2^6", "--w2", "y0^2+y1^6+y2^6+y3^6+y1^3*y2^3")


@pytest.mark.parametrize("verb", ["mirror", "group-lemma", "theorem1", "theorem2", "bvms"])
def test_cold_non_invertible_potential_exits_3(verb):
    """W2 has five monomials in four variables, so it is not invertible.
    The model is built, and the dual group the mirror needs does not exist:
    a precondition (exit 3), not a usage error (exit 2)."""
    rc, err, _ = cold("bv", verb, *NOT_INVERTIBLE)
    assert rc == 3
    assert "precondition violated" in err and "is not invertible" in err


def test_cold_non_invertible_potential_passes_lgcy():
    rc, err, _ = cold("bv", "lgcy", *NOT_INVERTIBLE)
    assert rc == 0, err


def test_cold_unclassifiable_potential_exits_3_in_mirror():
    """A square exponent matrix of nonzero determinant whose monomial
    y1^6*y3^2 fits no Fermat, chain or loop block: transposing it fails
    while the dual group is built."""
    rc, err, _ = cold("bv", "mirror", "--w1", "x0^2+x1^3+x2^6", "--w2", "y0^2+y3^3+y2^3*y3^2+y1^6*y3^2")
    assert rc == 3
    assert "precondition violated" in err and "fits no block" in err


PERFBENCH_CHILD = os.path.join(os.path.dirname(SRC), "perfbench", "child.py")
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


# (sectors, fixed_loci, basis_dim, sector_mu) of the `statespace.*` counters
# on E1 x K3A, as read when every sector was an element-level object
TRACED_STATESPACE = {
    "lgcy": (72, 20, 136, 4160),
    "theorem1": (936, 100, 272, 16192),
    "twist-iso": (90, 25, 272, 5696),
}


@pytest.mark.parametrize("verb", sorted(TRACED_STATESPACE))
def test_benchmark_traced_cli_reads_the_package(verb):
    """The benchmark's traced CLI mode on E1 x K3A, in a fresh interpreter:
    the verdict is the golden report, and the tracer's counters read the
    package (`cr_table(...).total`, and `sector_dims`, `rings` and `dim`
    of every state space) and keep their values."""
    done = subprocess.run(
        [sys.executable, PERFBENCH_CHILD, "traced-cli", "bv", verb, *E1K3A, "--json"],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["rc"] == 0
    with open(os.path.join(GOLDEN, f"e1k3a_{verb}.json"), encoding="utf-8") as fh:
        golden = fh.read()
    assert result["stdout"] == golden
    counts = result["trace"]["counts"]
    if verb == "lgcy":
        assert counts["chenruan.cr_classes"] == json.loads(golden)["cr_total"] == 136
    names = ("sectors", "fixed_loci", "basis_dim", "sector_mu")
    assert tuple(counts[f"statespace.{name}"] for name in names) == TRACED_STATESPACE[verb]


def test_no_module_global_mutable_state():
    """No lgmirror module defines a module-level dict, list or set, or a
    memoized function (one with `cache_info`), at module or class level:
    every cache belongs to the call or object that fills it."""
    import importlib
    import pkgutil

    found = []
    for info in pkgutil.iter_modules(lgmirror.__path__):
        module = importlib.import_module(f"lgmirror.{info.name}")
        owners = [(info.name, vars(module))] + [
            (f"{info.name}.{name}", vars(value))
            for name, value in vars(module).items()
            if isinstance(value, type) and value.__module__ == module.__name__
        ]
        for owner, namespace in owners:
            for name, value in namespace.items():
                if name.startswith("__"):
                    continue
                if isinstance(value, (dict, list, set)) or hasattr(value, "cache_info"):
                    found.append(f"{owner}.{name}")
    assert not found


def test_every_package_definition_is_referenced():
    """Every top-level function or class and every method that is not a
    dunder under src/lgmirror is referenced somewhere in src/ or perfbench/:
    by a name, an attribute, an import, or a string constant equal to its
    name (the benchmark tracer names what it wraps by string).  A definition
    that nothing reads is dead code."""
    import ast
    import pathlib

    root = pathlib.Path(SRC).parent
    defined, referenced = [], set()
    for path in sorted((root / "src").rglob("*.py")) + sorted((root / "perfbench").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if "lgmirror" in path.parts:
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    defined.append((path.name, node.name))
                if isinstance(node, ast.ClassDef):
                    defined.extend(
                        (path.name, f"{node.name}.{item.name}")
                        for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__"))
                    )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.update([node.name.rsplit(".", 1)[-1], node.asname])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                referenced.add(node.value)
    assert len(defined) > 100
    assert [d for d in defined if d[1].rsplit(".", 1)[-1] not in referenced] == []


def test_every_package_import_is_read():
    """Every module-level import under src/lgmirror, `__future__` aside, is
    read by name in its module.  An import that nothing reads is a leftover,
    such as a helper's import kept after the helper went."""
    import ast
    import pathlib

    imported, unread = 0, []
    for path in sorted((pathlib.Path(SRC) / "lgmirror").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = [
            alias.asname or alias.name.split(".")[0]
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        ]
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        imported += len(names)
        unread += [(path.name, name) for name in names if name not in read]
    assert imported > 50
    assert unread == []


def test_every_defaulted_parameter_is_set_and_left_by_some_call():
    """Each defaulted parameter of a function or method under src/lgmirror is
    set by some call in src/ or perfbench/, and left at its default by some
    other.  A default that no such call leaves is no default, and one that
    no such call sets is an option that only tests use.  Calls are matched
    by name, an `__init__` by its class's name; a starred argument sets
    every parameter it can reach."""
    import ast
    import pathlib

    root = pathlib.Path(SRC).parent
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted((root / "src").rglob("*.py"))}
    trees.update({path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted((root / "perfbench").rglob("*.py"))})
    defaulted = []  # (name, positional parameters, parameter)
    for path, tree in trees.items():
        if "lgmirror" not in path.parts:
            continue
        methods = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            optional = positional[len(positional) - len(args.defaults) :]
            optional += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            if id(node) in methods:
                positional = positional[1:]
            name = methods[id(node)] if node.name == "__init__" else node.name
            defaulted += [(name, positional, arg) for arg in optional]
    calls: dict = {}  # name -> [(positional count, keywords, starred)]
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                starred = any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords)
                calls.setdefault(name, []).append((len(node.args), {k.arg for k in node.keywords}, starred))
    unused = []
    for name, positional, arg in defaulted:
        index = positional.index(arg) if arg in positional else len(positional)
        sets = [starred or count > index or arg in keywords for count, keywords, starred in calls.get(name, ())]
        if not (any(sets) and not all(sets)):
            unused.append(f"{name}({arg})")
    assert len(defaulted) >= 10
    assert unused == []
