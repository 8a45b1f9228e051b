"""Checks on the source tree itself: where the scalar-rounding arithmetic, libm
pow and the exact sums may live, that the branch verdicts keep no guard floors,
that no module keeps an unused import,
that the matching oracle calls no np.linalg, which scalar helpers, array twins and
matching records stay deleted, that one comparison holds the singular
threshold, that the CLI formats no ss report with json's indenting encoder
and builds no quartic of its own, that g17 makes no numpy
array per block, that every file is written through cli._output, that the
benchmark's traced functions exist and the CSV writers do their work when
called, which commands load numpy and numpy.random, that numpy is bound only
through the lazy helper, and that the package and its metadata agree on the
version."""

import ast
import importlib
import inspect
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qdelta

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "qdelta").glob("*.py"))


def _spans_constants() -> dict:
    """TRACED and FALLBACK from bench/spans.py, read without running it."""
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text(encoding="utf-8"))
    return {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
            if isinstance(node, ast.Assign) and len(node.targets) == 1
            and getattr(node.targets[0], "id", None) in ("TRACED", "FALLBACK")}


@pytest.mark.parametrize("pattern, allowed", [
    # qalg holds the array arithmetic rounded as CPython's scalars.
    (r"np\.float_power", {"qalg.py"}),
    (r"functools\.reduce", {"qalg.py"}),
    # scatter takes the modulus of its (re, im) pairs directly.
    (r"np\.hypot", {"qalg.py", "scatter.py"}),
])
def test_rounding_helpers_live_in_qalg(pattern, allowed):
    found = [f"{path.name}:{n}" for path in SOURCES if path.name not in allowed
             for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if re.search(pattern, line)]
    assert found == []


def _calls_of(name: str) -> list[tuple[str, str]]:
    """(file, dotted path of the enclosing classes and functions) of each call
    of name, bare or as an attribute."""
    found = []

    def visit(node, scope, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and name in (getattr(child.func, "id", None),
                                                        getattr(child.func, "attr", None)):
                found.append((path.name, ".".join(scope)))
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(child, scope + [child.name] if named else scope, path)

    for path in SOURCES:
        visit(ast.parse(path.read_text(encoding="utf-8")), [], path)
    return found


def test_libm_pow_only_where_its_bits_are_printed_or_drawn():
    # qalg.power gives x ** n the bits of CPython's; pow(x, 2) differs from x * x
    # on about 0.08 % of doubles. Only the printed R and T and verify's drawn
    # energies need those bits: the tolerance algebra of singular, verify and
    # the root oracle's reconstruction takes plain products, which round alike
    # for a float and for each entry of an array.
    assert sorted(_calls_of("power")) == [("scatter.py", "ScatteringResult._squared_modulus"),
                                          ("verify.py", "_draw_v2_zero")]
    tree = ast.parse((ROOT / "src" / "qdelta" / "singular.py").read_text(encoding="utf-8"))
    assert [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names if alias.name == "power"] == []


def test_exact_sums_live_in_singular():
    found = [f"{path.name}:{n}" for path in SOURCES if path.name != "singular.py"
             for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if "math.fsum" in line]
    assert found == []


def test_singular_has_no_guard_floors():
    # Feasibility is g^2 > 0 and beta > 0, on strengths normalised by a power
    # of two; a floor with a unit in it would make a verdict depend on scale.
    text = (ROOT / "src" / "qdelta" / "singular.py").read_text(encoding="utf-8")
    assert "1e-12" not in text and "maximum(1.0" not in text


def test_matching_arrays_calls_no_linalg():
    # The junction system is solved by exact elimination and Cramer's rule in
    # qalg's rounding, not by a LAPACK factorisation per matrix.
    tree = ast.parse((ROOT / "src" / "qdelta" / "oracle.py").read_text(encoding="utf-8"))
    func = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "matching_solver")
    found = [node.lineno for node in ast.walk(func)
             if isinstance(node, (ast.Attribute, ast.Name))
             and "linalg" in (node.attr if isinstance(node, ast.Attribute) else node.id)]
    assert found == []


_DELETED_NAMES = (
    # The double-root certificate and the array root_nature replaced them.
    r"\b(_coeffs_at|has_double_root|_double_root_near|real_double_root)\b",
    # amplitudes, matching_solver and quartic_roots work on arrays themselves.
    r"\b(amplitude_arrays|matching_arrays|quartic_root_arrays|RootSet)\b",
    # oracle.certify_double_root confirms every branch's double root, with no
    # eigenvalue solve.
    r"\bbranch_roots\b|\b_branch_roots\b|\.double_root\(",
    # matching_solver returns the ScatteringResult that scatter.scattering_result builds.
    r"\b(MatchingAmplitudes|MATCH_SINGULAR_TOL|_physical_sweep|r_tilde|t_tilde"
    r"|singular_system|det_mag)\b",
    # cli._require_usable is the one gate of a pair's or a grid's branches, and
    # ScatteringResult keeps only the denominator's modulus, abs_d.
    r"\b(_require_normal|_require_unit_scale|d_value)\b",
    # The scan writer formats its energies with Formatter.text, one call per
    # workspace, and Formatter.cells lost its last caller.
    r"\.cells\(|\bcells_per_call\b",
    # quartic_roots returns the sorted companion eigenvalues as they are: no
    # branch path reads a multiplicity since the certificate replaced it.
    r"\b(multiplicity_tags|CLUSTER_RTOL|REAL_TAG_RTOL|_greedy_heads|_cluster|_HEADS|_MEMBERS"
    r"|_COUNTS)\b",
)


def test_scalar_double_root_helpers_are_gone():
    paths = SOURCES + sorted((ROOT / "scripts").glob("*.py"))
    lines = [(f"{path.name}:{n}", line) for path in paths
             for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)]
    for names in _DELETED_NAMES:
        assert [where for where, line in lines if re.search(names, line)] == [], names


def test_src_has_no_unused_imports():
    # A module-level import that no name or attribute base reads is dead.
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{node.lineno} {alias.asname or alias.name.split('.')[0]}"
                   for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"
                   for alias in node.names
                   if (alias.asname or alias.name.split(".")[0]) not in used]
    assert unused == []


def test_one_singular_threshold():
    # Both amplitude paths flag their singularities in scatter.scattering_result:
    # TOL_SINGULAR is defined once and compared once, in scatter.py.
    uses = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if "TOL_SINGULAR" in (getattr(node, "id", None), getattr(node, "attr", None)):
                above = node
                while above in parents and not isinstance(above, (ast.Compare, ast.Assign)):
                    above = parents[above]
                uses.append((path.name, type(above).__name__))
    assert sorted(uses) == [("scatter.py", "Assign"), ("scatter.py", "Compare")]


def test_one_branch_gate_in_the_cli():
    # ss, scan and plot decide the scale gap and the normal range of the branches
    # in cli._require_usable alone: the only reads of unit_scale_underflows and
    # _TINY are in it.
    tree = ast.parse((ROOT / "src" / "qdelta" / "cli.py").read_text(encoding="utf-8"))
    uses = {(node.id, getattr(top, "name", type(top).__name__))
            for top in tree.body for node in ast.walk(top)
            if getattr(node, "id", None) in ("unit_scale_underflows", "_TINY")}
    assert sorted(uses) == [("_TINY", "Assign"), ("_TINY", "_require_usable"),
                            ("unit_scale_underflows", "_require_usable")]


def test_ss_json_is_not_written_by_the_indenting_encoder():
    # json.dumps with an indent runs CPython's pure-Python encoder. The sweep
    # writer takes it once per command, for its head, and the ss report's
    # layout once per process, at import; each ss --json report fills that layout.
    tree = ast.parse((ROOT / "src" / "qdelta" / "cli.py").read_text(encoding="utf-8"))
    calls = [top.name if isinstance(top, ast.FunctionDef) else ast.unparse(top.targets[0])
             for top in tree.body for node in ast.walk(top)
             if isinstance(node, ast.Call) and ast.unparse(node.func) == "json.dumps"
             and any(keyword.arg == "indent" for keyword in node.keywords)]
    assert calls == ["_rows_to_json", "_SS_JSON"]


def test_cli_builds_no_quartic():
    # The ss confirmation is oracle.certify_double_root, which builds the
    # quartic shifted to beta itself and solves no quartic.
    text = (ROOT / "src" / "qdelta" / "cli.py").read_text(encoding="utf-8")
    assert "quartic_roots" not in text and "quartic_coeffs" not in text


def test_g17_makes_no_array_per_block():
    # A numpy array made per block is kept for reuse where freed blocks of
    # stdout's growing buffer were, and splits that memory for the next
    # command's; Formatter.__init__ makes the workspace every block reuses.
    tree = ast.parse((ROOT / "src" / "qdelta" / "g17.py").read_text(encoding="utf-8"))
    formatter = next(node for node in tree.body
                     if isinstance(node, ast.ClassDef) and node.name == "Formatter")
    funcs = [node for node in tree.body + formatter.body if isinstance(node, ast.FunctionDef)
             and node.name in ("text", "_render", "_scaled")]
    assert len(funcs) == 3
    found = [f"{func.name}:{node.lineno}" for func in funcs for node in ast.walk(func)
             if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "np"
             and node.attr in ("empty", "zeros", "where", "flatnonzero", "concatenate")]
    assert found == []


def _file_opens(tree: ast.AST) -> list:
    """The calls of open, os.open, Path.open and Path.write_text/write_bytes."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) == "open"
                 or getattr(node.func, "attr", None) in ("open", "write_text", "write_bytes"))]


def test_every_file_is_written_through_cli_output():
    # cli._output overwrites a file in place, without O_TRUNC; a second way
    # to open a file would free the old file's disk blocks again.
    tree = ast.parse((ROOT / "src" / "qdelta" / "cli.py").read_text(encoding="utf-8"))
    output = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_output")
    assert [ast.unparse(call.func) for call in _file_opens(output)] == ["open", "os.open"]
    calls = [f"{path.name}:{call.lineno}"
             for path in SOURCES + sorted((ROOT / "scripts").glob("*.py"))
             for call in _file_opens(ast.parse(path.read_text(encoding="utf-8")))]
    assert calls == [f"cli.py:{call.lineno}" for call in _file_opens(output)]


def test_traced_functions_resolve():
    constants = _spans_constants()
    assert set(constants) == {"TRACED", "FALLBACK"}
    pairs = [(mod, name) for mod, names in constants["TRACED"].items() for name in names]
    missing = [f"{mod}.{name}" for mod, name in pairs + [constants["FALLBACK"]]
               if not callable(getattr(importlib.import_module(f"qdelta.{mod}"), name, None))]
    assert missing == []


@pytest.mark.parametrize("name", ["rows_to_csv", "scan_to_csv", "_rows_to_json"])
def test_csv_writers_are_not_generators(name):
    # A generator returns before it formats a row, so the traced span of
    # cli.rows_to_csv would time nothing and its caller would take the time;
    # the JSON sweep writer shares its row walker and writes as eagerly.
    from qdelta import cli
    assert not inspect.isgeneratorfunction(getattr(cli, name))


# A command that computes on Python floats alone runs without executing numpy,
# which is about half of its start-up; loading numpy.random costs a command
# about 10 ms and 6 MB more, so only the commands that draw random numbers load
# it. numpy counts as loaded once its core is: the lazy module stands in
# sys.modules from the import of qdelta on. A row whose argv is a string is a
# call of the package on Python floats, its value printed in place of the code.
_LOADS_NUMPY = """
import sys
from qdelta import cli, qalg
code = eval(sys.argv[2]) if sys.argv[1] == "-c" else cli.main(sys.argv[1:])
print(code, "numpy._core.multiarray" in sys.modules, "numpy.random" in sys.modules,
      file=sys.stderr)
"""
_SCAN_ARGV = ["scan", "--v1-min=-1", "--v1-max=1", "--v2-min=-1", "--v2-max=1", "--n1=3",
              "--n2=3"]
_SWEEP_ARGV = ["sweep", "--v1=-0.5", "--v2=3", "--g2=3.75", "--emin=1", "--emax=2", "--steps=3"]


# (name, argv, exit code, loads numpy, loads numpy.random)
_LOADS = [
    ("ss", ["ss", "--v1=-0.5", "--v2=3"], 0, False, False),
    ("ss-json", ["ss", "--v1=-0.5", "--v2=3", "--json"], 0, False, False),
    ("ss-out", ["ss", "--v1=-0.5", "--v2=3", "--out={tmp}/ss.txt"], 0, False, False),
    ("version", ["--version"], 0, False, False),
    ("help", ["--help"], 0, False, False),
    ("usage-error", ["ss", "--v1=x", "--v2=1"], 2, False, False),
    ("ss-scale-gap", ["ss", "--v1=-1e-200", "--v2=-1e200"], 3, False, False),
    ("ss-overflow", ["ss", "--v1=-1e200", "--v2=-2e200"], 3, False, False),
    ("ss-refused-certificate", ["ss", "--v1=-1e-20", "--v2=-1e100"], 3, False, False),
    ("scan", _SCAN_ARGV, 0, True, False),
    ("sweep", _SWEEP_ARGV, 0, True, False),
    ("sweep-json", [*_SWEEP_ARGV, "--format=json"], 0, True, False),
    ("plot", ["plot", "--v1=-0.5", "--v2=3", "--branch=plus", "--out={tmp}/curves.svg"],
     0, True, False),
    ("verify", ["verify", "--trials=20"], 0, True, True),
    ("qalg-power", "qalg.power(3.0, 2.0)", 9.0, False, False),
    ("quaternion-norm", "qalg.Quaternion(0.0, 3.0, 4.0, 0.0).norm()", 5.0, False, False),
]


@pytest.mark.parametrize("argv, code, loads_numpy, loads_random",
                         [row[1:] for row in _LOADS], ids=[row[0] for row in _LOADS])
def test_numpy_and_numpy_random_load_only_where_used(argv, code, loads_numpy, loads_random,
                                                      tmp_path):
    args = ["-c", argv] if isinstance(argv, str) else [arg.format(tmp=tmp_path) for arg in argv]
    proc = subprocess.run([sys.executable, "-c", _LOADS_NUMPY, *args],
                          capture_output=True, text=True)
    assert proc.stderr.splitlines()[-1] == f"{code} {loads_numpy} {loads_random}", proc.stderr


def test_numpy_is_bound_only_through_the_lazy_helper():
    # `import numpy` executes numpy at once: _lazy is the one module that names
    # numpy, and every other module that reads np binds it from there.
    names_numpy, reads_np, takes_lazy = set(), set(), set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom)
                     else [node.value] if isinstance(node, ast.Constant) else [])
            if any(re.fullmatch(r"numpy(\.\w+)*", str(name)) for name in names):
                names_numpy.add(path.name)
            if isinstance(node, ast.Name) and node.id == "np":
                reads_np.add(path.name)
        if any(ast.unparse(node) == "from ._lazy import np" for node in tree.body):
            takes_lazy.add(path.name)
    assert names_numpy == {"_lazy.py"}
    assert reads_np - {"_lazy.py"} == takes_lazy
    assert {"cli.py", "singular.py", "scatter.py", "qalg.py", "oracle.py"} <= takes_lazy


def test_package_version_matches_pyproject():
    # `qdelta --version` prints qdelta.__version__.
    tomllib = pytest.importorskip("tomllib")
    meta = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert meta["project"]["version"] == qdelta.__version__
