"""The package namespace and what each CLI process imports.

``import shufflecalc`` loads no submodule; each exported name is imported
from its home module on first use.  The kernel subcommands (``transform``,
``convolve``, ``enumerate``) must run without loading the bar-word engine
or the verify suites, and each loads only its own layer: ``cumulants`` for
``transform`` and ``convolve``, ``enumeration`` for ``enumerate``.
``transform`` and ``convolve`` keep their tables in coded integers from
input to output, so they load neither ``fractions``, ``numbers`` nor
``words``, and neither does drawing a random table; ``enumerate`` builds
its lines and its counts from text and loads neither the partition oracles,
the table layer nor ``json``.  No subcommand loads ``argparse``.
"""

import ast
import importlib
import inspect
import json
import os
import pkgutil
import random
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import shufflecalc
from shufflecalc import MomentTable

SRC = str(Path(shufflecalc.__file__).resolve().parent.parent)

# Every name the package exported when its __init__ imported them eagerly,
# by the module that defines it.
EXPORTS = {
    "words": "Word BarWord UNIT subword complement_components",
    "coalgebra": "TensorSum coproduct coproduct_word half_coproduct_left "
                 "half_coproduct_right reduced_coproduct reduced_half_left "
                 "reduced_half_right",
    "tables": "MomentTable CumulantTable",
    "functionals": "Functional character infinitesimal unit conv half_left half_right "
                   "prelie inverse is_character is_infinitesimal materialize",
    "series": "exp_conv log_conv exp_left exp_right log_left log_right magnus "
              "magnus_inverse sharp bch ad_lower ad_upper factorize_left factorize_right",
    "partitions": "SetPartition enumerate_nc enumerate_boolean enumerate_nc_irreducible "
                  "classify_blocks nesting_forest tree_factorial free_moment_sum "
                  "boolean_moment_sum monotone_moment_sum cfree_moment_sum "
                  "boolean_from_free_sum free_from_boolean_sum boolean_from_monotone_sum "
                  "free_from_monotone_sum adjoint_sum_lower adjoint_sum_upper",
    "cumulants": "StatePair unit_state free_cumulants boolean_cumulants monotone_cumulants "
                 "moments_from_free moments_from_boolean moments_from_monotone convert "
                 "cfree_cumulants moments_from_cfree convolve_free convolve_boolean "
                 "convolve_monotone convolve_cfree",
    "errors": "ShuffleCalcError DomainError TruncationError",
}
HOME = {name: module for module, names in EXPORTS.items() for name in names.split()}

ENGINE = {"shufflecalc.functionals", "shufflecalc.coalgebra", "shufflecalc.series",
          "shufflecalc.verify"}


def _top_level_names(module) -> set[str]:
    """Names that a module binds by its own def, class or assignment."""
    tree = ast.parse(Path(module.__file__).read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def _run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=False)


def test_every_export_resolves_to_its_home_module():
    for name, home in HOME.items():
        module = importlib.import_module(f"shufflecalc.{home}")
        assert name in _top_level_names(module), f"{name} is not defined in {home}"
        assert getattr(shufflecalc, name) is getattr(module, name), name
        assert vars(shufflecalc)[name] is getattr(module, name), f"{name} is not cached"


def test_all_and_star_import():
    assert sorted(shufflecalc.__all__) == sorted(HOME)
    namespace = {}
    exec("from shufflecalc import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(HOME)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        shufflecalc.no_such_name
    assert not hasattr(shufflecalc, "free_cumulant")


def test_package_import_is_lazy_and_submodules_still_import():
    code = (
        "import json, sys\n"
        "import shufflecalc\n"
        "bare = sorted(m for m in sys.modules if m.startswith('shufflecalc'))\n"
        "from shufflecalc import coalgebra\n"
        "print(json.dumps([bare, coalgebra.__name__]))\n"
    )
    proc = _run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [["shufflecalc"], "shufflecalc.coalgebra"]


# What a process that reads, transforms and writes coded tables never
# builds, so never imports.
NOT_ON_TABLE_PATH = {"fractions", "decimal", "shufflecalc.words"}
# What the command line reader replaced, and what ``argparse`` loaded.
ARGPARSE = {"argparse", "gettext", "locale"}
# What ``enumerate`` leaves to the other layers.
NOT_ON_ENUMERATE_PATH = {"shufflecalc.partitions", "shufflecalc.tables", "shufflecalc.words",
                         "json", "numbers"}


@pytest.mark.parametrize("argv, other_layer, coded", [
    (["transform", "--to", "free", "--input", "{a}"], "shufflecalc.partitions", True),
    (["convolve", "--kind", "free", "--input", "{a}", "--input2", "{b}"],
     "shufflecalc.partitions", True),
    (["enumerate", "--family", "nc", "--n", "4"], "shufflecalc.cumulants", False),
    (["enumerate", "--family", "boolean", "--n", "4", "--counts"], "shufflecalc.cumulants",
     False),
], ids=["transform", "convolve", "enumerate", "enumerate-counts"])
def test_kernel_subcommands_import_neither_engine_nor_verify(tmp_path, argv, other_layer, coded):
    for name, seed in (("a", 1), ("b", 2)):
        table = MomentTable.random(["a", "b"], 3, random.Random(seed))
        (tmp_path / f"{name}.json").write_text(json.dumps(table.to_json()))
    argv = [arg.format(a=tmp_path / "a.json", b=tmp_path / "b.json") for arg in argv]
    # the modules are listed before this harness imports json to write them
    code = (
        "import sys\n"
        "from shufflecalc.cli import main\n"
        "code = main(sys.argv[2:])\n"
        "modules = sorted(sys.modules)\n"
        "import json\n"
        "with open(sys.argv[1], 'w') as fh:\n"
        "    json.dump([code, modules], fh)\n"
    )
    report = tmp_path / "modules.json"
    proc = _run_python(code, str(report), *argv, "--output", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    exit_code, modules = json.loads(report.read_text())
    assert exit_code == 0
    assert sorted(ENGINE & set(modules)) == []
    # each kernel subcommand loads its own layer and not the other one
    assert other_layer not in modules

    # no kernel subcommand builds a Fraction
    assert sorted({"fractions", "decimal"} & set(modules)) == []
    if coded:
        assert sorted(NOT_ON_TABLE_PATH & set(modules)) == []

    baseline = _run_python("import sys; print(' '.join(sorted(sys.modules)))")
    assert baseline.returncode == 0, baseline.stderr
    bare = set(baseline.stdout.split())
    if "dataclasses" not in bare:
        assert "dataclasses" not in modules
    if coded and "typing" not in bare:
        assert "typing" not in modules
    # a module that a bare interpreter loads anyway is no cost of the CLI
    assert sorted((ARGPARSE & set(modules)) - bare) == []
    if coded:
        assert sorted(({"numbers"} & set(modules)) - bare) == []
    else:
        assert "shufflecalc.enumeration" in modules
        assert sorted((NOT_ON_ENUMERATE_PATH & set(modules)) - bare) == []


def test_random_tables_load_neither_fractions_nor_words():
    code = (
        "import json, random, sys\n"
        "from shufflecalc.tables import MomentTable\n"
        "table = MomentTable.random(['a', 'b'], 3, random.Random(1))\n"
        "json.dumps(table.to_json())\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    proc = _run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert sorted(NOT_ON_TABLE_PATH & set(json.loads(proc.stdout))) == []


def _defined_functions(module):
    """``(qualified name, function)`` for every function and method that a
    module defines, properties and class- and static methods included."""
    for name, value in vars(module).items():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            yield name, value
        elif inspect.isclass(value):
            for attr, member in vars(value).items():
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


@pytest.mark.parametrize("module", ["shufflecalc"] + sorted(
    f"shufflecalc.{info.name}" for info in pkgutil.iter_modules(shufflecalc.__path__)))
def test_every_annotation_resolves(module):
    """``typing.get_type_hints`` resolves each function's annotations, so
    every name they use is bound in the module."""
    module = importlib.import_module(module)
    functions = dict(_defined_functions(module))
    assert functions
    for name, fn in functions.items():
        try:
            typing.get_type_hints(fn)
        except NameError as exc:
            pytest.fail(f"{module.__name__}.{name}: {exc}")
