"""The public names of the package: importable, and each one exercised by
the tests or the command line interface."""

import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import nlw
from nlw import errors
from nlw.cli import KNOWN_KEYS

ROOT = Path(__file__).resolve().parents[1]


def test_star_import_provides_every_public_name():
    namespace = {}
    exec("from nlw import *", namespace)
    assert set(nlw.__all__) <= set(namespace)


def test_every_public_name_has_a_caller():
    here = Path(__file__).resolve()
    sources = [p for p in sorted((ROOT / "tests").glob("*.py")) if p.resolve() != here]
    sources.append(ROOT / "src" / "nlw" / "cli.py")
    corpus = "\n".join(p.read_text(encoding="utf-8") for p in sources)
    unused = [name for name in nlw.__all__ if not re.search(rf"\b{name}\b", corpus)]
    assert unused == []


def test_every_analysis_export_is_named_by_another_module():
    """Each name in nlw.__all__ that nlw.diagnostics or nlw.scattering
    defines is named in the code of some other module of src/nlw than its
    own and __init__.py, so a law the library computes reaches an output
    or goes.  weighted_morawetz waits for its config key (ROADMAP item 9)."""
    waiting = ["weighted_morawetz"]
    named = {}
    for path in sorted((ROOT / "src" / "nlw").glob("*.py")):
        if path.name != "__init__.py":
            named[path.stem] = {getattr(node, attr) for node in ast.walk(
                ast.parse(path.read_text(encoding="utf-8")))
                for kind, attr in ((ast.Name, "id"), (ast.Attribute, "attr"), (ast.alias, "name"))
                if isinstance(node, kind)}
    unwired = []
    for name in nlw.__all__:
        home = getattr(nlw, name).__module__.rsplit(".", 1)[-1]
        if home in ("diagnostics", "scattering") and not any(
                name in ids for stem, ids in named.items() if stem != home):
            unwired.append(name)
    assert unwired == waiting


def test_every_traced_layer_resolves():
    """Each entry of perfbench/spans.py's LAYERS names an attribute that
    nlw still has, so renaming or deleting a traced function fails here
    and not only in the benchmark's own tests.  The file is parsed, not
    imported."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    layers = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets] == ["LAYERS"])
    assert layers.elts
    for call in layers.elts:
        span, module, attr = (ast.literal_eval(arg) for arg in call.args[:3])
        holder = importlib.import_module(module)
        for part in attr.split("."):
            holder = getattr(holder, part, None)
        assert callable(holder), f"{span}: {module}.{attr} is gone"


def test_every_exception_class_is_raised():
    """Each class in nlw.errors is raised by some raise statement in
    src/nlw, or is a base of one that is, so a class cannot outlive the
    code that raised it."""
    raised = set()
    for path in sorted((ROOT / "src" / "nlw").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    raised = [getattr(errors, name) for name in raised if hasattr(errors, name)]
    classes = [obj for obj in vars(errors).values()
               if isinstance(obj, type) and obj.__module__ == errors.__name__]
    assert classes
    idle = [cls.__name__ for cls in classes
            if not any(issubclass(r, cls) for r in raised)]
    assert idle == []


def test_no_module_imports_inside_a_function():
    """Every import in src/nlw sits at module top, so the package's import
    graph is the one its module headers show, and it has no cycle to hide."""
    nested = []
    for path in sorted((ROOT / "src" / "nlw").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += [f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                           if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == []


def test_every_imported_name_is_used():
    """Each name that a module of src/nlw other than __init__.py imports is
    read somewhere in that module, so a deletion cannot leave an import
    behind.  diagnostics keeps abs_power, which perfbench's self-test pins
    as nlw.numerics.abs_power."""
    unused = []
    for path in sorted((ROOT / "src" / "nlw").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}.{name}" for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   for alias in node.names
                   for name in [alias.asname or alias.name.split(".")[0]]
                   if name not in used]
    assert unused == ["diagnostics.abs_power"]


def test_import_leaves_numpy_polynomial_unloaded():
    """numpy loads numpy.polynomial on first access, at 0.75 MB of peak RSS
    and 7 ms: importing the package and its command line does not touch
    it (FarField.defect_tail builds its Gauss-Legendre rule on first use)."""
    code = "import sys, nlw.cli; print('numpy.polynomial' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=ROOT / "src").stdout
    assert out.strip() == "False"


def test_import_leaves_the_process_pool_unloaded():
    """The process pool and the multiprocessing machinery behind it cost
    about 18 ms of importing the command line, and only nlw sweep uses
    them: importing nlw.cli does not load them."""
    code = "import sys, nlw.cli; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=ROOT / "src").stdout
    assert out.strip() == "False"


VERIFY_CFG = """\
params.p = 3.5
grid.h = 1/64
grid.t_max = 2
data.family = gaussian
data.amplitude = 0.4
data.center = 1.5
data.width = 0.5
monitors.radii = 1.0,t/4
monitors.triangles = 0.5:1
monitors.snapshots = 1,2
output.stride = 3
output.plots = true
"""


def test_study_and_verify_leave_numpy_ma_unloaded(tmp_path):
    """numpy loads numpy.ma on first use (np.unique does, for one), at a
    cost in import time and peak RSS: a quick nlw appendix and a small nlw
    verify, plots included, do not touch it."""
    cfg = tmp_path / "case.cfg"
    cfg.write_text(VERIFY_CFG)
    code = (
        "import sys; from nlw.cli import main\n"
        "assert main(['appendix', '--p', '4', '--kappa', '0.25', '--h', '1/16', '--t-max', '16',"
        f" '--out-dir', {str(tmp_path / 'study')!r}]) == 0\n"
        f"assert main(['verify', {str(cfg)!r}, '--out-dir', {str(tmp_path / 'run')!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=ROOT / "src").stdout
    assert out.splitlines()[-1] == "False"
    assert (tmp_path / "study" / "energy_decay.svg").exists()


def test_every_known_config_key_has_a_reader():
    """Each cli.KNOWN_KEYS entry is the first argument of some call in
    cli.py.  So a key whose reader is deleted cannot linger as an
    accepted, ignored setting."""
    tree = ast.parse((ROOT / "src" / "nlw" / "cli.py").read_text(encoding="utf-8"))
    read = {node.args[0].value for node in ast.walk(tree)
            if isinstance(node, ast.Call) and node.args
            and isinstance(node.args[0], ast.Constant)}
    assert sorted(KNOWN_KEYS - read) == []


def test_readme_key_reference_names_every_known_key():
    """README's config key table lists exactly cli.KNOWN_KEYS."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("### Config keys\n", 1)[1].split("\n#", 1)[0]
    listed = re.findall(r"^\| `([\w.]+)` \|", section, flags=re.M)
    assert len(listed) == len(set(listed))
    assert set(listed) == KNOWN_KEYS
