"""AST scans that stand in for a linter, which is not installed.

Every imported name is referenced in the file that imports it. Every def in
src/uprsim is reached from the simulator, demos, perfbench or tools, so
code only tests call does not stay in src/. Package __init__ files are
exempt from both: their imports are the public re-exports. One function in
src/uprsim opens files for writing, so one place decides what a CSV cell
looks like. Every src dataclass is a geometry.Value, which checks its
declared domains when built, and no src method writes to self
after construction, so src holds no mutable object. Each of a run's values
has one source, its config: no src value object but ExperimentConfig and
TraceSpec declares a field default or default_factory, a default TraceSpec
draws the default config's trace, and the camera factories' and
EyeState.from_cyclopean's parameters and the back camera, fit and metric
parameters have no default. The scheduler imports no numpy, so
AAUPR's per-frame decisions stay on Python floats. perfbench's span targets
still name the program's attributes. No test handler of Exception or
BaseException skips re-raising, so a call that breaks fails its test rather
than being passed over as, say, a degenerate random draw. The CI workflow
installs the Python and numpy that the pinned digests and work counts were
recorded under.
"""

import ast
import dataclasses
import importlib.util
import inspect
import json
import re
from pathlib import Path

import pytest

from uprsim import geometry, harness, scheduler, tracksim, viewgen

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src/uprsim", "tests") for p in (ROOT / d).rglob("*.py")
               if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_scanner_finds_unused_names():
    source = "import os\nimport a.b\nfrom c import d, e as f\nd(a.b)\n"
    assert unused_imports(source) == ["f (line 3)", "os (line 1)"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


#: Defs that only tests call. FlowSimulator.measure, the one-frame form of
#: the measurements generator, is what the flow tests drive frame by frame
#: (perfbench's flow span wraps it too); it waits for the benchmark to drop
#: that span. The tests' own oracles (the scalar ray cast, the UPR
#: homography, quaternion rotations) live in tests/, not in src/uprsim.
ORACLES = {"FlowSimulator.measure"}

#: Where a reference keeps a def in src/uprsim alive.
CALLERS = ("src/uprsim", "demos", "perfbench", "tools")


def defined_names(source: str) -> list[str]:
    """Module-level defs and classes, and the non-dunder methods of those
    classes, as `name` or `Class.method`."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [f"{node.name}.{m.name}" for m in node.body
                      if isinstance(m, ast.FunctionDef)
                      and not (m.name.startswith("__") and m.name.endswith("__"))]
    return names


def referenced_names(source: str) -> set[str]:
    """Names read as a Name, an attribute or an import alias."""
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name.rpartition(".")[2])
    return refs


def test_def_scanner():
    source = ("class A:\n    def __init__(self): pass\n    def m(self): pass\n"
              "def f(): pass\nimport p.q\nx.m\n")
    assert defined_names(source) == ["A", "A.m", "f"]
    assert referenced_names(source) == {"q", "x", "m"}


def test_src_defs_are_reached_outside_tests():
    refs = set()
    for d in CALLERS:
        for path in (ROOT / d).rglob("*.py"):
            if path.name != "__init__.py":
                refs |= referenced_names(path.read_text())
    unreached = {name for path in (ROOT / "src/uprsim").glob("*.py")
                 if path.name != "__init__.py"
                 for name in defined_names(path.read_text())
                 if name.rpartition(".")[2] not in refs}
    assert unreached == ORACLES


def opens_for_writing(call: ast.Call) -> bool:
    """open(...) or x.open(...) given a mode string that writes."""
    if getattr(call.func, "id", getattr(call.func, "attr", None)) != "open":
        return False
    args = call.args + [k.value for k in call.keywords if k.arg == "mode"]
    return any(isinstance(a, ast.Constant) and isinstance(a.value, str)
               and set(a.value) <= set("rwxabt+") and set(a.value) & set("wxa+")
               for a in args)


def file_writers(source: str) -> list[str]:
    """Functions, by name, with a call that opens a file for writing."""
    return [fn.name for fn in ast.walk(ast.parse(source))
            if isinstance(fn, ast.FunctionDef)
            and any(isinstance(c, ast.Call) and opens_for_writing(c) for c in ast.walk(fn))]


def test_one_function_opens_files_for_writing():
    source = ("def r(p): open(p)\ndef w(p): open(p, 'w', newline='')\n"
              "def m(p): p.open(mode='a')\ndef s(p): open(p, 'rb')\n")
    assert file_writers(source) == ["w", "m"]
    writers = [f"{path.stem}.{name}" for path in sorted((ROOT / "src/uprsim").glob("*.py"))
               for name in file_writers(path.read_text())]
    assert writers == ["tracksim.write_csv"]


def value_objects() -> dict[str, type]:
    """The dataclasses that the src modules define or import, by name."""
    return {name: obj for module in (geometry, harness, scheduler, tracksim, viewgen)
            for name, obj in vars(module).items()
            if isinstance(obj, type) and dataclasses.is_dataclass(obj)}


def test_value_objects_check_fields():
    """Value.__init__ runs check_fields, so a dataclass checks its fields'
    domains by being a Value; this test has a subject while one exists."""
    classes = value_objects()
    assert classes
    assert [name for name, cls in classes.items() if not issubclass(cls, geometry.Value)] == []


def writes_to_self(source: str) -> list[str]:
    """Functions, by name, that assign an attribute of self, or set one with
    object.__setattr__ outside __init__ and __post_init__ (construction)."""
    names = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, ast.FunctionDef):
            continue
        targets = [t for n in ast.walk(fn) if isinstance(n, (ast.Assign, ast.AugAssign, ast.AnnAssign))
                   for t in (n.targets if isinstance(n, ast.Assign) else [n.target])]
        stores = [a for t in targets for a in ast.walk(t)
                  if isinstance(a, ast.Attribute) and ast.unparse(a.value) == "self"]
        sets = [c for c in ast.walk(fn) if isinstance(c, ast.Call) and c.args
                and ast.unparse(c.func) == "object.__setattr__" and ast.unparse(c.args[0]) == "self"]
        if stores or sets and fn.name not in ("__init__", "__post_init__"):
            names.append(fn.name)
    return names


def test_no_src_method_writes_to_self():
    # src holds no mutable object: a value sets its fields while it is
    # built, and no method changes them after; state that changes over a
    # run lives in locals (the scheduler's, the flow stream's).
    source = ("class A:\n    def __init__(self): object.__setattr__(self, 'x', 1)\n"
              "    def m(self): self.x = 1\n    def n(self): self.x += 1\n"
              "    def o(self): object.__setattr__(self, 'x', 2)\n"
              "    def p(self): self.y, z = 1, 2\n    def q(self): z = self.x\n")
    assert writes_to_self(source) == ["m", "n", "o", "p"]
    assert [name for path in sorted((ROOT / "src/uprsim").glob("*.py"))
            for name in writes_to_self(path.read_text())] == []


#: The value objects whose fields keep defaults. ExperimentConfig's are a
#: run's values; TraceSpec's are the same keys' (perfbench's trace_sweep
#: input takes its frame rate and ipd), as the test below checks.
DEFAULTED = {"ExperimentConfig", "TraceSpec"}

#: Parameters that a run fills from its config, by function; None is every
#: parameter.
CONFIG_PARAMETERS = {
    geometry.front_camera: None,
    geometry.back_camera: None,
    geometry.EyeState.from_cyclopean: None,
    viewgen.cam_px_to_display_px: ["fit"],
    viewgen.pointing_errors: ["back_cam", "fit"],
    viewgen.pointing_error: ["back_cam", "fit"],
    scheduler.eye_distance_px: ["metric"],
}


def test_a_run_value_has_one_source():
    classes = value_objects()
    assert DEFAULTED <= classes.keys()
    defaulted = [f"{name}.{f.name}" for name, cls in sorted(classes.items())
                 if name not in DEFAULTED for f in dataclasses.fields(cls)
                 if (f.default, f.default_factory) != (dataclasses.MISSING,) * 2]
    assert defaulted == []
    for fn, names in CONFIG_PARAMETERS.items():
        params = inspect.signature(fn).parameters
        assert names is None or set(names) <= params.keys()
        assert [name for name in names or params
                if params[name].default is not inspect.Parameter.empty] == [], fn.__name__


@pytest.mark.parametrize("generator", tracksim.Generator, ids=lambda g: g.value)
def test_a_default_trace_spec_draws_the_default_config_trace(generator):
    # step_move derives its length; the others need one.
    n = 0 if generator is tracksim.Generator.STEP_MOVE else 60
    spec = tracksim.generate_trace(tracksim.TraceSpec(generator, n_frames=n))
    config = harness.ExperimentConfig(trace_generator=generator.value,
                                      trace_n_frames=n).build_trace()
    for name in ("t_ms", "eye_mm", "ipd_mm"):
        assert getattr(spec, name).tobytes() == getattr(config, name).tobytes(), name


def imported_modules(source: str) -> set[str]:
    """Top-level packages of the absolute imports in source."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_scheduler_imports_no_numpy():
    source = "import numpy.linalg as la\nfrom math import sqrt\nfrom .geometry import f\n"
    assert imported_modules(source) == {"numpy", "math"}
    assert "numpy" not in imported_modules((ROOT / "src/uprsim/scheduler.py").read_text())


#: Span targets in perfbench/spans.py that name no attribute of the program
#: any more; each records no calls. The known ones, until the benchmark
#: drops them. The scheduler's two went with its one-frame protocol; AAUPR's
#: loop has been one sched.schedule call since before then.
DEAD_SPAN_TARGETS = ["harness.FaceTracker.track", "harness.sched.step",
                     "harness.sched.apply_recalculation", "harness.pointing_error"]


def test_perfbench_span_targets_resolve():
    # spans.py wraps attributes by name, so a rename in src/uprsim silently
    # empties a span; no further target may go dead.
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench/spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.Recorder().missing == DEAD_SPAN_TARGETS


#: Exceptions so broad that a handler of one also catches a broken call.
BROAD = {"Exception", "BaseException"}


def swallowing_handlers(source: str) -> list[int]:
    """Lines of the except clauses that catch Exception or BaseException
    (bare, alone or in a tuple) and hold no raise statement."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = BROAD if node.type is None else {
            getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.type)}
        if caught & BROAD and not any(isinstance(n, ast.Raise)
                                      for stmt in node.body for n in ast.walk(stmt)):
            lines.append(node.lineno)
    return lines


def test_tests_swallow_no_broad_errors():
    source = ("try: f()\nexcept Exception: pass\n"
              "try: f()\nexcept (KeyError, builtins.BaseException) as e: g(e)\n"
              "try: f()\nexcept: pass\n"
              "try: f()\nexcept BaseException:\n    log()\n    raise\n"
              "try: f()\nexcept ValueError: pass\n")
    assert swallowing_handlers(source) == [2, 4, 6]
    swallowed = [f"{path.name}:{line}" for path in sorted((ROOT / "tests").rglob("*.py"))
                 for line in swallowing_handlers(path.read_text())]
    assert swallowed == []


def test_ci_pins_the_recorded_versions():
    # A plain-text match: CI installs no YAML parser.
    workflow = (ROOT / ".github/workflows/tier1.yml").read_text()
    for pinned in ("golden.json", "work_counts.json"):
        recorded = json.loads((ROOT / "tests" / pinned).read_text())["versions"]
        assert f'python-version: "{recorded["python"]}"' in workflow, pinned
        assert re.search(rf'numpy=={re.escape(recorded["numpy"])}(?![\w.])', workflow), pinned
