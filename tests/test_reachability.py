"""Every function in the package is reached by a run of the program.

A fixed set of command lines, run in process through `cli.main`, and
the four demos are profiled with `sys.setprofile`; each function,
method and nested function whose code lives in `src/cyclichodge/` must
be called at least once.  The only ones left out are the protocol
dunders that sets, dicts, `==`, error messages and `x - poly` reach
from outside the package's own runs.  A helper that nothing calls fails
here and should be deleted.
"""

import contextlib
import importlib
import inspect
import io
import json
import pkgutil
import runpy
import sys
from pathlib import Path

import cyclichodge
from cyclichodge import cli
from cyclichodge.graphs import MarkedGraph

from conftest import builtin_json

DEMOS = Path(__file__).resolve().parent.parent / "demos"
UNREACHED = {"__eq__", "__hash__", "__repr__", "__rsub__"}


def defined_code():
    """The code of every named function defined in the package, nested
    ones included, keyed by code object, and the package's
    `functools.cache` wrappers."""
    found = {}
    cached = []

    def visit(code, where):
        if not code.co_name.startswith("<"):
            found[code] = f"{where}:{code.co_firstlineno} {code.co_name}"
        for const in code.co_consts:
            if inspect.iscode(const):
                visit(const, where)

    for info in pkgutil.iter_modules(cyclichodge.__path__):
        if info.name == "__main__":
            # importing it runs the program; it defines no function
            continue
        module = importlib.import_module(f"cyclichodge.{info.name}")
        objects = list(vars(module).values())
        objects += [value for cls in objects if inspect.isclass(cls)
                    for value in vars(cls).values()]
        for obj in objects:
            obj = getattr(obj, "__func__", obj)
            functions = ([obj.fget, obj.fset] if isinstance(obj, property)
                         else [obj])
            for function in functions:
                if hasattr(function, "cache_clear"):
                    cached.append(function)
                # a functools.cache wrapper has no code of its own
                function = inspect.unwrap(function)
                code = getattr(function, "__code__", None)
                if code is not None and code.co_filename == module.__file__:
                    visit(code, info.name)
    return found, cached


def test_every_function_is_reached(tmp_path):
    algebra = tmp_path / "dual2.json"
    algebra.write_text(json.dumps(builtin_json("dual2")))
    graph = tmp_path / "theta.json"
    graph.write_text(json.dumps(MarkedGraph(
        2, [(0, 1, "GG")] * 3, [(0, "E0")]).to_json_obj()))
    commands = [
        ["axioms", "--algebra", str(algebra)],
        ["axioms", "--algebra", "block6", "--json"],
        ["eval", "--algebra", str(algebra), "--graph", str(graph)],
        ["eval", "--algebra", "block6", "--graph", str(graph), "--oracle",
         "--json"],
        ["potential", "--algebra", "trivial", "--genus", "2", "--desc", "0",
         "--max-leaves", "3", "--no-prune", "--classes"],
        ["potential", "--algebra", "cubic6", "--genus", "1", "--desc", "1",
         "--max-leaves", "2", "--classes", "--json"],
        ["verify", "--algebra", "dual2", "--relation", "string", "--genus",
         "1", "--degree", "2"],
        ["verify", "--algebra", "block6", "--relation", "all", "--degree",
         "2", "--json"],
        ["kdv", "--max-genus", "1", "--degree", "3"],
        ["kdv", "--max-genus", "1", "--degree", "2", "--json"],
    ]
    code, cached = defined_code()
    assert "_last_bound" in {c.co_name for c in code}
    for wrapper in cached:
        # a cached function runs only on a miss, and other tests may
        # have filled its cache
        wrapper.cache_clear()
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    with contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(profile)
        try:
            for argv in commands:
                cli.main(argv)
            for demo in sorted(DEMOS.glob("*.py")):
                runpy.run_path(str(demo), run_name="__main__")
        finally:
            sys.setprofile(None)
    unreached = sorted(where for c, where in code.items()
                       if c not in called and c.co_name not in UNREACHED)
    assert code.keys() & called
    assert not unreached, unreached
