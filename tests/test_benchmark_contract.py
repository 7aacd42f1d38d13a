"""The benchmark tracer's view of the program must match the program.

`perfbench/tracing.py` wraps the functions its TARGETS name, where callers
look them up, and its COUNTERS read call arguments by parameter name.  A
renamed function or parameter would otherwise surface only as a crash of
`perfbench/run.py --trace 1`, which the test suite does not run.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # its dataclasses look it up there
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def _resolve(where: str, attr: str):
    module_name, _, cls = where.partition(":")
    owner = importlib.import_module(module_name)
    if cls:
        owner = getattr(owner, cls)
    return getattr(owner, attr)


def _counter_arguments() -> list[tuple[str, str]]:
    """(span name, parameter name) for every argument a counter reads."""
    tree = ast.parse(TRACING.read_text())
    counters = next(node.value for node in ast.walk(tree)
                    if isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "COUNTERS"
                            for t in node.targets))
    pairs = set()
    for key, fn in zip(counters.keys, counters.values):
        args = fn.args.args[0].arg
        for node in ast.walk(fn.body):
            if (isinstance(node, ast.Subscript)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == args
                    and isinstance(node.slice, ast.Constant)):
                pairs.add((key.value, node.slice.value))
    return sorted(pairs)


@pytest.mark.parametrize("name, where, attr", tracing.TARGETS,
                         ids=[f"{w}.{a}" for _, w, a in tracing.TARGETS])
def test_every_target_resolves(name, where, attr):
    assert callable(_resolve(where, attr)), name


def test_every_counter_has_a_target():
    wrapped = {name for name, _, _ in tracing.TARGETS}
    assert set(tracing.COUNTERS) <= wrapped


@pytest.mark.parametrize("name, parameter", _counter_arguments())
def test_every_counter_argument_binds(name, parameter):
    for span, where, attr in tracing.TARGETS:
        if span == name:
            params = inspect.signature(_resolve(where, attr)).parameters
            assert parameter in params, f"{where}.{attr} has no {parameter!r}"


def test_counter_arguments_were_found():
    # Guards the parser above: the grid's counters read these by name.
    pairs = _counter_arguments()
    assert ("random.uniform_block", "group_slot") in pairs
    assert ("interventions.evaluate_policy", "n_seeds") in pairs
