"""The benchmark's trace harness (perfbench/tracing.py) patches polyens
functions by name; every name it lists must exist, and uninstalling must
put back the very objects it replaced. Every benchmark workload
(perfbench/workloads.py) must run one op at its tiny size and pass its
closed-form check, so a library change that breaks the benchmark's calls
fails here."""

import importlib.util
import sys
from pathlib import Path

import pytest

import polyens
import polyens.config  # noqa: F401  (a traced module the package does not import)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings(name):
    """Every (owner, attribute, object) the tracer may patch for one listed
    name: the class-dict entry of a method, or each polyens module attribute
    bound to a function."""
    parts = name.split(".")
    owner = sys.modules[f"polyens.{parts[0]}"]
    if len(parts) == 3:
        cls = getattr(owner, parts[1])
        return [(cls, parts[2], cls.__dict__[parts[2]])]
    fn = getattr(owner, parts[1])
    mods = [m for k, m in sys.modules.items() if k == "polyens" or k.startswith("polyens.")]
    return [(m, attr, val) for m in mods for attr, val in list(vars(m).items()) if val is fn]


def test_tracer_patches_every_listed_function_and_restores_it():
    tracing = load("tracing")
    before = {name: bindings(name) for name in tracing.LAYER_FUNCTIONS}
    tracer = tracing.Tracer()
    try:
        tracer.install(polyens)
        for name, bound in before.items():
            for owner, attr, original in bound:
                assert vars(owner)[attr] is not original, f"{name} not patched at {attr}"
        polyens.stream(1, 2)
        assert tracer.calls[tracer.names.index("rng.stream")] == 1
    finally:
        tracer.uninstall()
    for name, bound in before.items():
        for owner, attr, original in bound:
            assert vars(owner)[attr] is original, f"{name} not restored at {attr}"


@pytest.mark.parametrize("name", ["gue_mc", "tilted_schur", "circle_large", "exact_tables"])
def test_every_workload_runs_one_checked_op_at_its_tiny_size(name):
    workloads = load("workloads")
    assert name in workloads.WORKLOADS
    workloads.warm_up(name, 1)  # set-up, one op and its closed-form check, or RuntimeError
