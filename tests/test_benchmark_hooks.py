"""Guard for the package names that the benchmark under perfbench/ hooks.

perfbench/instrument.py and perfbench/workloads.py wrap package functions,
methods and module bindings by name from outside the package. Installing and
removing every hook here makes a rename or move fail in the test suite
instead of in a benchmark run. The perfbench files are only imported.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from orbiconv.integrated import IntegratedConv

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("layers", "transform", "autodiff", "nas", "train", "integrated",
           "experiments", "data", "rng")


def _load(name: str, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_hooks_install_and_uninstall(monkeypatch):
    instrument = _load("instrument", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    pkg = {m: importlib.import_module(f"orbiconv.{m}") for m in MODULES}
    before = {m: dict(vars(mod)) for m, mod in pkg.items()}

    tracer = instrument.Tracer()
    tracer.install(pkg)
    try:
        layer = IntegratedConv(1, 1, 3, p_circular=0.5)
        drawn = [layer.draw_for_iteration(i).value for i in range(8)]
    finally:
        tracer.uninstall()
    assert set(drawn) <= {"square", "circular"}
    assert tracer.counts["draw.calls"] == 8
    assert tracer.counts["draw.circular"] == drawn.count("circular")

    for workload in workloads.WORKLOADS.values():
        step_clock = instrument.StepClock(*workload.step_hooks(pkg))
        step_clock.install()
        step_clock.uninstall()
    assert {m: dict(vars(mod)) for m, mod in pkg.items()} == before
