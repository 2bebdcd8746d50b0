"""The public surface resolves, and deleted options are really gone.

A name left in ``__all__`` after its definition was deleted raises
``AttributeError`` only on ``from module import *``, which nothing else
in the suite runs; an option removed from a config must be a
``TypeError`` at the call site, never a keyword that is silently
accepted and ignored.
"""

import importlib
import pkgutil
from functools import partial

import pytest

import repro
import repro.fabric
import repro.flows
from repro.cli import build_parser
from repro.core import OptimalScheduler
from repro.core.scheduler import MINCOST_ALGORITHMS
from repro.distributed import MonitorScheduler
from repro.fabric.driver import FabricConfig, FabricRunResult
from repro.flows import FlowNetwork, kernel_solve
from repro.service.server import ServiceConfig
from repro.wire.loadgen import LoadGenConfig

MODULES = sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if not info.name.endswith("__main__")  # importing it runs the CLI
)


def test_walk_found_the_package():
    assert "repro.core.incremental" in MODULES and "repro.fabric.driver" in MODULES


@pytest.mark.parametrize("name", ["repro", *MODULES])
def test_every_exported_name_is_an_attribute(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ exports undefined names: {missing}"


LOADGEN = partial(LoadGenConfig, rate=1.0, duration=1.0, processors=1)


@pytest.mark.parametrize(
    "config,option",
    [
        (ServiceConfig, "warm_engine"),
        (ServiceConfig, "maxflow"),
        (ServiceConfig, "mincost"),
        (FabricConfig, "warm_engine"),
        (FabricConfig, "max_drain_rounds"),
        (MonitorScheduler, "maxflow"),
        (MonitorScheduler, "mincost"),
        (LOADGEN, "burst_factor"),
        (LOADGEN, "burst_on_fraction"),
        (LOADGEN, "burst_period"),
        (LOADGEN, "diurnal_period"),
        (LOADGEN, "diurnal_amplitude"),
        (partial(kernel_solve, FlowNetwork(), "s", "t"), "record_layers"),
    ],
    ids=lambda v: getattr(v, "func", v).__name__ if callable(v) else v,
)
def test_removed_options_are_rejected_not_ignored(config, option):
    with pytest.raises(TypeError, match="unexpected keyword|takes no arguments"):
        config(**{option: "kernel"})


@pytest.mark.parametrize("name", ["network_simplex", "cycle_cancel"])
def test_deleted_mincost_solvers_are_unknown_names(name):
    with pytest.raises(ValueError, match="unknown mincost algorithm"):
        OptimalScheduler(mincost=name)
    assert not [n for n in repro.flows.__all__ if name in n]
    assert not hasattr(repro.flows, name)


def test_mincost_table_and_default_are_pinned():
    # Exactly three entries, each with a named job (ROADMAP item 2); the
    # default is the flat-array kernel, the paper's method stays selectable.
    assert sorted(MINCOST_ALGORITHMS) == ["kernel", "out_of_kilter", "ssp"]
    assert OptimalScheduler().mincost == "kernel"


def test_fabric_throughput_model_and_its_verb_are_gone():
    # ISSUE 20: the critical-path "aggregate allocs/sec" was a model of
    # a one-core-per-cell host, not a measurement; it left with the
    # sweep and the verb that printed it (bench/'s fabric-skew is the
    # wall-clock successor).
    assert not hasattr(repro.fabric, "sweep_cells")
    assert not hasattr(repro.fabric.driver, "sweep_cells")
    assert not hasattr(FabricRunResult, "aggregate_allocs_per_sec")
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fabric-bench"])
