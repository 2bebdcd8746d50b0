"""The public surface resolves, and deleted options are really gone.

A name left in ``__all__`` after its definition was deleted raises
``AttributeError`` only on ``from module import *``, which nothing else
in the suite runs; an option removed from a config must be a
``TypeError`` at the call site, never a keyword that is silently
accepted and ignored.
"""

import importlib
import pkgutil

import pytest

import repro
from repro.fabric.driver import FabricConfig
from repro.service.server import ServiceConfig

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


@pytest.mark.parametrize(
    "config,option",
    [
        (ServiceConfig, "warm_engine"),
        (ServiceConfig, "maxflow"),
        (ServiceConfig, "mincost"),
        (FabricConfig, "warm_engine"),
    ],
)
def test_removed_options_are_rejected_not_ignored(config, option):
    with pytest.raises(TypeError, match="unexpected keyword"):
        config(**{option: "kernel"})
