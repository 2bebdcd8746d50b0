"""The public surface resolves, deleted options are really gone, and
every ``src/`` callable and option has a caller outside the tests.

A name left in ``__all__`` after its definition was deleted raises
``AttributeError`` only on ``from module import *``, which nothing else
in the suite runs; an option removed from a config must be a
``TypeError`` at the call site, never a keyword that is silently
accepted and ignored.
"""

import ast
import dataclasses
import importlib
import inspect
import pathlib
import pkgutil
import typing
from functools import partial

import pytest

import repro
import repro.fabric
import repro.flows
import repro.service
from repro.cli import build_parser
from repro.core import MRSIN, OptimalScheduler
from repro.core.transform import lower_to_kernel
from repro.core.heuristic import arbitrary_schedule, greedy_schedule, random_binding_schedule
from repro.core.mapping import Mapping
from repro.core.scheduler import MINCOST_ALGORITHMS
from repro.distributed import MonitorScheduler
from repro.fabric.broker import FabricBroker
from repro.fabric.driver import FabricConfig, FabricRunResult
from repro.faults.injector import FaultEvent, FaultInjector
from repro.flows import CompiledNetwork, FlowKernel, FlowNetwork, check_flow, dinic, is_integral
from repro.flows.maxflow import edmonds_karp, ford_fulkerson
from repro.flows.multicommodity import MultiCommodityProblem
from repro.flows.out_of_kilter import min_cost_circulation
from repro.flows.push_relabel import push_relabel
from repro.networks import omega
from repro.service.clock import VirtualClock
from repro.service.driver import run_service
from repro.service.metrics import ServiceMetrics
from repro.service.server import AllocationService, Lease, ServiceConfig
from repro.sim.metrics import wilson_interval
from repro.sim.queueing import simulate_queueing
from repro.sim.workload import occupy_random_circuits
from repro.util.histogram import LatencyHistogram
from repro.util.labels import label_tag
from repro.wire.client import RemoteLease, WireClient
from repro.wire.loadgen import LoadGenConfig, run_loadgen

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


#: Names the source imports under ``if TYPE_CHECKING:`` only (import
#: cycles); everything else must resolve from its module's own globals.
TYPE_CHECKING_ONLY = {
    cls.__name__: cls
    for cls in (MRSIN, AllocationService, FlowNetwork, CompiledNetwork, FaultEvent)
}


def _annotated(obj):
    """``obj`` and, for a class, every function, property getter and
    class/static method written in its body (a NamedTuple's generated
    ``__new__`` lives in a namespace without builtins: skipped)."""
    if inspect.isfunction(obj):
        yield obj
    elif inspect.isclass(obj):
        yield obj
        for member in vars(obj).values():
            member = getattr(member, "__func__", member)
            if isinstance(member, property):
                member = member.fget
            if inspect.isfunction(member) and member.__module__ == obj.__module__:
                yield member


@pytest.mark.parametrize("name", ["repro", *MODULES])
def test_annotations_of_every_exported_callable_resolve(name):
    """The half of the typing gate that runs without mypy: an annotation
    naming something undefined or unimported (all of them are strings
    under ``from __future__ import annotations``) fails here, not only
    in CI's ``repro typecheck``."""
    module = importlib.import_module(name)
    broken = []
    for attr in getattr(module, "__all__", ()):
        for target in _annotated(getattr(module, attr)):
            try:
                typing.get_type_hints(target, localns=TYPE_CHECKING_ONLY)
            except Exception as exc:  # NameError, TypeError, SyntaxError, ...
                broken.append(f"{name}.{attr}: {target.__qualname__}: {exc!r}")
    assert not broken, "\n".join(broken)


LOADGEN = partial(LoadGenConfig, rate=1.0, duration=1.0, processors=1)


@pytest.mark.parametrize(
    "config,option",
    [
        (ServiceConfig, "warm_engine"),
        (ServiceConfig, "maxflow"),
        (ServiceConfig, "mincost"),
        (ServiceConfig, "warm_start"),
        (ServiceConfig, "degrade_watermark"),
        (partial(run_service, None), "warm_start"),
        (partial(run_service, None), "degrade_watermark"),
        (FabricConfig, "warm_engine"),
        (FabricConfig, "max_drain_rounds"),
        (MonitorScheduler, "maxflow"),
        (MonitorScheduler, "mincost"),
        (LOADGEN, "burst_factor"),
        (LOADGEN, "burst_on_fraction"),
        (LOADGEN, "burst_period"),
        (LOADGEN, "diurnal_period"),
        (LOADGEN, "diurnal_amplitude"),
        (partial(FlowKernel(2).max_flow, 0, 1), "record_layers"),
        (partial(dinic, FlowNetwork(), "s", "t"), "record_layers"),
        (partial(MultiCommodityProblem, FlowNetwork(), []), "costs"),
        (partial(FabricBroker, None), "round_timeout"),
        (partial(FabricBroker, None), "start_method"),
        (partial(FaultInjector, None), "kinds"),
        (partial(Mapping().validate, None), "check_links"),
        (partial(run_loadgen, "localhost", 0, None), "clock"),
        (partial(check_flow, FlowNetwork()), "eps"),
        (partial(is_integral, FlowNetwork()), "eps"),
        (partial(min_cost_circulation, FlowNetwork()), "max_steps"),
        (partial(label_tag, "omega-8#0"), "chars"),
        (partial(wilson_interval, 1, 2), "z"),
        (partial(occupy_random_circuits, None, None, 0, None), "max_attempts"),
        (partial(greedy_schedule, None), "requests"),
        (partial(random_binding_schedule, None), "requests"),
        (partial(arbitrary_schedule, None), "requests"),
        (partial(lower_to_kernel, None), "persistent"),
        (partial(edmonds_karp, FlowNetwork(), "s", "t"), "flow_limit"),
        (partial(ford_fulkerson, FlowNetwork(), "s", "t"), "flow_limit"),
        (partial(push_relabel, FlowNetwork(), "s", "t"), "flow_limit"),
        (partial(WireClient, "127.0.0.1", 1), "backoff_base"),
        (partial(WireClient, "127.0.0.1", 1), "backoff_max"),
        (partial(RemoteLease, 1, 0, 0.0), "revocation"),
        (LatencyHistogram, "fine_bits"),
        (partial(LatencyHistogram().record, 1), "n"),
        (partial(simulate_queueing, None), "type_weights"),
        (VirtualClock, "start"),
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
    # Exactly two object entries, each with a named job (ROADMAP item 2);
    # the default is the kernel route, which is no entry, and the
    # paper's method stays selectable.
    assert sorted(MINCOST_ALGORITHMS) == ["out_of_kilter", "ssp"]
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


def test_the_service_has_one_solve_path_and_no_knob_for_another():
    # ISSUE 22: the cold rebuild and the greedy fallback above a queue
    # watermark left with their two knobs, their flag and their counter;
    # overload is shed at queue_limit and every tick solves warm.
    assert [f.name for f in dataclasses.fields(ServiceConfig)] == [
        "tick_interval", "max_batch", "queue_limit", "default_timeout", "fault_budget",
    ]
    for verb in ("serve", "wire-serve"):
        with pytest.raises(SystemExit):
            build_parser().parse_args([verb, "--watermark", "4"])
    snapshot = AllocationService(MRSIN(omega(4))).snapshot()
    assert "degraded_ticks" not in snapshot
    assert {"engine_builds", "engine_warm_ticks"} <= set(snapshot)
    assert not hasattr(ServiceMetrics, "render")


def _imports_asyncio(path):
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "asyncio" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] == "asyncio":
                return True
    return False


def test_no_event_loop_outside_the_network_edge():
    # Every in-process driver (run_service, the fabric cell) is a
    # plain function over submit / run_one_cycle.  An
    # event loop belongs to the service's own tick loop, the clock that
    # fakes it for tests, the TCP layer and the verbs that start them.
    # A parse, not an import: nothing here runs.
    src = pathlib.Path(repro.__file__).parent
    importers = {
        path.relative_to(src).as_posix()
        for path in src.rglob("*.py")
        if _imports_asyncio(path)
    }
    allowed = {"cli.py", "service/server.py", "service/clock.py"}
    assert {p for p in importers if not p.startswith("wire/")} <= allowed


def test_one_retry_loop_and_one_revocation_notice():
    # ISSUE 23: acquire_with_retry had no caller (the wire client has
    # its own seeded backoff), and the service-side lazy asyncio.Event
    # was a second notification beside Lease.on_revoke.
    assert not hasattr(repro.service, "acquire_with_retry")
    assert not hasattr(repro.service.driver, "acquire_with_retry")
    assert "revocation" not in {f.name.lstrip("_") for f in dataclasses.fields(Lease)}
    assert not hasattr(Lease, "revocation")
    assert any(f.name == "on_revoke" for f in dataclasses.fields(Lease))


def _src_files():
    src = pathlib.Path(repro.__file__).parent
    return {path.relative_to(src).as_posix(): path.read_text() for path in src.rglob("*.py")}


def test_one_invariant_set_and_one_fabric_harness():
    # run_service, the hypothesis state machine and run_fabric
    # raise the one InvariantError out of service/invariants.py; the
    # post-hoc fabric chaos wrapper, its report class, its verb and the
    # rerun-and-compare flag went (a cell kill is run_fabric(chaos=) /
    # `fabric-serve --kill-cell`), and so did `lint --changed`.
    # In-process fault churn is run_service(fault_rate=): the chaos
    # module, its report class and its verb went as well.
    for gone in ("repro.fabric.chaos", "repro.faults.chaos"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(gone)
    faults = importlib.import_module("repro.faults")
    for module, name in [
        (repro.fabric, "run_fabric_chaos"),
        (repro.fabric, "FabricChaosReport"),
        (repro.fabric, "FabricInvariantError"),
        (repro.fabric.broker, "FabricInvariantError"),
        (faults, "ChaosInvariantError"),
        (faults, "run_chaos"),
        (faults, "ChaosReport"),
        (importlib.import_module("repro.analysis.engine"), "changed_files"),
    ]:
        assert not hasattr(module, name), f"{module.__name__}.{name} is back"
    sources = _src_files()
    error_classes = [
        f"{name}: {node.name}"
        for name, text in sources.items()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.ClassDef) and "Invariant" in node.name
    ]
    assert error_classes == ["service/invariants.py: InvariantError"]
    # Who may ask the MRSIN what a fault severed: the model that answers,
    # the service that reconciles, the invariant set that checks.
    callers = {name for name, text in sources.items() if "severed_resources()" in text}
    assert callers == {"core/model.py", "service/server.py", "service/invariants.py"}


def test_twelve_verbs():
    (subparsers,) = [
        action for action in build_parser()._actions if hasattr(action, "choices") and action.choices
    ]
    assert sorted(subparsers.choices) == [
        "blocking", "fabric-serve", "lint", "loadgen", "queueing", "report",
        "schedule", "serve", "sweep", "tokens", "typecheck", "wire-serve",
    ]
    for argv in (
        ["chaos"],
        ["fabric-chaos"],
        ["fabric-serve", "--verify-determinism"],
        ["lint", "--changed"],
    ):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


#: ``src/`` callables no code outside ``tests/`` names, and why each
#: stays: an oracle or fake the suite checks live code with, or an
#: observation the tests wait on.
TEST_ONLY_CALLABLES = {
    "CFG.await_points": "oracle: generated CFGs keep source await order",
    "CFG.reaches_exit": "oracle: every reachable CFG node reaches an exit",
    "Mapping.allocation_cost": "oracle: Transformation 2's flow cost decomposes into it",
    "min_cut": "oracle: the max-flow = min-cut certificate of every solver",
    "reachable_resources": "oracle: every topology builder has full access",
    "VirtualClock.pending_sleepers": "fake: tasks parked on the test clock",
    "WireServer.draining": "observation: the drain state the wire tests wait on",
    "WireServer.pending_acquires": "observation: in-flight ACQUIREs the wire tests wait on",
    "Switchbox.legal_settings": "oracle: Theorem 1's complete settings, against switch_settings()",
    "gate_count": "oracle: the tree gate count shared_gate_count's reuse must beat",
}


def _names_used(root):
    """``(names, attributes)`` the files under ``root`` mention: a bare
    name or an imported one (a re-export in an ``__init__.py`` is not a
    caller), and the ``name`` of every ``x.name``."""
    names, attributes = set(), set()
    for path in root.rglob("*.py"):
        _collect(ast.parse(path.read_text()), (), names, attributes, path.name == "__init__.py")
    return names, attributes


def _collect(node, enclosing, names, attributes, reexports):
    # ``enclosing`` names the functions around ``node``: a function that
    # mentions itself (``f`` in ``f``, ``self.m`` in ``m``) is no caller
    # of itself, so recursion alone cannot keep a callable alive.
    if isinstance(node, ast.Name):
        if node.id not in enclosing:
            names.add(node.id)
    elif isinstance(node, ast.Attribute):
        receiver = node.value
        if not (
            node.attr in enclosing
            and isinstance(receiver, ast.Name)
            and receiver.id in ("self", "cls")
        ):
            attributes.add(node.attr)
    elif isinstance(node, ast.alias) and not reexports:
        names.add(node.name.rpartition(".")[2])
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        enclosing += (node.name,)
    for child in ast.iter_child_nodes(node):
        _collect(child, enclosing, names, attributes, reexports)


def _callables(body, prefix=""):
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + node.name, node.name
            if isinstance(node, ast.ClassDef):
                yield from _callables(node.body, f"{prefix}{node.name}.")


def test_every_src_callable_has_a_caller_outside_the_tests():
    # A callable whose name nothing in src/, bench/, benchmarks/ or
    # examples/ mentions is reached by tests alone.  A method counts as
    # called only where some file uses it as an attribute (``x.name``),
    # so a parameter or local that shares its name does not hide it;
    # a method sharing its name with another live method still escapes.
    src = pathlib.Path(repro.__file__).parent
    repo = src.parents[1]
    names, attributes = set(), set()
    for d in ("src", "bench", "benchmarks", "examples"):
        found, attrs = _names_used(repo / d)
        names |= found
        attributes |= attrs
    uncalled = {
        qualname
        for path in src.rglob("*.py")
        for qualname, name in _callables(ast.parse(path.read_text()).body)
        if name not in (attributes if "." in qualname else names | attributes)
        and not (name.startswith("__") and name.endswith("__"))
    }
    assert uncalled == set(TEST_ONLY_CALLABLES)


#: Defaulted ``src/`` parameters that no call outside ``tests/`` passes,
#: keyed ``qualname.param``, and why each stays.  A reason is one of
#: three kinds: ``input:`` a value from outside the program, ``hook:``
#: a budget or hook a test substitutes, ``dispatch:`` set through a
#: dispatch table or an import alias the scan cannot follow.
TEST_ONLY_OPTIONS = {
    "WireClient.acquire.resource_type": "input: a wire client's request, not this program's",
    "WireClient.acquire.priority": "input: a wire client's request, not this program's",
    "solve_integral_multicommodity.max_nodes": "hook: the branch-and-bound node budget",
    "simplex_solve.max_iter": "hook: the simplex pivot budget",
    "exhaustive_schedule.max_mappings": "hook: the brute-force oracle's enumeration budget",
    "checked_cycle.cancelled": "hook: the cancel count the state machine reports",
    "main.argv": "hook: the command line a test hands the CLI",
    "edmonds_karp.counter": "dispatch: MAXFLOW_ALGORITHMS[name](..., counter=)",
    "ford_fulkerson.counter": "dispatch: MAXFLOW_ALGORITHMS[name](..., counter=)",
    "push_relabel.counter": "dispatch: MAXFLOW_ALGORITHMS[name](..., counter=)",
    "min_cost_flow.counter": "dispatch: MINCOST_ALGORITHMS[name](..., counter=)",
    "min_cost_flow.target_flow": "dispatch: MINCOST_ALGORITHMS[name](..., target_flow=)",
    "sweep.trials": "dispatch: the CLI imports sweep as run_sweep",
    "sweep.seed": "dispatch: the CLI imports sweep as run_sweep",
}


def _options(body, prefix=""):
    """``(qualname.param, called_as, param, index)`` for every defaulted
    parameter of a module- or class-level ``def``: ``called_as`` is the
    name a call uses (the class, for ``__init__``), ``index`` the
    parameter's position at such a call (``None`` for keyword-only)."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _options(node.body, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
            if prefix and not static:
                positional = positional[1:]  # self / cls
            called_as = prefix.rstrip(".").rpartition(".")[2] if node.name == "__init__" else node.name
            qualname = prefix + node.name
            for index in range(len(positional) - len(args.defaults), len(positional)):
                yield f"{qualname}.{positional[index]}", called_as, positional[index], index
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield f"{qualname}.{arg.arg}", called_as, arg.arg, None


def _passed(roots):
    """``{name: what calls of that name pass}`` over the files under
    ``roots``: keyword names and positional indices, with ``"*"`` for a
    ``*args`` or ``**kwargs``."""
    passed = {}
    for path in (path for root in roots for path in root.rglob("*.py")):
        _calls(ast.parse(path.read_text()), (), passed)
    return passed


def _calls(node, enclosing, passed):
    # As in ``_collect``, a function's call to itself (``f`` in ``f``,
    # ``self.m`` in ``m``) is no caller: recursion alone cannot set an
    # option.
    if isinstance(node, ast.Call):
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        receiver = getattr(getattr(func, "value", None), "id", None)
        if not (name in enclosing and (isinstance(func, ast.Name) or receiver in ("self", "cls"))):
            got = passed.setdefault(name, set())
            got.update("*" if isinstance(a, ast.Starred) else i for i, a in enumerate(node.args))
            got.update(k.arg or "*" for k in node.keywords)
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        enclosing += (node.name,)
    for child in ast.iter_child_nodes(node):
        _calls(child, enclosing, passed)


def test_every_src_option_is_set_outside_the_tests():
    """A defaulted parameter of a ``src/`` ``def`` that no call in src/,
    bench/, benchmarks/ or examples/ passes is an option only tests set.
    A call passes it when it names the callable (``f(...)`` or
    ``x.f(...)``; the class, for ``__init__``) and gives it by keyword,
    positionally at its index, or through ``*`` / ``**``.  Calls match
    by name, so another callable's same-named call can hide an option;
    a callable's call to itself does not count.  Delete such an option, or list it in ``TEST_ONLY_OPTIONS`` with its
    reason.  Out of scope: dataclass fields (state, not call options), CLI flags
    (the CLI is itself the caller) and defs nested in a function (local
    closures whose callers sit beside them)."""
    src = pathlib.Path(repro.__file__).parent
    repo = src.parents[1]
    passed = _passed(repo / d for d in ("src", "bench", "benchmarks", "examples"))
    unset = {
        key
        for path in src.rglob("*.py")
        for key, called_as, param, index in _options(ast.parse(path.read_text()).body)
        if not passed.get(called_as, set()) & {param, index, "*"}
    }
    new, stale = unset - TEST_ONLY_OPTIONS.keys(), TEST_ONLY_OPTIONS.keys() - unset
    assert not new, f"options only tests set: {sorted(new)}"
    assert not stale, f"listed in TEST_ONLY_OPTIONS but set outside the tests: {sorted(stale)}"
    kinds = {reason.partition(":")[0] for reason in TEST_ONLY_OPTIONS.values()}
    assert kinds <= {"input", "hook", "dispatch"}
