"""What a fresh import of lrucheck costs."""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil

import lrucheck

#: The classes that stay dataclasses, each for a job a NamedTuple cannot do.
KEPT_DATACLASSES = {
    # validation in __post_init__
    "cfg.CacheConfig", "concrete.StateSpace", "bench.GenSpec",
    # a cached property
    "cfg.Cfg",
    # mutation
    "classify.PhaseStats",
    # a custom container
    "concrete.AllStates", "focused.FocusedSeeds",
    # hash keys of every access: tuple hashing would change the cost of every pass
    "cfg.MemoryBlock", "cfg.Edge", "cfg.AccessId",
}


def test_dataclasses_are_only_the_kept_ones():
    """The package defines exactly the dataclasses that do a job.

    The dataclass decorator generates and compiles the methods of its class
    at every fresh import, and the benchmark imports the package afresh
    before every corpus pass.  A plain record is a `typing.NamedTuple`, whose
    class is built without that work.
    """
    found = set()
    for info in pkgutil.iter_modules(lrucheck.__path__):
        module = importlib.import_module(f"lrucheck.{info.name}")
        for name, obj in vars(module).items():
            if (
                inspect.isclass(obj)
                and obj.__module__ == module.__name__
                and dataclasses.is_dataclass(obj)
            ):
                found.add(f"{info.name}.{name}")
    assert found == KEPT_DATACLASSES
