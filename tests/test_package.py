"""Package-level smoke tests: public API surface and version."""

import importlib

import pytest


def test_version():
    import repro

    assert repro.__version__ == "1.0.0"


@pytest.mark.parametrize(
    "module",
    [
        "repro.nn",
        "repro.data",
        "repro.models",
        "repro.hw",
        "repro.core",
        "repro.distributed",
        "repro.train",
        "repro.cli",
    ],
)
def test_subpackages_importable(module):
    importlib.import_module(module)


@pytest.mark.parametrize(
    "module",
    [
        "repro.nn",
        "repro.data",
        "repro.models",
        "repro.hw",
        "repro.core",
        "repro.distributed",
        "repro.train",
    ],
)
def test_all_exports_resolve(module):
    mod = importlib.import_module(module)
    for name in getattr(mod, "__all__", []):
        assert hasattr(mod, name), f"{module}.__all__ lists missing name {name!r}"


def test_core_symbols_are_callable_or_classes():
    import repro.core as core

    for name in ("generate_backbone", "build_pfg", "select_model",
                 "compute_importance_set", "prune_by_importance",
                 "personalized_architecture_aggregation",
                 "header_search_space_size"):
        assert callable(getattr(core, name))


def test_execution_placement_is_declared_once():
    """No dataclass under ``repro.distributed`` / ``repro.core`` /
    ``repro.train`` re-declares what :class:`ExecutionPlan` owns: a field
    named like one of the plan's, or like the knobs it replaced — the
    plan itself included, since its ``backend`` field is retired too."""
    import dataclasses
    import pkgutil
    import re

    import repro.core
    import repro.distributed
    import repro.train
    from repro.distributed.executor import ExecutionPlan

    owned = {f.name for f in dataclasses.fields(ExecutionPlan)}
    retired = re.compile(r"parallel_.*|backend|fleet_training|fleet_batched")
    assert not any(retired.fullmatch(name) for name in owned)
    offenders = []
    for package in (repro.core, repro.distributed, repro.train):
        for info in pkgutil.iter_modules(package.__path__, package.__name__ + "."):
            module = importlib.import_module(info.name)
            for cls in vars(module).values():
                if (
                    not dataclasses.is_dataclass(cls)
                    or cls is ExecutionPlan
                    or getattr(cls, "__module__", None) != info.name
                ):
                    continue
                offenders += [
                    f"{info.name}.{cls.__name__}.{f.name}"
                    for f in dataclasses.fields(cls)
                    if f.name in owned or retired.fullmatch(f.name)
                ]
    assert offenders == []


def test_run_has_no_fleet_flag():
    """``repro-cli run --fleet`` is retired with the knob it set (the
    edge derives the grouping); ``table1 --fleet N`` is a fleet *size*."""
    from repro.cli import build_parser

    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "--fleet"])
    assert parser.parse_args(["table1", "--fleet", "7"]).fleet == 7
