"""What the benchmark harness under bench/ needs of the package.

bench/tracing.py wraps the functions it names wherever the package binds
them, bench/run.py requires calls at some of those bindings, and
bench/child.py runs the census with ``jobs=`` and ``verify-paper`` behind a
global ``--jobs``.  A refactor that breaks one of these would otherwise fail
only in a traced benchmark run.  The harness files are loaded, not edited.
"""

import importlib
import importlib.util
import inspect
import types
from pathlib import Path

import pytest

from varietylab import cli, enumeration, verify

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("tracing")


def _resolve(qual):
    """The object that a "mod.attr" name of the harness names."""
    mod, attr = qual.split(".")
    return getattr(importlib.import_module(f"varietylab.{mod}"), attr)


def test_every_traced_target_is_a_callable_of_the_package(tracing):
    for qual in tracing.TARGETS:
        assert callable(_resolve(qual)), qual


def test_every_cached_measure_reports_its_cache(tracing):
    for qual in tracing.CACHED:
        assert hasattr(_resolve(qual), "cache_info"), qual


def test_every_exercised_site_binds_its_target():
    run = _load("run")
    for workload, sites in run.EXERCISED_SITES.items():
        for site in sites:
            module, qual = site.split(":")
            target = _resolve(qual)
            bound = vars(importlib.import_module(module)).values()
            assert any(value is target for value in bound), (workload, site)


def test_census_takes_a_jobs_argument():
    assert "jobs" in inspect.signature(enumeration.enumerate_algebras).parameters


def test_jobs_before_verify_paper_parses():
    args = cli.build_parser().parse_args(["--jobs", "1", "verify-paper"])
    assert args.jobs == 1 and args.func is cli.cmd_verify


def test_numbered_checks_are_plain_functions():
    # the tracer swaps members of this tuple for wrappers; a dict keyed by the
    # functions, or a member of another kind, would escape it
    assert isinstance(verify.NUMBERED_CHECKS, tuple)
    assert all(type(check) is types.FunctionType for check in verify.NUMBERED_CHECKS)
