"""The benchmark's tracer wraps library functions by name; a rename or a
deletion in the package must not break a traced run silently."""

import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name,attr", [
    (module_name, attr) for module_name, attr, _prefix, _kind in _tracer().TARGETS
], ids=lambda value: value)
def test_every_tracer_target_resolves(module_name, attr):
    import gkmhess.cli  # noqa: F401  (the tracer wraps the CLI's suites too)

    target = importlib.import_module(f"gkmhess.{module_name}")
    owner_name, _, fn_name = attr.rpartition(".")
    if owner_name:
        target = getattr(target, owner_name)
        assert fn_name in target.__dict__
    else:
        assert callable(getattr(target, fn_name))


def test_tracer_reads_the_dot_caches_and_the_rank_default():
    dot_module = importlib.import_module("gkmhess.dot")  # the package exports dot()
    from gkmhess.decomp import _rank_mod_p
    from gkmhess.gkm import HessenbergFunction

    dot_module.generator_matrix(1, 1, HessenbergFunction.permutohedral(3))
    assert dot_module._caches
    assert all(isinstance(cache.cache, dict) for cache in dot_module._caches.values())
    assert _rank_mod_p.__defaults__ and isinstance(_rank_mod_p.__defaults__[0], int)
