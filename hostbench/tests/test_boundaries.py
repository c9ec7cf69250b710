"""The layer table resolves, and patching leaves no trace behind."""

import sys

import pytest

from hostbench import boundaries
from hostbench.boundaries import LAYERS, Target, resolve, resolve_all
from hostbench.tracer import Tracer


def test_every_boundary_resolves_to_a_live_attribute():
    resolved = resolve_all()
    assert {r.layer for r in resolved} == set(LAYERS)
    for r in resolved:
        assert vars(r.owner)[r.attr] is r.raw, r.name


@pytest.mark.parametrize(
    "spec",
    [
        "repro.core.summa:summa_abc",  # renamed function
        "repro.core.layers:Linear3D.forward",  # renamed class
        "repro.core.model:OptimusModel.parameters",  # inherited, not defined there
        "repro.no_such_module:f",
    ],
)
def test_a_rename_fails_loudly(spec):
    with pytest.raises((LookupError, ImportError)):
        resolve("x", boundaries.SPAN, Target(spec))


def test_wildcard_covers_public_functions_only():
    names = {r.attr for r in resolve("x", boundaries.LEAF, Target("repro.backend.ops:*"))}
    assert {"matmul", "zeros", "sum"} <= names
    assert not any(n.startswith("_") for n in names)
    assert "is_shape_array" not in names  # imported into ops, defined elsewhere


def _module_bindings(fn):
    return [
        (name, attr)
        for name, module in sys.modules.items()
        if module is not None and (name == "repro" or name.startswith("repro."))
        for attr, value in vars(module).items()
        if value is fn
    ]


def test_patch_reaches_from_imports_and_unpatch_restores_identity():
    import repro.core.embedding
    import repro.core.layers
    import repro.serving.engine
    from repro.comm import collectives
    from repro.core import summa
    from repro.reference import attention

    originals = {
        "summa_ab": summa.summa_ab,
        "decode_attention_fwd": attention.decode_attention_fwd,
        "broadcast": collectives.broadcast,
    }
    before = {k: sorted(_module_bindings(fn)) for k, fn in originals.items()}
    assert ("repro.core.layers", "summa_ab") in before["summa_ab"]
    assert ("repro.serving.engine", "decode_attention_fwd") in before["decode_attention_fwd"]

    resolved = resolve_all()
    tracer = Tracer(resolved)
    with tracer.patched():
        # one wrapper, bound everywhere the original was
        assert summa.summa_ab is not originals["summa_ab"]
        assert repro.core.layers.summa_ab is summa.summa_ab
        assert repro.core.embedding.summa_ab is summa.summa_ab
        assert repro.serving.engine.decode_attention_fwd is attention.decode_attention_fwd
        assert summa.summa_ab.__wrapped__ is originals["summa_ab"]
        for k, fn in originals.items():
            assert _module_bindings(fn) == [], k
        # core.summa._batched_ready compares `coll.broadcast is
        # _PRISTINE_BROADCAST`; that module attribute IS the original too, so
        # it is rebound with the rest and the comparison keeps its answer: a
        # traced run takes the same SUMMA path as an untraced one
        assert collectives.broadcast is summa._PRISTINE_BROADCAST
    for k, fn in originals.items():
        assert sorted(_module_bindings(fn)) == before[k], k
    assert collectives.broadcast is summa._PRISTINE_BROADCAST is originals["broadcast"]
    for r in resolved:
        assert vars(r.owner)[r.attr] is r.raw, r.name
    assert not tracer.installed


def test_modules_imported_while_patched_are_cleaned_up():
    import types

    from repro.core import summa

    original = summa.summa_ab
    tracer = Tracer()
    late = types.ModuleType("repro._hostbench_late_import")
    try:
        with tracer.patched():
            late.summa_ab = summa.summa_ab  # what `from x import f` does
            sys.modules[late.__name__] = late
        assert late.summa_ab is original
    finally:
        sys.modules.pop(late.__name__, None)


def test_install_twice_is_an_error():
    tracer = Tracer()
    with tracer.patched():
        with pytest.raises(RuntimeError):
            tracer.install()
