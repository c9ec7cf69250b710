"""The scheme table: every per-scheme choice above the model is a field read.

A build through :data:`repro.schemes.SCHEMES` must equal the direct build it
replaced, a non-square device count must fail where Optimus is asked for it,
and no module outside the table may branch on a scheme's name (nor, outside
``mesh/`` and ``comm/``, on an owner's class).
"""

import ast
from pathlib import Path

import pytest

from repro.config import ModelConfig, tiny_config
from repro.core.model import OptimusModel
from repro.experiments import runner, table1
from repro.megatron.model import MegatronModel
from repro.mesh.mesh import Mesh
from repro.nn.init import init_transformer_params
from repro.perfmodel.memory_model import max_batch_size
from repro.runtime.simulator import Simulator
from repro.schemes import SCHEMES, mesh_side
from repro.serving.engine import MegatronServingEngine, OptimusServingEngine, make_engine
from repro.serving.traffic import TrafficGenerator

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: (module, function) pairs that may branch on a scheme name: none (the
#: analytic memory model's per-scheme terms are ``Scheme`` fields)
ALLOWED: set = set()

# 16 heads and a 64-wide hidden split over a 4×4 mesh and over 16 flat ranks
CFG = ModelConfig(vocab_size=64, hidden_size=64, num_heads=16, num_layers=1, seq_len=8)


def _events(sim):
    return [repr(e) for e in sim.tracer.events]


@pytest.mark.parametrize("p", [4, 16])
@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_entry_builds_its_scheme_on_p_devices(scheme, p):
    rec = SCHEMES[scheme]
    sim = rec.simulator(p, backend="shape")
    params = init_transformer_params(CFG, backend="shape", include_embedding=False)
    model = rec.model(sim, CFG, params, stem_only=True)
    assert sim.num_ranks == p
    assert model.scheme == scheme


def test_keys_in_serving_order():
    assert tuple(SCHEMES) == ("optimus", "megatron")


@pytest.mark.parametrize("p", [2, 8, 12])
def test_mesh_side_rejects_a_non_square_count(p):
    with pytest.raises(ValueError, match=f"^{p} devices is not a square mesh$"):
        mesh_side(p)


def _direct_stem(scheme):
    """The stem on 16 devices as it was built before the table."""
    if scheme == "optimus":
        sim = Simulator.for_mesh(q=4, backend="shape", trace=True)
        model = OptimusModel(Mesh(sim, 4), CFG, runner._stem_params(CFG), stem_only=True)
    else:
        sim = Simulator.for_flat(p=16, backend="shape", trace=True)
        model = MegatronModel(sim, CFG, runner._stem_params(CFG), stem_only=True)
    return runner._run_stem(model, scheme, 4, None, "stem"), sim


@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_run_stem_equals_the_direct_build(monkeypatch, scheme):
    built = []
    real = runner._run_stem

    def spy(model, *args):
        built.append(model.sim)
        return real(model, *args)

    monkeypatch.setattr(runner, "_run_stem", spy)
    got = runner.run_stem(scheme, CFG, 16, 4, trace=True)
    monkeypatch.setattr(runner, "_run_stem", real)
    want, sim = _direct_stem(scheme)
    assert got == want
    assert _events(built[0]) == _events(sim)
    assert built[0].watermarks() == sim.watermarks()


def test_megatron_refuses_an_arrangement():
    """A flat group has one placement: an explicit arrangement is an error,
    not silently ignored."""
    assert SCHEMES["megatron"].arrangement is None
    with pytest.raises(TypeError, match="^megatron takes no arrangement, got 'linear'$"):
        runner.run_stem("megatron", CFG, 16, 4, arrangement="linear")


def test_run_stem_defaults_to_the_schemes_arrangement():
    rec = SCHEMES["optimus"]
    assert rec.arrangement == "bunched"
    default = runner.run_stem("optimus", CFG, 16, 4)
    assert default == runner.run_stem("optimus", CFG, 16, 4, arrangement=rec.arrangement)
    assert default != runner.run_stem("optimus", CFG, 16, 4, arrangement="naive")


@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_make_engine_equals_the_direct_build(scheme):
    cfg = tiny_config(num_heads=4)
    params = init_transformer_params(cfg, seed=1)
    requests = TrafficGenerator(
        seed=0, vocab_size=cfg.vocab_size, arrival="poisson", rate_rps=1000.0, num_requests=6
    ).generate()
    blocks = 24 // SCHEMES[scheme].kv_pools(4)
    table = make_engine(scheme, cfg, params, 2, 8, 8, blocks, trace=True)
    if scheme == "optimus":
        direct = OptimusServingEngine(Simulator.for_mesh(2, trace=True), cfg, params, 8, 8, blocks)
    else:
        direct = MegatronServingEngine(Simulator.for_flat(4, trace=True), cfg, params, 8, 8, blocks)
    got, want = table.run(requests), direct.run(requests)
    assert [s.generated for s in got.completed] == [s.generated for s in want.completed]
    assert _events(table.sim) == _events(direct.sim)
    assert table.sim.watermarks() == direct.sim.watermarks()


def test_table1_rejects_a_non_square_optimus_mesh():
    cfg = ModelConfig(vocab_size=64, hidden_size=48, num_heads=24, num_layers=1, seq_len=8)
    with pytest.raises(ValueError, match="^8 devices is not a square mesh$"):
        table1.run(cfg, p=8, batch_size=24)


def test_max_batch_size_rejects_a_non_square_optimus_mesh():
    with pytest.raises(ValueError, match="^8 devices is not a square mesh$"):
        max_batch_size("optimus", CFG, 8, 16e9, method="estimate")


#: the layout owners' classes: only the mesh and comm packages may test for them
OWNER_TYPES = {"Mesh", "ProcessGroup"}


def _scheme_branches(path: Path):
    """``(function, line, what)`` of every ==/!= against a scheme's name
    (``what`` "name") and every ``isinstance`` test for an owner's class
    (``what`` "owner")."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Compare) and any(
            isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops
        ):
            for side in [node.left, *node.comparators]:
                if isinstance(side, ast.Constant) and side.value in SCHEMES:
                    found.append((func, node.lineno, "name"))
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "isinstance"
            and len(node.args) == 2
        ):
            named = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.args[1])}
            if named & OWNER_TYPES:
                found.append((func, node.lineno, "owner"))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text()), None)
    return found


def test_no_branch_on_a_scheme_name_outside_the_table():
    """Nor on which owner a tensor lives on: a scheme is its layouts, so
    code outside ``mesh/`` and ``comm/`` asks the owner for its lines and
    ranks, never for its class."""
    stray = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for func, line, what in _scheme_branches(path):
            if what == "name" and rel != "schemes.py" and (rel, func) not in ALLOWED:
                stray.append(f"{rel}:{line} ({func})")
            if what == "owner" and not rel.startswith(("mesh/", "comm/")):
                stray.append(f"{rel}:{line} ({func}): isinstance of an owner")
    assert stray == []
