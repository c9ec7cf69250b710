"""``rank_map``: the per-rank loop on real arrays, one evaluation per distinct
(shape, dtype) signature on dryrun placeholders — and a whole dryrun stem that
cannot tell it from the naive loop."""

import numpy as np
import pytest

from repro.backend.shape_array import ShapeArray
from repro.config import tiny_config
from repro.core import summa
from repro.core.model import OptimusModel
from repro.experiments import runner
from repro.megatron.model import MegatronModel
from repro.mesh import dtensor
from repro.mesh.dtensor import rank_map
from repro.mesh.mesh import Mesh
from repro.nn import transformer
from repro.runtime.simulator import Simulator


def naive_rank_map(fn, ranks, *shard_dicts):
    return {r: fn(*(d[r] for d in shard_dicts)) for r in ranks}


@pytest.fixture
def calls():
    return []


def _spy(calls, fn):
    def spied(*args):
        calls.append(args)
        return fn(*args)

    return spied


class TestRealArrays:
    def test_one_call_per_rank_in_rank_order(self, calls, rng):
        ranks = [3, 0, 2]
        xs = {r: rng.normal(size=(2, 2)) for r in range(4)}
        ys = {r: rng.normal(size=(2, 2)) for r in range(4)}

        def fn(x, y):
            return x @ y + 1.0

        got = rank_map(_spy(calls, fn), ranks, xs, ys)
        want = naive_rank_map(fn, ranks, xs, ys)
        assert list(got) == ranks
        assert [(a is xs[r], b is ys[r]) for r, (a, b) in zip(ranks, calls)] == [(True, True)] * 3
        for r in ranks:
            np.testing.assert_array_equal(got[r], want[r])

    def test_same_shaped_arrays_are_never_shared(self, calls):
        xs = {r: np.full((2,), float(r)) for r in range(3)}
        got = rank_map(_spy(calls, lambda x: x * 2), range(3), xs)
        assert len(calls) == 3
        assert [got[r][0] for r in range(3)] == [0.0, 2.0, 4.0]


class TestPlaceholders:
    def test_one_evaluation_per_distinct_signature(self, calls):
        xs = {r: ShapeArray((4, 3), "float32") for r in range(6)}
        got = rank_map(_spy(calls, lambda x: x.T), range(6), xs)
        assert len(calls) == 1
        assert list(got) == list(range(6))
        assert all(got[r] is got[0] for r in got) and got[0].shape == (3, 4)

    def test_ragged_signatures_are_evaluated_separately(self, calls):
        rows = [3, 9, 3, 9]
        dtypes = ["float32", "float32", "float64", "float32"]
        xs = {r: ShapeArray((rows[r], 2), dtypes[r]) for r in range(4)}
        got = rank_map(_spy(calls, lambda x: x.sum(axis=1)), range(4), xs)
        assert len(calls) == 3  # (3,f32), (9,f32), (3,f64); rank 3 shares rank 1's
        assert [(got[r].shape, got[r].dtype.name) for r in range(4)] == [
            ((rows[r],), dtypes[r]) for r in range(4)
        ]
        assert got[3] is got[1] and got[2] is not got[0]

    def test_tuples_of_placeholders_nest(self, calls):
        def saved(rows):
            return (ShapeArray((rows, 2)), (ShapeArray((rows, 1)), ShapeArray((rows, 1))))

        xs = {0: saved(4), 1: saved(4), 2: saved(5)}
        got = rank_map(_spy(calls, lambda t: t[0] + t[1][0]), range(3), xs)
        assert len(calls) == 2
        assert got[0] is got[1] and got[2].shape == (5, 2)

    def test_signature_is_per_argument(self, calls):
        xs = {r: ShapeArray((2, 2)) for r in range(3)}
        ys = {0: ShapeArray((2, 1)), 1: ShapeArray((2, 2)), 2: ShapeArray((2, 1))}
        got = rank_map(_spy(calls, lambda x, y: x * y), range(3), xs, ys)
        assert len(calls) == 2 and got[0] is got[2]

    @pytest.mark.parametrize("real_in, real_rank, evaluations", [(0, 0, 4), (1, 0, 2), (1, 2, 2)])
    def test_a_real_array_among_the_arguments_is_never_shared(
        self, calls, real_in, real_rank, evaluations
    ):
        """A real first argument on the first rank means real arrays: every
        rank evaluates.  Anywhere else it has no signature and its rank is
        evaluated alone, whatever the placeholders beside it look like."""
        dicts = [{r: ShapeArray((2,), "float64") for r in range(4)} for _ in range(2)]
        dicts[real_in][real_rank] = np.ones(2)
        got = rank_map(_spy(calls, lambda x, y: x + y), range(4), *dicts)
        assert len(calls) == evaluations
        assert sum(any(type(a) is np.ndarray for a in args) for args in calls) == 1
        assert all(got[r].shape == (2,) for r in range(4))

    def test_real_arrays_on_later_ranks_keep_their_own_values(self, calls):
        xs = {r: ShapeArray((2,), "float64") for r in range(3)}
        ys = {0: ShapeArray((2,), "float64"), 1: np.ones(2), 2: np.full(2, 5.0)}
        got = rank_map(_spy(calls, lambda x, y: y), range(3), xs, ys)
        assert got[1][0] == 1.0 and got[2][0] == 5.0


class TestSharedPlaceholders:
    """Every rank holding the *same* placeholder objects (what the batched
    SUMMA executor and an earlier ``rank_map`` hand out) is one evaluation
    with no per-rank signature pass."""

    @pytest.fixture
    def signatures(self, monkeypatch):
        seen = []
        real = dtensor._signature
        monkeypatch.setattr(
            dtensor, "_signature", lambda x: seen.append(x) or real(x)
        )
        return seen

    def test_same_result_as_the_per_rank_pass(self, calls, signatures):
        ranks = [2, 0, 3, 1]
        one, pair = ShapeArray((4, 3), "float32"), (ShapeArray((4, 1)), ShapeArray((1, 3)))
        xs, ys = dict.fromkeys(range(4), one), dict.fromkeys(range(4), pair)

        def fn(x, y):
            return x * y[0] + y[1]

        got = rank_map(_spy(calls, fn), ranks, xs, ys)
        assert len(calls) == 1 and calls[0][0] is one and calls[0][1] is pair
        assert len(signatures) == 4  # one per argument (the pair nests two more)
        # the per-rank loop itself: same keys in the same order, and (results
        # are interned) the same placeholder on every rank
        want = {r: fn(xs[r], ys[r]) for r in ranks}
        assert list(got) == list(want) == ranks
        assert all(got[r] is want[r] for r in ranks)
        assert (want[2].shape, want[2].dtype.name) == ((4, 3), "float32")

    def test_ranks_may_be_the_shard_dict_itself(self, calls):
        xs = dict.fromkeys([5, 1, 3], ShapeArray((2, 2)))
        got = rank_map(_spy(calls, lambda x: x.T), xs, xs)
        assert list(got) == [5, 1, 3] and len(calls) == 1

    def test_one_distinct_object_takes_the_per_rank_pass(self, calls, signatures):
        shared = ShapeArray((2, 2))
        xs = dict.fromkeys(range(4), shared)
        ys = dict(xs)
        ys[3] = ShapeArray((2, 1))  # ragged: another signature, another object
        got = rank_map(_spy(calls, lambda x, y: x + y), range(4), xs, ys)
        assert len(calls) == 2 and len(signatures) > 4  # shared by signature instead
        assert all(got[r] is got[0] for r in range(3)) and got[3] is got[0]
        del calls[:], signatures[:]
        ys[3] = ShapeArray((2, 2))  # an equal signature is the same object
        assert ys[3] is shared
        rank_map(_spy(calls, lambda x, y: x + y), range(4), xs, ys)
        assert len(calls) == 1 and len(signatures) == 2

    def test_ragged_and_mixed_calls_do_not_take_it(self, calls):
        xs = dict.fromkeys(range(3), ShapeArray((2,), "float64"))
        ragged = {0: ShapeArray((2, 1)), 1: ShapeArray((2, 5)), 2: ShapeArray((2, 1))}
        got = rank_map(_spy(calls, lambda x, y: y.sum(axis=0)), range(3), xs, ragged)
        assert len(calls) == 2 and got[1].shape == (5,) and got[0] is got[2]
        del calls[:]
        real = np.ones(2)
        mixed = dict.fromkeys(range(3), real)  # one object, but it has no signature
        got = rank_map(_spy(calls, lambda x, y: x + y), range(3), xs, mixed)
        assert len(calls) == 3 and all(c[1] is real for c in calls)


# ----------------------------------------------------------------------
# the whole stem: shared evaluations + batched shape plans against the
# naive per-rank loop + the per-rank SUMMA executor
# ----------------------------------------------------------------------
def _stem(scheme, p, fused):
    cfg = tiny_config()  # 6 heads: q ∈ {2, 3}, p ∈ {2, 6}
    if scheme == "optimus":
        sim = Simulator.for_mesh(q=p, backend="shape", trace=True)
        owner = Mesh(sim, p)
        model_cls = OptimusModel
    else:
        owner = sim = Simulator.for_flat(p=p, backend="shape", trace=True)
        model_cls = MegatronModel
    model = model_cls(
        owner, cfg, runner._stem_params(cfg), stem_only=True, fused_attention=fused,
        attention_chunk=4,
    )
    result = runner._run_stem(model, scheme, 6, None, "stem")
    return (
        result,
        sim.watermarks(),
        [repr(e) for e in sim.tracer.events],
        [repr(s) for s in sim.tracer.spans],
    )


@pytest.mark.parametrize(
    "scheme, p, fused",
    [("optimus", 2, False), ("optimus", 2, True), ("optimus", 3, False), ("optimus", 3, True),
     ("megatron", 2, False), ("megatron", 6, False), ("megatron", 6, True)],
)
def test_dryrun_stem_is_identical_to_the_naive_per_rank_run(monkeypatch, scheme, p, fused):
    taken = []
    real_batched = summa._run_batched
    monkeypatch.setattr(
        summa, "_run_batched", lambda *a: taken.append("batched") or real_batched(*a)
    )
    got = _stem(scheme, p, fused)
    assert bool(taken) == (scheme == "optimus")  # uniform shape plans batch

    for module in (dtensor, transformer):
        monkeypatch.setattr(module, "rank_map", naive_rank_map)
    monkeypatch.setattr(summa, "_batched_ready", lambda sim: False)
    del taken[:]
    want = _stem(scheme, p, fused)
    assert not taken

    assert got[0] == want[0]  # StemResult
    assert got[1] == want[1]  # per-rank watermarks
    assert got[2] == want[2] and got[3] == want[3]  # tracer events, spans
    assert len(got[2]) > 100
