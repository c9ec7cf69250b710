"""Cold start: ``import repro`` and a dry run load no third-party package
but NumPy, and each entry point loads only the ``repro`` modules it runs.

scipy's ``erf`` is only needed by a numeric ``ops.erf`` and scipy.optimize
only by ``isoefficiency_hidden``; both load on first use, and the cluster
topology needs no graph library.  ``ops.erf`` loads ``scipy`` and the one
extension defining the ufunc, not the ``scipy.special`` package.

A package ``__init__`` imports no submodule a caller did not ask for, so
the ``repro`` modules an import loads are pinned exactly: a new eager edge
fails here.  The checks run in a fresh interpreter, since this test session
has imported scipy and most of ``repro`` already.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[1] / "src")

_SCRIPT = textwrap.dedent(
    """
    import sys
    from importlib.metadata import packages_distributions

    import numpy as np

    # installed packages but NumPy, less what the interpreter loaded at start
    STARTUP = {m.split(".")[0] for m in sys.modules}
    THIRD_PARTY = set(packages_distributions()) - STARTUP - {"numpy", "repro"}

    def loaded():
        return sorted(THIRD_PARTY & {m.split(".")[0] for m in sys.modules})

    import repro
    from repro.backend import ops
    from repro.backend.shape_array import ShapeArray
    from repro.config import tiny_config
    from repro.experiments.runner import run_optimus_stem
    from repro.perfmodel.isoefficiency import isoefficiency_hidden

    assert loaded() == [], ("import", loaded())
    run_optimus_stem(tiny_config(num_layers=1), 2, 2)
    assert loaded() == [], ("dry run", loaded())
    y = ops.erf(ShapeArray((3, 4), "float32"))
    assert isinstance(y, ShapeArray) and y.shape == (3, 4), y
    assert loaded() == [], ("shape erf", loaded())

    x = np.linspace(-4.0, 4.0, 101)
    got = ops.erf(x)
    assert loaded() == ["scipy"], ("numeric erf", loaded())
    assert "scipy.special" not in sys.modules
    import scipy.special
    assert ops._sp_erf is scipy.special.erf
    assert got.tobytes() == scipy.special.erf(x).tobytes()
    assert ops.erf(x).tobytes() == got.tobytes()

    # the values the solve gave with scipy.optimize imported at module level
    assert isoefficiency_hidden("optimus", 64) == 56.18749999999942
    assert isoefficiency_hidden("megatron", 64) == 84.00000000000975
    print("ok")
    """
)


# a scipy without the extension: the lookup misses and erf comes from the
# scipy.special package import, the same ufunc
_FALLBACK_SCRIPT = textwrap.dedent(
    """
    import sys

    import numpy as np

    from repro.backend import ops

    ops._ERF_EXTENSION = "scipy.special._no_such_extension"
    x = np.linspace(-4.0, 4.0, 101)
    got = ops.erf(x)
    assert "scipy.special" in sys.modules
    assert ops._ERF_EXTENSION not in sys.modules
    import scipy.special
    assert ops._sp_erf is scipy.special.erf
    assert got.tobytes() == scipy.special.erf(x).tobytes()
    print("ok")
    """
)


def _run_fresh(script):
    out = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": _SRC},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_import_and_dry_run_load_no_third_party_package_but_numpy():
    assert _run_fresh(_SCRIPT) == "ok"


def test_numeric_erf_falls_back_to_the_scipy_special_import():
    assert _run_fresh(_FALLBACK_SCRIPT) == "ok"


#: the ``repro`` imports of ``hostbench/workloads.py``, which every hostbench
#: child makes before its first pass
_HOSTBENCH_IMPORTS = """
from repro import config
from repro.core import model as core_model
from repro.experiments import runner
from repro.megatron import model as megatron_model
from repro.mesh import mesh as mesh_mod
from repro.nn import init as nn_init
from repro.runtime.simulator import Simulator
from repro.serving import report as serving_report
from repro.serving import scheduler as serving_scheduler
from repro.serving import traffic as serving_traffic
from repro.training import data as training_data
from repro.training import optim as training_optim
from repro.training import trainer as training_trainer
"""

#: the simulator and both schemes' models and leaves (``repro.schemes``),
#: as ``repro.``-relative names
_STEM = {
    *"backend backend.dtypes backend.ops backend.shape_array".split(),
    *"comm comm.collectives comm.cost comm.group comm.stacked config schemes".split(),
    *"core core.buffers core.embedding core.layers core.loss".split(),
    *"core.model core.param core.summa".split(),
    *"hardware hardware.arrangement hardware.specs hardware.topology".split(),
    *"megatron megatron.embedding megatron.layers".split(),
    *"megatron.loss megatron.model".split(),
    *"mesh mesh.dtensor mesh.layouts mesh.mesh mesh.partition".split(),
    *"nn nn.leaves nn.loss nn.transformer obs obs.metrics".split(),
    *"reference reference.attention reference.functional".split(),
    *"runtime runtime.device runtime.events runtime.memory runtime.simulator".split(),
    "runtime.tape",
}
_RUNNER = _STEM | {"experiments", "experiments.runner", "nn.init"}
_ENGINE = _STEM | {
    *"serving serving.engine serving.kvcache serving.scheduler".split(),
    *"serving.telemetry serving.traffic utils".split(),
}
_GRAPH = [
    pytest.param("import repro", set(), id="repro"),
    pytest.param("import repro.runtime", {"runtime"}, id="runtime"),
    pytest.param("import repro.experiments.runner", _RUNNER, id="experiments.runner"),
    pytest.param("import repro.serving.engine", _ENGINE, id="serving.engine"),
    pytest.param(
        _HOSTBENCH_IMPORTS,
        _RUNNER | _ENGINE | {
            *"obs.ledger serving.report".split(),
            *"training training.data training.optim training.trainer".split(),
        },
        id="hostbench.workloads",
    ),
]


@pytest.mark.parametrize("imports, modules", _GRAPH)
def test_an_import_loads_exactly_its_pinned_repro_modules(imports, modules):
    script = imports + textwrap.dedent(
        """
        import json, sys

        print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "repro")))
        """
    )
    loaded = json.loads(_run_fresh(script))
    assert loaded == sorted({"repro"} | {f"repro.{m}" for m in modules})


#: what ``python -m repro --help`` loads: the CLI names every choice itself,
#: and the serving campaign's policy and arrival tables come from their
#: light modules
_HELP = {
    *"cli runtime runtime.memory utils".split(),
    *"serving serving.kvcache serving.scheduler serving.traffic".split(),
}


def test_help_loads_exactly_its_pinned_repro_modules():
    script = textwrap.dedent(
        """
        import contextlib, io, json, sys

        from repro import cli

        with contextlib.redirect_stdout(io.StringIO()):
            try:
                cli.main(["--help"])
            except SystemExit:
                pass
        print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "repro")))
        """
    )
    loaded = json.loads(_run_fresh(script))
    assert loaded == sorted({"repro"} | {f"repro.{m}" for m in _HELP})


def test_a_dry_run_does_not_load_numpy_random():
    """Dry-run parameters and stem inputs are placeholders: no generator is
    built, so ``numpy.random`` stays unloaded."""
    script = textwrap.dedent(
        """
        import sys

        from repro.config import tiny_config
        from repro.experiments.runner import run_megatron_stem, run_optimus_stem

        run_optimus_stem(tiny_config(num_layers=2), 2, 2)
        run_megatron_stem(tiny_config(num_layers=2), 2, 2)
        print("numpy.random" in sys.modules)
        """
    )
    assert _run_fresh(script) == "False"


def test_the_hostbench_imports_are_those_of_workloads_py():
    text = (Path(_SRC).parent / "hostbench" / "workloads.py").read_text()
    lines = [line for line in text.splitlines() if line.startswith("from repro")]
    assert lines == _HOSTBENCH_IMPORTS.strip().splitlines()
