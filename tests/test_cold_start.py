"""Cold start: ``import repro`` and a dry run load no third-party package
but NumPy.

scipy's ``erf`` is only needed by a numeric ``ops.erf`` and scipy.optimize
only by ``isoefficiency_hidden``; both load on first use, and the cluster
topology needs no graph library.  ``ops.erf`` loads ``scipy`` and the one
extension defining the ufunc, not the ``scipy.special`` package.  The checks
run in a fresh interpreter, since this test session has imported scipy
already.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

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
    assert out.stdout.strip() == "ok"


def test_import_and_dry_run_load_no_third_party_package_but_numpy():
    _run_fresh(_SCRIPT)


def test_numeric_erf_falls_back_to_the_scipy_special_import():
    _run_fresh(_FALLBACK_SCRIPT)
