"""The public API exposes no numerical tolerances as keyword parameters,
and importing the package needs numpy alone."""

import inspect
import os
import pathlib
import re
import subprocess
import sys

import securekf

KNOB = re.compile(r"(\w+_)?r?tol|separation|max_iter|cond_limit")


def test_no_tolerance_parameters_in_public_functions():
    knobs = []
    for name in securekf.__all__:
        fn = getattr(securekf, name)
        if inspect.isfunction(fn):
            knobs += [f"{name}({param})"
                      for param in inspect.signature(fn).parameters
                      if KNOB.fullmatch(param)]
    assert knobs == []


def test_import_leaves_scipy_unloaded():
    # scipy is a test dependency only; loading scipy.linalg would double
    # the memory of every process that imports the package
    src = pathlib.Path(securekf.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, securekf, securekf.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


MOVED_TO_TEST_HELPERS = ("local_gain_factored", "fusion_weights",
                         "characteristic_polynomial",
                         "brute_force_sparse_index", "security_gap",
                         "SecurityGap")


def test_oracles_are_not_public_and_every_public_name_resolves():
    # the second constructions live in tests/helpers.py: the package
    # neither exports nor binds them
    for name in MOVED_TO_TEST_HELPERS:
        assert name not in securekf.__all__, name
        assert not hasattr(securekf, name), name
    for name in securekf.__all__:
        assert hasattr(securekf, name), name
