"""The public API exposes no numerical tolerances as keyword parameters."""

import inspect
import re

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
