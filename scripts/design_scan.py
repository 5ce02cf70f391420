"""One SHA-256 over the designs of many random models, to tell whether a
change kept every bit of the design phase beyond the bundled pendulum.

    python3 scripts/design_scan.py [N]

Takes the random Jordan models ``random_jordan_model(s,
ensure_observable=True)`` of ``tests/helpers.py`` for the seeds s < N
(default 3,000) and sets each one up as the CLI does: ``spectral_design``,
``build_decomposition`` and its ``fusion_problem``.  The digest is fed,
seed by seed:

- for a design that is built, every array of its SpectralDesign,
  SensorDecomposition and FusionProblem, and their float field
  ``ridge_delta``;
- for one that is refused, the error's type and message;
- for every 10th seed that is built, the arrays of a 40-step ``simulate``
  under ``default_attack`` at gamma 5, or its refusal's type and message.

Prints one line: the count of designs built and refused, and the digest.
A design whose Mtilde needs a ridge logs its warning to stderr, as it
does in the CLI.
The script imports ``securekf`` from the ``src/`` of the tree it sits in,
so running it from two checkouts and comparing the lines tells whether a
change kept these bits.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pathlib
import struct
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from helpers import random_jordan_model  # noqa: E402
from securekf import (build_decomposition, default_attack,  # noqa: E402
                      simulate, spectral_design)

DEFAULT_SEEDS = 3000
SIMULATE_EVERY = 10
HORIZON = 40
GAMMA = 5.0
# the refusals a design or a run may end in, as the CLI maps them to exit
# codes; any other exception stops the scan
REFUSALS = (ValueError, RuntimeError, AssertionError)


def feed(digest, value) -> None:
    """Feed an array (dtype, shape and bytes) or a float (its 8 bytes);
    a tuple or a dataclass element by element; anything else not at
    all.  So a tree that holds a Cholesky factor as the pair (L, lower)
    feeds the same bytes as one that holds L."""
    if isinstance(value, np.ndarray):
        digest.update(f"{value.dtype}{value.shape}".encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, float):
        digest.update(struct.pack("<d", value))
    elif isinstance(value, tuple):
        for item in value:
            feed(digest, item)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            feed(digest, getattr(value, field.name))


def feed_refusal(digest, exc) -> None:
    digest.update(f"{type(exc).__name__}: {exc}".encode())


def scan(seeds: int) -> str:
    """The printed line for the seeds s < seeds."""
    digest = hashlib.sha256()
    built = refused = 0
    for s in range(seeds):
        model = random_jordan_model(s, ensure_observable=True)
        try:
            design = spectral_design(model)
            decomposition = build_decomposition(model, design)
            problem = decomposition.fusion_problem
        except REFUSALS as exc:
            refused += 1
            feed_refusal(digest, exc)
            continue
        built += 1
        for part in (design, decomposition, problem):
            feed(digest, part)
        if s % SIMULATE_EVERY:
            continue
        try:
            trace = simulate(model, design, decomposition,
                             default_attack(model.m), GAMMA, HORIZON, s)
        except REFUSALS as exc:
            feed_refusal(digest, exc)
        else:
            feed(digest, trace)
    return f"{built} built, {refused} refused: sha256 {digest.hexdigest()}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    seeds = int(argv[0]) if argv else DEFAULT_SEEDS
    print(scan(seeds), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
