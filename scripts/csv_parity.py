"""SHA-256 of the CLI's CSV and JSON outputs on the bundled pendulum.

    python3 scripts/csv_parity.py > hashes.txt

Prints one ``sha256  case`` line per case, where the case is the
``securekf`` command line that made the file (model path and output
path left out):

- ``simulate`` at gamma in {0.2, 5, 20, 1000}, seeds 0-2, clean and under
  ``--attack-kind uniform``, with ``--horizon 300``;
- ``simulate`` at gamma 5, seed 0, under ``--attack-kind uniform``, at the
  default horizon of 1000 steps: every step is open, so the whole run is
  fused as one block walk, the largest the CLI makes;
- ``simulate`` at gamma 5, seed 0, under ``--attack-kind uniform``, with
  ``--horizon 1500``: one run above the block cap, walked as 1000 rows
  and then 500;
- ``simulate`` at gamma 100, seed 0, clean, with ``--horizon 300``: the
  screen leaves 6 rows open (5-9 for seeds 0-2), and they are fused as
  one small block;
- ``simulate`` at gamma 5, seed 0, under ``--attack-kind constant`` and
  ``ramp``, with ``--horizon 300``: with the uniform cases, every attack
  kind the CLI offers;
- a default-grid ``sweep-gamma`` and ``sweep-attack`` with ``--trials 2
  --horizon 100``;
- ``sweep-attack --gamma 100`` with ``--trials 2 --horizon 100``: a
  trial leaves 661-740 rows open, but its clean run only 3-4, and those
  rows walk in their trial's block;
- ``sweep-attack --gamma 1000`` with ``--trials 2 --horizon 100``: a
  trial rolls its 11 attacks (the clean run and 10 magnitudes) out in one
  stacked pass, and the screen settles every row;
- ``sweep-attack --magnitudes 0,1`` with ``--trials 1 --horizon 1100``:
  two runs above the block cap, each fused as a batch of its own;
- the ``analyze --json`` file: the observability structure that the
  design and the decomposition of one set-up share.

The script imports ``securekf`` from the ``src/`` of the tree it sits in,
so running it from two checkouts and diffing the output tells whether a
change kept every byte of these files.  A case whose command exits
non-zero stops the script with an error naming the command.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODEL = ROOT / "configs" / "pendulum.json"
sys.path.insert(0, str(ROOT / "src"))

from securekf import cli  # noqa: E402


def cases() -> list[list[str]]:
    """The command line of every case, in the order they are printed."""
    out = [["simulate", "--horizon", "300", "--gamma", gamma, "--seed", seed,
            "--attack-kind", kind]
           for gamma in ("0.2", "5", "20", "1000") for seed in "012"
           for kind in ("none", "uniform")]
    out.append(["simulate", "--gamma", "5", "--seed", "0", "--attack-kind",
                "uniform"])
    out.append(["simulate", "--horizon", "1500", "--gamma", "5", "--seed",
                "0", "--attack-kind", "uniform"])
    out.append(["simulate", "--horizon", "300", "--gamma", "100", "--seed",
                "0", "--attack-kind", "none"])
    out += [["simulate", "--horizon", "300", "--gamma", "5", "--seed", "0",
             "--attack-kind", kind] for kind in ("constant", "ramp")]
    out += [[command, "--trials", "2", "--horizon", "100"]
            for command in ("sweep-gamma", "sweep-attack")]
    out += [["sweep-attack", "--gamma", gamma, "--trials", "2",
             "--horizon", "100"] for gamma in ("100", "1000")]
    out.append(["sweep-attack", "--magnitudes", "0,1", "--trials", "1",
                "--horizon", "1100"])
    return out + [["analyze", "--json"]]


def run(argv: list[str]) -> None:
    """cli.main(argv) with its console output dropped; a non-zero exit
    stops the script, naming the command."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"error: securekf {' '.join(argv)} exited {code}: "
                         f"{err.getvalue().strip()}")


def digest(case: list[str]) -> str:
    """SHA-256 of the file the case writes, to the path after its last
    flag when that is ``--json`` and to ``--out`` otherwise."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "out"
        argv = [case[0], str(MODEL), *case[1:]]
        argv += [str(path)] if case[-1] == "--json" else ["--out", str(path)]
        run(argv)
        return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> int:
    for case in cases():
        print(f"{digest(case)}  {' '.join(case)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
