"""scripts/design_scan.py: run twice on the same seeds, the same line."""

import importlib.util
import pathlib
import re

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / \
    "design_scan.py"
spec = importlib.util.spec_from_file_location("design_scan", SCRIPT)
design_scan = importlib.util.module_from_spec(spec)
spec.loader.exec_module(design_scan)


def test_a_scan_run_twice_prints_the_same_line(capsys):
    assert design_scan.main(["20"]) == 0
    assert design_scan.main(["20"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[0] == lines[1]
    assert re.fullmatch(r"20 built, 0 refused: sha256 [0-9a-f]{64}",
                        lines[0])
