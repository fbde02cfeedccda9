"""The checked-in tools under tools/, loaded by path (they are not a package)."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import gapcert

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mutation_probe_names_a_parametrized_killer_whole():
    # summary lines pytest printed for the matio "data inf and NaN unchecked"
    # mutant, at the default width (no message) and at 250 columns
    probe = _load("mutation_probe")
    test = r"tests/test_matio.py::test_matrix_parse_error_names_first_bad_row[2 2\n1 2 inf\n4\n-row 1 has 3 entries, expected 2]"
    assert probe.node_id(f"FAILED {test}") == test
    assert probe.node_id(f"FAILED {test} - AssertionError:") == test
    assert probe.node_id("ERROR tests/test_x.py::test_y[a b] - ValueError: x - y") == "tests/test_x.py::test_y[a b]"


def test_ci_console_script_passes_through_a_shim(tmp_path):
    # the workflow's console-script checks, with `gapcert` a shim onto this checkout's package
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "gapcert"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m gapcert.cli "$@"\n')
    shim.chmod(0o755)
    src = str(Path(gapcert.__file__).resolve().parents[1])
    path = os.pathsep.join([str(bin_dir), str(Path(sys.executable).parent), os.environ.get("PATH", "")])
    env = dict(os.environ, PATH=path, PYTHONPATH=src, RUNNER_TEMP=str(tmp_path))
    proc = subprocess.run(["bash", str(TOOLS / "ci_console.sh")], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
