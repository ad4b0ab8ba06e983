import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from rpcqr.cli import _build_config, build_parser

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$",
                           (ROOT / "README.md").read_text(), re.M | re.S)
# Every `rpcqr ...` line of a code block, and every inline `rpcqr ...` span.
DOC_COMMANDS = [m[1] or m[2] for doc in ("README.md", "configs/README.md")
                for m in re.finditer(r"^(rpcqr .*)$|`(rpcqr [^`]*)`",
                                     (ROOT / doc).read_text(), re.M)]


def run_fresh(argv, cwd=None):
    """Run ``python argv...`` in a fresh interpreter on this checkout.

    It inherits the environment, so also conftest.py's BLAS thread pin.
    """
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run([sys.executable, *argv], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_demos_found():
    assert DEMOS, "no demos/*.py to run"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    proc = run_fresh([str(demo)])
    assert proc.returncode == 0, proc.stderr


def test_readme_blocks_found():
    assert README_BLOCKS, "no ```python block in README.md"


@pytest.mark.parametrize("code", README_BLOCKS,
                         ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_block_runs(code, tmp_path):
    # Each block stands alone, as a reader would paste it.
    proc = run_fresh(["-c", code], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_doc_commands_found():
    assert DOC_COMMANDS, "no rpcqr command in README.md or configs/README.md"


@pytest.mark.parametrize("line", DOC_COMMANDS)
def test_doc_command_validates(line, monkeypatch):
    # Parsed and validated as the CLI would, before any work; nothing runs.
    monkeypatch.chdir(ROOT)  # the commands name configs/ in the checkout
    args = build_parser().parse_args(shlex.split(line)[1:])
    if args.command != "bounds":
        _build_config(args)


def test_every_config_has_a_paper_scale_command():
    paper = [line for line in DOC_COMMANDS if "--m 6000" in line]
    for path in sorted((ROOT / "configs").glob("*.json")):
        assert any(f"configs/{path.name}" in line for line in paper), path.name
