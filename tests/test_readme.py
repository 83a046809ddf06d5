"""The README's examples run against the current code, so the documented
signatures and commands cannot drift from the implementation."""

import re
import shlex
from pathlib import Path

from fsosr import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_example_runs(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.DOTALL).group(1)
    exec(compile(block, str(README), "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out.strip()


def test_quick_start_commands_run(tmp_path, monkeypatch):
    block = re.search(r"## Quick start\n+```bash\n(.*?)```", README.read_text(), re.DOTALL).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines if line.startswith("fsosr ")]
    assert [argv[1] for argv in commands] == [
        "gen-synthetic", "inspect", "eval", "eval", "heatmap", "gradcheck"
    ]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv[1:]) == 0, argv
    assert (tmp_path / "heatmaps" / "support00_mask.pgm").exists()
