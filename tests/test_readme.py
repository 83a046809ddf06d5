"""The README's Python API example runs against the current code, so the
documented signatures cannot drift from the implementation."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_example_runs(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.DOTALL).group(1)
    exec(compile(block, str(README), "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out.strip()
