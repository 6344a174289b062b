"""README's library example runs as written, from the repository root."""

import re
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_library_example_runs(monkeypatch, capsys):
    section = (ROOT / "README.md").read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(ROOT)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out
