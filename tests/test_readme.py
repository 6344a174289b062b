"""README's library example and CLI commands run as written, from the repository root."""

import re
import shlex
import warnings
from pathlib import Path

from disorder.cli import main

ROOT = Path(__file__).resolve().parents[1]


def test_library_example_runs(monkeypatch, capsys):
    section = (ROOT / "README.md").read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(ROOT)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_cli_commands_run(monkeypatch, tmp_path, capsys):
    section = (ROOT / "README.md").read_text().split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1).replace("\\\n", " ")
    commands = [shlex.split(line) for line in block.splitlines() if line.strip() and not line.startswith("#")]
    assert len(commands) == 6 and all(argv[0] == "disorder" for argv in commands)
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("DISORDER_OUT_DIR", str(tmp_path))
    for argv in commands:
        assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)
