"""The README's python examples and example configs run as written."""

import json
import re
from pathlib import Path

import pytest

from decorr import cli
from decorr.cli import EXIT_OK, main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks  # the check is not vacuous
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out  # the sketch prints spec.a


def test_readme_example_configs_run(tmp_path):
    # the config with observables is a decay config, the other a verify config
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), flags=re.S)
    commands = ["decay" if "observables" in json.loads(b) else "verify" for b in blocks]
    assert sorted(commands) == ["decay", "verify"]  # the check is not vacuous
    for k, (command, block) in enumerate(zip(commands, blocks)):
        config = tmp_path / f"{k}.json"
        config.write_text(block)
        out = tmp_path / f"out{k}"
        assert main([command, "--config", str(config), "--out", str(out)]) == EXIT_OK
        assert (out / f"{command}_report.json").exists()


def test_readme_command_line_flags_are_the_parsers(capsys):
    # every --flag the command-line section names is an option, and the other way round
    section = README.read_text().split("## Command line\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    options = set()
    for argv in [["--help"]] + [[command, "--help"] for command in cli._RUNNERS]:
        with pytest.raises(SystemExit):
            main(argv)
        options |= set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    options.discard("--help")
    assert documented and documented == options
