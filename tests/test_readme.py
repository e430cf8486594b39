"""The README's python examples and example configs run as written."""

import json
import re
from pathlib import Path

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
