"""The README's python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks  # the check is not vacuous
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out  # the sketch prints spec.a
