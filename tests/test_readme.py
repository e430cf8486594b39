"""The README's python examples and example configs run as written."""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import decorr as dc
from decorr import algebra, cli, expansion
from decorr.cli import EXIT_OK, main

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = README.parent / "src"


def readme_configs():
    """(command, config text) of each README example config."""
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), flags=re.S)
    return [("decay" if "observables" in json.loads(b) else "verify", b) for b in blocks]


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks  # the check is not vacuous
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out  # the sketch prints spec.a


def test_readme_names_resolve():
    # a module attribute the README cites must exist: a removed helper would
    # leave its prose describing code that is gone
    cited = r"`((?:algebra|model|gibbs|expansion|lattice)\.\w+)`"
    names = set(re.findall(cited, README.read_text()))
    names -= {"model.py", "model.seed"}  # a file and a config key, not attributes
    assert len(names) > 10  # the check is not vacuous
    for name in sorted(names):
        module, attr = name.split(".")
        assert hasattr(importlib.import_module(f"decorr.{module}"), attr), name


def test_readme_states_the_dense_cap():
    # the cap is on the dimension q^n; the sites it admits per q follow from it
    cap = (
        r"capped at dimension q\^n ≤ 2\^(\d+) = (\d+),\s+`algebra.MAX_DENSE_DIM`:\s+"
        r"(\d+) sites at q = 2, (\d+) at q = 3, (\d+) at q = 4, (\d+) at q = 5;"
    )
    found = re.search(cap, README.read_text())
    assert found
    exponent, dim, *sites = map(int, found.groups())
    assert 2**exponent == dim == algebra.MAX_DENSE_DIM
    for q, n in zip(range(2, 6), sites):
        assert q**n <= dim < q ** (n + 1)


def _refuse_constant(constant):
    raise ValueError(f"{constant} is not JSON")


def test_readme_example_configs_run(tmp_path):
    # the config with observables is a decay config, the other a verify config
    configs = readme_configs()
    assert sorted(c for c, _ in configs) == ["decay", "verify"]  # the check is not vacuous
    for k, (command, block) in enumerate(configs):
        config = tmp_path / f"{k}.json"
        config.write_text(block)
        out = tmp_path / f"out{k}"
        assert main([command, "--config", str(config), "--out", str(out)]) == EXIT_OK
        # strict JSON: a value that is not finite, such as the xi of a decay
        # fit with no point over the floor, is written as null, not NaN
        json.loads((out / f"{command}_report.json").read_text(), parse_constant=_refuse_constant)


class _Built(Exception):
    pass


def test_readme_model_blocks_read_alike_in_the_library_and_the_cli(tmp_path, monkeypatch):
    # decorr.spec_from_json reads a config's model block as decorr verify
    # does; the spec verify builds is caught at its first check
    def caught(spec, beta):
        raise _Built(spec)

    monkeypatch.setattr(expansion, "verify_resummation", caught)
    for k, (_, block) in enumerate(readme_configs()):
        cfg = json.loads(block)
        config = tmp_path / f"{k}.json"
        config.write_text(json.dumps({"model": cfg["model"], "betas": cfg["betas"]}))
        with pytest.raises(_Built) as built:
            main(["verify", "--config", str(config), "--out", str(tmp_path / f"out{k}")])
        library = dc.spec_to_json(dc.spec_from_json(cfg["model"]))
        assert library == dc.spec_to_json(built.value.args[0])
        assert dc.spec_from_json(library).a == built.value.args[0].a  # the round trip holds


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


# runs each README config in this interpreter and prints, as its last line,
# the modules the runs imported beyond a bare `import numpy`
_IMPORT_PROBE = """
import json, sys
import numpy
before = set(sys.modules)
from decorr.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, sorted(set(sys.modules) - before)]))
"""


def _probe(argvs):
    """(exit codes, modules imported) of the runs ``argvs`` in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(argvs)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True,
    )
    return json.loads(run.stdout.splitlines()[-1])


def test_readme_configs_do_not_import_numpy_random(tmp_path):
    # a seeded spec draws its disorder in model.py; numpy.random and the
    # OpenSSL it loads through secrets cost a fresh process 5 MB and 10-30 ms
    argvs = []
    for k, (command, block) in enumerate(readme_configs()):
        config = tmp_path / f"{k}.json"
        config.write_text(block)
        argvs.append([command, "--config", str(config), "--out", str(tmp_path / f"out{k}")])
    codes, imported = _probe(argvs)
    assert codes == [EXIT_OK, EXIT_OK]
    assert "decorr.model" in imported  # the probe sees what the runs import
    assert {"numpy.random", "secrets", "_hashlib"}.isdisjoint(imported)


def test_importing_the_cli_does_not_import_dataclasses():
    # @dataclass writes and execs each record's methods when its module is
    # imported, 10-13 ms of every fresh process for decorr's 16 records
    codes, imported = _probe([])
    assert codes == []
    assert "decorr.model" in imported  # the probe sees what the import loads
    assert "dataclasses" not in imported
