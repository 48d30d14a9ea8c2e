"""The README's documented surface and example config match the package."""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import curveflow
from curveflow import build_radial_curve, cli
from curveflow.cli import parse_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_exported_names_match_the_readme_list():
    # the bullet list that follows the sentence, up to its first blank line
    after = README.split("The package exports exactly these names:", 1)[1]
    bullets = after.strip("\n").split("\n\n", 1)[0]
    assert bullets.startswith("* ")
    assert sorted(re.findall(r"`(\w+)`", bullets)) == sorted(curveflow.__all__)


def test_readme_config_block_parses_to_its_documented_run():
    block = re.search(r"```ini\n(.*?)```", README, re.DOTALL).group(1)
    spec = parse_config(block)
    assert np.array_equal(spec.initial.nodes, build_radial_curve(5, 0.65, 200).nodes)
    assert spec.config.tau == 1e-4
    assert spec.config.snapshot_every == 100
    assert spec.out_dir == "out"


def test_readme_run_section_names_every_config_key():
    # from the config paragraph to the next heading
    section = re.split(r"\n##+ ", README.split("`run` reads a flat", 1)[1], maxsplit=1)[0]
    missing = [key for key in cli._KEYS
               if not re.search(rf"^{key} *=|`{key}`", section, re.MULTILINE)]
    assert missing == []


def test_package_import_loads_no_ode_or_special_function_stack():
    # a fresh interpreter: the test modules themselves import scipy.integrate
    probe = (
        "import sys, curveflow, curveflow.cli; "
        "print(*[m for m in ('scipy.integrate', 'scipy.optimize', 'scipy.special') "
        "if m in sys.modules])"
    )
    src = str(Path(curveflow.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.stdout.strip() == ""


def test_readme_commands_and_cli_docstring_list_every_subcommand():
    parser = cli._build_parser()
    subcommands = next(action.choices for action in parser._actions
                       if isinstance(action, argparse._SubParsersAction))
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", README, re.DOTALL).group(1)
    assert re.findall(r"^curveflow (\w+)", block, re.MULTILINE) == list(subcommands)
    assert re.findall(r"^\* ``(\w+)", cli.__doc__, re.MULTILINE) == list(subcommands)


def test_readme_convergence_paragraph_names_every_error_table(convergence_report):
    paragraph = README.split("\n`convergence` is a temporal", 1)[1].split("\n\n", 1)[0]
    named = re.findall(r"`(\w+)\.csv`", paragraph)
    assert sorted(named) == sorted(convergence_report.error_tables)
