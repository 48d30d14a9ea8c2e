"""The README's documented surface and example config match the package."""

import re
from pathlib import Path

import numpy as np

import curveflow
from curveflow import build_radial_curve
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
