"""The README's config and library examples, run as written."""

import contextlib
import io
import json
import re
from pathlib import Path

from phytoperiod.cli import parse_config

README = (Path(__file__).parents[1] / "README.md").read_text()


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.M | re.S)


def test_readme_config_parses():
    (block,) = _blocks("json")
    cfg = parse_config(json.loads(block))
    assert cfg.model.beta1.kind == "fourier"
    assert cfg.orbit_tol == 1e-10


def test_readme_library_example_finds_a_stable_orbit():
    (block,) = _blocks("python")
    out = io.StringIO()
    namespace = {}
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), namespace)
    orbit = namespace["orbit"]
    assert orbit.residual_norm < 1e-11
    assert orbit.stable and not orbit.degenerate_steady_state
    assert out.getvalue().rstrip().endswith("True")
