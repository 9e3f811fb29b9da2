"""The README's config and library examples, run as written."""

import contextlib
import argparse
import dataclasses
import io
import json
import re
from pathlib import Path

from phytoperiod import IntegratorConfig
from phytoperiod.cli import _build_parser, parse_config

README = (Path(__file__).parents[1] / "README.md").read_text()


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.M | re.S)


def test_readme_config_parses():
    (block,) = _blocks("json")
    cfg = parse_config(json.loads(block))
    assert cfg.model.beta1.kind == "fourier"
    assert cfg.orbit_tol == 1e-10


def test_readme_integrator_table_lists_exactly_the_parsed_keys():
    """The README's `integrator` table names every key the parser accepts
    and no other, and its defaults parse to the default settings."""
    table = re.split(r"`integrator` is optional and accepts\s+these keys:",
                     README)[1]
    rows = re.findall(r"^\| `(\w+)` +\| `([^`]+)`", table.split("\n\n")[1],
                      re.M)
    keys = {key for key, _ in rows}
    assert keys == {"method",
                    *(f.name for f in dataclasses.fields(IntegratorConfig))}
    data = json.loads(_blocks("json")[0])
    data["integrator"] = {key: json.loads(default) for key, default in rows}
    assert parse_config(data).integrator == IntegratorConfig()



def test_readme_cli_section_names_exactly_the_parsed_options():
    """The README's CLI section names every option the parser defines,
    apart from -h/--help, and no other."""
    section = README.split("\n## CLI\n")[1].split("\n## ")[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", section))
    parsers = [_build_parser()]
    defined = set()
    while parsers:
        for action in parsers.pop()._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
            defined.update(action.option_strings)
    assert named == defined - {"-h", "--help"}

def test_readme_library_example_finds_a_stable_orbit():
    (block,) = _blocks("python")
    out = io.StringIO()
    namespace = {}
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), namespace)
    orbit = namespace["orbit"]
    assert orbit.residual_norm < 1e-11
    assert orbit.stable and orbit.stop_rule != "steady_state"
    assert out.getvalue().rstrip().endswith("True")
