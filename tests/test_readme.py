"""README.md against the package: its usage lines and the names it cites.

README points into the package rather than restating it, so these checks
keep the pointers live: a renamed option or function fails here, not in
a reader's hands.
"""

import argparse
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import abelian_fourier
from abelian_fourier.cli import build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

MODULES = {m.name for m in pkgutil.iter_modules(abelian_fourier.__path__)}

# a dotted name in backticks, up to a call's parenthesis or the closing
# backtick: `intlinalg.int_matrix`, `errors.require_equal(lhs, rhs, ...)`
DOTTED = re.compile(r"`((?:[A-Za-z_]\w*\.)+[A-Za-z_]\w*)[`(]")
FILE_SUFFIXES = (".py", ".json", ".md", ".toml")


def subcommand_options():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }


USAGE = {
    m[1]: set(re.findall(r"--[a-z][a-z-]*", m[2]))
    for m in re.finditer(r"^ +abelian-fourier (\w+)(.*)$", README, re.M)
}


def test_usage_lines_list_every_option_of_their_subcommand():
    assert USAGE == subcommand_options()


def resolve(name: str):
    head, *rest = name.split(".")
    if head in MODULES:
        obj = importlib.import_module(f"abelian_fourier.{head}")
    else:
        obj = getattr(abelian_fourier, head)  # a public class
    for part in rest:
        obj = getattr(obj, part)
    return obj


def cited_names():
    names = sorted(set(DOTTED.findall(README)))
    return [n for n in names if not n.endswith(FILE_SUFFIXES)
            and (n.split(".")[0] in MODULES
                 or isinstance(getattr(abelian_fourier, n.split(".")[0], None), type))]


def test_readme_cites_dotted_names():
    # the check below has something to guard
    assert "intlinalg.kernel_saturated_sparse" in cited_names()
    assert "HodgeLattice.coordinates" in cited_names()


@pytest.mark.parametrize("name", cited_names())
def test_every_dotted_name_in_readme_resolves(name):
    resolve(name)
