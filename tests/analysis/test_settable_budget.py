"""The settable surface has a budget that only shrinks.

Counted, not hand-kept: every ``__init__`` field of a dataclass under
``src/repro`` (what a caller can set when building one) and every
``add_argument`` call there (what a command line can set).  The
budgets below are this tree's totals; raise one only in a change that
says why, the way ANALYSIS.md caps the suppression comments.  KNOB001
decides which fields deserve to be settable; this decides how many
there are.

    python tests/analysis/test_settable_budget.py    # prints both counts
"""

import ast
import pathlib

from repro.analysis.rules import _init_fields, _is_dataclass

PACKAGE = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

#: ``__init__`` fields of the package's dataclasses.
DATACLASS_FIELDS_BUDGET = 239
#: ``add_argument`` calls: the CLI's 31 and the linter's 5.
CLI_ARGUMENTS_BUDGET = 36


def settable_counts(trees):
    """``(dataclass fields, CLI arguments)`` over parsed modules."""
    fields = arguments = 0
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields += sum(1 for _ in _init_fields(node))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"
            ):
                arguments += 1
    return fields, arguments


def package_counts():
    return settable_counts(
        ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.rglob("*.py"))
    )


def test_counts_init_fields_and_arguments():
    tree = ast.parse(
        "import argparse\n"
        "from dataclasses import dataclass, field\n"
        "from typing import ClassVar\n"
        "\n"
        "\n"
        "@dataclass(frozen=True)\n"
        "class Spec:\n"
        "    width: int = 8\n"
        "    depth: int = 2\n"
        "    kind: ClassVar[str] = 'spec'\n"
        "    cache: dict = field(init=False, default_factory=dict)\n"
        "\n"
        "\n"
        "class Plain:\n"
        "    width: int = 8\n"
        "\n"
        "\n"
        "parser = argparse.ArgumentParser()\n"
        "parser.add_argument('--width', type=int)\n"
    )
    assert settable_counts([tree]) == (2, 1)


def test_dataclass_fields_stay_within_budget():
    fields, _arguments = package_counts()
    assert fields <= DATACLASS_FIELDS_BUDGET, (
        f"{fields} settable dataclass fields, budget {DATACLASS_FIELDS_BUDGET}"
    )


def test_cli_arguments_stay_within_budget():
    _fields, arguments = package_counts()
    assert arguments <= CLI_ARGUMENTS_BUDGET, (
        f"{arguments} CLI arguments, budget {CLI_ARGUMENTS_BUDGET}"
    )


if __name__ == "__main__":
    FIELDS, ARGUMENTS = package_counts()
    print(f"dataclass fields {FIELDS} (budget {DATACLASS_FIELDS_BUDGET})")
    print(f"CLI arguments {ARGUMENTS} (budget {CLI_ARGUMENTS_BUDGET})")
