"""The ``python -m repro`` option tables, pinned as data.

Every parser's options as argparse holds them: option strings, the metavar
``--help`` prints, choices, default, type, help and nargs, plus each
subcommand's one-line help.  Data rather than ``--help`` bytes, because
argparse lays help out differently across Python versions.  The dests (the
keyword each driver receives) are left out: renaming one is free, anything
a user sees or gets by default is pinned.

Print the tables of a tree with ``PYTHONPATH=src python -m tests.test_cli_options``.
"""

import argparse
import json
from pathlib import Path

import pytest

from repro import cli

PINNED = Path(__file__).with_name("cli_options.json")


class _Taken(Exception):
    pass


def repro_parser() -> argparse.ArgumentParser:
    """The parser ``cli.main`` builds, taken at its ``parse_args`` call."""

    def take(self, args=None, namespace=None):
        raise _Taken(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(argparse.ArgumentParser, "parse_args", take)
        with pytest.raises(_Taken) as taken:
            cli.main([])
    return taken.value.args[0]


def _row(action: argparse.Action, fmt: argparse.HelpFormatter) -> dict:
    metavar = None
    if action.nargs != 0:
        default_metavar = (
            fmt._get_default_metavar_for_optional(action)
            if action.option_strings
            else fmt._get_default_metavar_for_positional(action)
        )
        metavar = fmt._format_args(action, default_metavar)
    return {
        "option_strings": list(action.option_strings),
        "metavar": metavar,
        "choices": list(action.choices) if action.choices is not None else None,
        "default": action.default,
        "type": action.type.__name__ if action.type is not None else None,
        "help": action.help,
        "nargs": action.nargs,
    }


def option_tables(parser: argparse.ArgumentParser, name: str = "") -> dict:
    """``{command: table}`` for ``parser`` and every parser below it."""
    table = {"prog": parser.prog, "description": parser.description, "options": []}
    tables = {name: table}
    fmt = parser._get_formatter()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            table["subcommands"] = {a.dest: a.help for a in action._choices_actions}
            for sub_name, sub in action.choices.items():
                tables.update(option_tables(sub, f"{name} {sub_name}".strip()))
        else:
            table["options"].append(_row(action, fmt))
    return tables


def test_every_option_table_is_pinned():
    got = json.loads(json.dumps(option_tables(repro_parser())))
    want = json.loads(PINNED.read_text())
    assert sorted(got) == sorted(want)
    for command in want:
        assert got[command] == want[command], command


def test_the_choice_constants_mirror_their_tables():
    """The parser names these choices itself, so ``--help`` imports none of
    the modules that define them."""
    from repro.obs.profile import EXPERIMENTS
    from repro.resilience.chaos import SCHEMES as CHAOS_SCHEMES
    from repro.schemes import SCHEMES

    assert cli.SCHEMES == tuple(SCHEMES)
    assert cli.CHAOS_SCHEMES == CHAOS_SCHEMES
    assert cli.EXPERIMENTS == EXPERIMENTS


if __name__ == "__main__":
    print(json.dumps(option_tables(repro_parser()), indent=1, sort_keys=True))
