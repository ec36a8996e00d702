"""The invocation matrix of tools/identity.py reaches every subcommand of
`coinv` and every choice of its --format, --form and --variant options.
Only the matrix is read here; running it takes minutes (see the tool)."""

import argparse
import importlib.util
from pathlib import Path

from coinv import cli

TOOL = Path(__file__).resolve().parent.parent / "tools" / "identity.py"
CHOICE_OPTIONS = ("format", "form", "variant")


def load_matrix():
    spec = importlib.util.spec_from_file_location("identity", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MATRIX


def offered(parser):
    """Every (subcommand, option, choice) that the parser accepts, and the
    subcommands."""
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    triples = {
        (name, action.dest, choice)
        for name, sub in commands.items()
        for action in sub._actions
        if action.dest in CHOICE_OPTIONS
        for choice in action.choices
    }
    return triples, set(commands)


def test_identity_matrix_covers_every_command_and_choice():
    parser = cli.build_parser()
    reached, commands = set(), set()
    for argv in load_matrix():
        args = parser.parse_args(argv)  # an invocation the parser refuses exits here
        commands.add(args.command)
        reached.update((args.command, dest, getattr(args, dest)) for dest in CHOICE_OPTIONS if hasattr(args, dest))
    triples, all_commands = offered(parser)
    assert commands == all_commands
    assert triples - reached == set()
