"""Snapshot of the ``python -m repro`` command-line surface.

The CLI promises the same flags release to release; this test pins, for
the root parser and every subcommand, each option's ``default``,
``choices``, ``nargs``, ``const`` and ``type`` — so a parser refactor is
proven flag-for-flag identical, and a deliberate change to a flag
requires editing the snapshot in the same commit.  (Recorded from the
hand-written v1.9.0 parser, before it became table-driven.)
"""

import argparse

from repro.__main__ import build_parser

#: command -> option strings (or positional dest) ->
#: ``(default, choices, nargs, const, type.__name__)``; ``""`` is the root.
EXPECTED_OPTIONS = {
    '': {
        '--version': ('==SUPPRESS==', None, 0, None, None),
    },
    'compare': {
        '--events': (None, None, None, None, None),
        '--fault-seed': (0, None, None, None, 'int'),
        '--faults': (None, None, '?', 0.3, 'float'),
        '--jobs': (200, None, None, None, 'int'),
        '--predictor': ('corp', None, None, None, None),
        '--predictor-cache-size': (16, None, None, None, 'int'),
        '--quick': (False, None, 0, True, None),
        '--scenario': (None, ('pipeline', 'diurnal', 'storm'), None, None, None),
        '--seed': (7, None, None, None, 'int'),
        '--store': (None, None, '?', '', None),
        '--testbed': ('cluster', ('cluster', 'ec2'), None, None, None),
        '--warm-start': (False, None, 0, True, None),
        '--workers': (0, None, None, None, 'int'),
    },
    'serve': {
        '--events': (None, None, None, None, None),
        '--fault-seed': (0, None, None, None, 'int'),
        '--faults': (None, None, '?', 0.3, 'float'),
        '--jobs': (50, None, None, None, 'int'),
        '--method': ('CORP', ('CORP', 'RCCR', 'CloudScale', 'DRA'), None, None, None),
        '--predictor': ('corp', None, None, None, None),
        '--predictor-cache-size': (16, None, None, None, 'int'),
        '--seed': (7, None, None, None, 'int'),
        '--show-placements': (0, None, None, None, 'int'),
        '--store': (None, None, '?', '', None),
        '--testbed': ('cluster', ('cluster', 'ec2'), None, None, None),
        '--warm-start': (False, None, 0, True, None),
    },
    'profile': {
        '--events': (None, None, None, None, None),
        '--jobs': (50, None, None, None, 'int'),
        '--out': ('PROFILE_runtime.json', None, None, None, None),
        '--predictor': ('corp', None, None, None, None),
        '--predictor-cache-size': (16, None, None, None, 'int'),
        '--seed': (7, None, None, None, 'int'),
        '--store': (None, None, '?', '', None),
        '--testbed': ('cluster', ('cluster', 'ec2'), None, None, None),
        '--warm-start': (False, None, 0, True, None),
    },
    'figure': {
        '--seed': (7, None, None, None, 'int'),
        '--svg': (None, None, None, None, None),
        '--testbed': ('cluster', ('cluster', 'ec2'), None, None, None),
        'name': (None, ('fig06', 'fig07', 'fig08', 'fig09', 'fig10', 'fig11', 'fig12', 'fig13', 'fig14'), None, None, None),
    },
    'ablations': {
        '--jobs': (300, None, None, None, 'int'),
        '--predictors': (False, None, 0, True, None),
        '--seed': (7, None, None, None, 'int'),
    },
    'mixed': {
        '--jobs': (200, None, None, None, 'int'),
        '--seed': (7, None, None, None, 'int'),
    },
    'storms': {
        '--intensities': (None, None, '+', None, 'float'),
        '--jobs': (200, None, None, None, 'int'),
        '--methods': (None, None, '+', None, None),
        '--quick': (False, None, 0, True, None),
        '--seed': (7, None, None, None, 'int'),
        '--slots': (400, None, None, None, 'int'),
        '--storm-seed': (0, None, None, None, 'int'),
        '--testbed': ('cluster', ('cluster', 'ec2'), None, None, None),
        '--workers': (0, None, None, None, 'int'),
    },
    'check': {
        '--differential': (False, None, 0, True, None),
        '--events': (None, None, None, None, None),
        '--fault-seed': (0, None, None, None, 'int'),
        '--faults': (None, None, '?', 0.3, 'float'),
        '--jobs': (50, None, None, None, 'int'),
        '--methods': (None, None, '+', None, None),
        '--quick': (False, None, 0, True, None),
        '--replay': (None, None, None, None, None),
        '--rules': (None, ('capacity', 'jobs', 'gate', 'packing', 'volume', 'pipeline', 'differential'), '+', None, None),
        '--seed': (7, None, None, None, 'int'),
        '--testbed': ('cluster', ('cluster', 'ec2'), None, None, None),
        '--tolerance': (None, None, None, None, 'float'),
    },
    'golden': {
        '--dir': ('tests/golden', None, None, None, None),
        '--family': ('all', ('all', 'base', 'pipeline', 'diurnal', 'storm'), None, None, None),
        '--fault-seed': (0, None, None, None, 'int'),
        '--faults': (0.5, None, None, None, 'float'),
        '--jobs': (30, None, None, None, 'int'),
        '--seed': (7, None, None, None, 'int'),
        '--testbed': ('cluster', ('cluster', 'ec2'), None, None, None),
        '--update': (False, None, 0, True, None),
    },
    'cache': {
        '--dir': (None, None, None, None, None),
        '--jobs': (200, None, None, None, 'int'),
        '--quick': (False, None, 0, True, None),
        '--seed': (7, None, None, None, 'int'),
        '--testbed': ('cluster', ('cluster', 'ec2'), None, None, None),
        'action': (None, ('stats', 'clear', 'warm'), None, None, None),
    },
    'predictors': {
    },
}


def _describe(parser: argparse.ArgumentParser) -> dict:
    out = {}
    for action in parser._actions:
        if isinstance(
            action, (argparse._HelpAction, argparse._SubParsersAction)
        ):
            continue
        key = "/".join(action.option_strings) or action.dest
        out[key] = (
            action.default,
            tuple(action.choices) if action.choices is not None else None,
            action.nargs,
            action.const,
            action.type.__name__ if action.type is not None else None,
        )
    return out


def _surface() -> dict:
    root = build_parser()
    (subparsers,) = (
        a for a in root._actions if isinstance(a, argparse._SubParsersAction)
    )
    surface = {"": _describe(root)}
    for name, parser in subparsers.choices.items():
        surface[name] = _describe(parser)
    return surface


def test_subcommands_are_pinned():
    assert list(_surface()) == list(EXPECTED_OPTIONS)


def test_every_option_is_pinned():
    surface = _surface()
    for command, expected in EXPECTED_OPTIONS.items():
        assert surface[command] == expected, command or "repro"


def test_every_subcommand_has_a_handler():
    root = build_parser()
    for command in EXPECTED_OPTIONS:
        if command:
            argv = [command] + (
                ["fig06"] if command == "figure"
                else ["stats"] if command == "cache" else []
            )
            assert callable(root.parse_args(argv).func), command
