"""Fuzz the CLI's argument space: argv is built from the parser's own
subcommands and options, and every run must end with exit status 0, 1 or
2, stderr made of JSON lines only, and no traceback."""

import argparse
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from younglab.cli import build_parser, main  # noqa: E402
from younglab.partitions import enumerate_partitions, format_partition  # noqa: E402

JUNK = ["", ",", "a", "0", "1,2"]


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    (action,) = (
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return dict(action.choices)


SUBCOMMANDS = _subcommands()

shapes = st.one_of(
    st.integers(0, 7).flatmap(lambda n: st.sampled_from(enumerate_partitions(n))),
    st.lists(st.integers(0, 3), min_size=1, max_size=3),
).map(format_partition)


def values(action: argparse.Action):
    """Strings that fit one option: its choices, small integers or shapes."""
    if action.choices is not None:
        return st.sampled_from(sorted(action.choices))
    if action.type is int:
        return st.integers(-3, 9).map(str)
    return shapes


@st.composite
def argvs(draw):
    """One subcommand with every option; at most one of them is left out
    or given junk, so the junk reaches its own parser."""
    name = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    actions = [
        action for action in SUBCOMMANDS[name]._actions
        if not isinstance(action, argparse._HelpAction) and action.dest != "out"
    ]
    faulty = draw(st.sampled_from([None, *actions]))
    argv = [name]
    for action in actions:
        if action is faulty:
            value = draw(st.one_of(st.none(), st.sampled_from(JUNK)))
            if value is None:
                continue
        else:
            value = draw(values(action))
        argv += [value] if not action.option_strings else [action.option_strings[0], value]
    return argv


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argvs())
def test_every_argv_ends_in_an_exit_status_and_json_on_stderr(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    for line in err.getvalue().splitlines():
        json.loads(line)
