"""The flow-request declaration and the CLI flags derived from it.

:class:`repro.harness.request.FlowRequest` is the one place the flow
knobs are declared; ``repro``'s verbs get their flags from it.  These
tests pin, verb by verb, exactly which request flags each verb has,
with their defaults and choices, so deriving the flags can never add,
drop or retune one.
"""

from __future__ import annotations

import argparse
import dataclasses

import pytest

from repro.cli import build_parser
from repro.harness.request import (FlowRequest, decode_flow_request,
                                   from_args)

BENCHMARKS = ["a7_hetero", "a7_homo", "maeri128_hetero",
              "maeri16_hetero", "maeri256_homo"]

#: dest -> (option strings, default, choices, takes a value)
_BENCHMARK = {"benchmark": (["--benchmark"], "maeri16_hetero",
                            BENCHMARKS, True)}
_SELECTOR = {"selector": (["--selector"], "gnn",
                          ["none", "sota", "gnn", "oracle", "random"],
                          True)}
_SEED = {"seed": (["--seed"], 20250706, None, True)}
_WORKERS = {"workers": (["--workers"], 1, None, True)}
_RUN = {**_BENCHMARK, **_SEED, **_SELECTOR, **_WORKERS}

#: Each verb's request flags, as they were before the flags were
#: derived from the declaration; verbs not listed have none.
PINNED = {
    "flow": _RUN,
    "timing": _RUN,
    "congestion": _RUN,
    "export": {**_BENCHMARK, **_SEED},
    "table": {**_SEED, **_WORKERS},
    "service submit": {
        **_RUN,
        "with_scan": (["--with-scan"], False, None, False),
        "dft_strategy": (["--dft-strategy"], None,
                         ["net-based", "wire-based"], True),
        "freq_mhz": (["--freq-mhz"], None, None, True),
        "save_report": (["--save-report"], False, None, False),
    },
}

_FIELDS = {f.name for f in dataclasses.fields(FlowRequest)}


def _verbs(parser: argparse.ArgumentParser, prefix: tuple = ()):
    """(verb path, parser) for every leaf command."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _verbs(sub, prefix + (name,))
            return
    yield " ".join(prefix), parser


def _request_flags(parser: argparse.ArgumentParser) -> dict:
    return {a.dest: (a.option_strings, a.default,
                     None if a.choices is None else list(a.choices),
                     a.nargs != 0)
            for a in parser._actions if a.dest in _FIELDS}


VERBS = dict(_verbs(build_parser()))


def test_every_verb_is_enumerated():
    assert set(PINNED) < set(VERBS)
    assert "service start" in VERBS and "trace gate" in VERBS


@pytest.mark.parametrize("verb", sorted(VERBS))
def test_verb_keeps_exactly_its_request_flags(verb):
    assert _request_flags(VERBS[verb]) == PINNED.get(verb, {})


@pytest.mark.parametrize("verb", sorted(PINNED))
def test_flag_defaults_decode_to_the_daemon_defaults(verb):
    """No flags at all describe the same request a daemon builds from
    an empty ``flow`` request."""
    argv = verb.split() + (["--out", "unused.v"] if verb == "export"
                           else ["--table", "3"] if verb == "table"
                           else [])
    args = build_parser().parse_args(argv)
    assert from_args(args) == decode_flow_request({})


def test_submit_flags_reach_the_request():
    args = build_parser().parse_args([
        "service", "submit", "--benchmark", "a7_hetero", "--selector",
        "none", "--seed", "7", "--with-scan", "--dft-strategy",
        "wire-based", "--freq-mhz", "1800", "--workers", "2",
        "--save-report"])
    assert dataclasses.asdict(from_args(args)) == {
        "benchmark": "a7_hetero", "selector": "none", "seed": 7,
        "with_scan": True, "dft_strategy": "wire-based",
        "freq_mhz": 1800.0, "workers": 2, "save_report": True}

