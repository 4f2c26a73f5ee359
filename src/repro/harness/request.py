"""The flow request: every outside knob of one benchmark flow, declared once.

Each field of :class:`FlowRequest` carries its default, its validator,
its help text and the CLI verbs that take it as a flag.  From that
table derive the argparse flags (:func:`add_flags`, :func:`from_args`),
the flow daemon's JSON decoding (:func:`decode_flow_request`) and the
one ``(spec, FlowConfig, SeedBundle)`` builder
(:meth:`FlowRequest.flow_inputs`).  A validator takes a value of the
field's exact JSON type (``true`` is not an integer, ``"1500"`` is not
a number) and raises :class:`ValueError` naming what it expected; a
flag's ``type=`` converts the text first, so the CLI and the daemon
apply the same check.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import reprlib
from dataclasses import dataclass, field

from repro.core.flow import DFT_STRATEGIES, SELECTORS, FlowConfig
from repro.errors import ServiceError
from repro.harness.designs import (BENCHMARKS, DEFAULT_EXPERIMENT_SEED,
                                   get_benchmark)
from repro.parallel import ParallelConfig


class _Check:
    """A field validator: call it on a JSON value; :meth:`from_text` is
    the same check as an argparse ``type=``."""

    convert = str       # value (or command-line text) -> field value

    def __call__(self, value):
        try:
            ok = self.ok(value)
        except OverflowError:           # an int past the float range
            ok = False
        if not ok:
            raise ValueError(f"expected {self.expected}")
        return self.convert(value)

    def from_text(self, text: str):
        try:
            return self(self.convert(text))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {self.expected}, got {text!r}") from None


class OneOf(_Check):
    def __init__(self, choices):
        self.choices = tuple(choices)
        self.expected = f"one of {sorted(self.choices)}"

    def ok(self, value) -> bool:
        return isinstance(value, str) and value in self.choices


class Number(_Check):
    """An int (for *kind* ``float``: a finite int or float, returned as
    float) that is >= *low*, or > *low* when *strict*."""

    def __init__(self, kind: type, low=None, strict: bool = False):
        self.convert, self.low, self.strict = kind, low, strict
        self.expected = "an integer" if kind is int else "a finite number"
        if low is not None:
            self.expected += f" {'>' if strict else '>='} {low}"

    def ok(self, value) -> bool:
        return (not isinstance(value, bool)
                and isinstance(value, (int, self.convert))
                and (self.convert is int or math.isfinite(value))
                and (self.low is None or value > self.low
                     or (value == self.low and not self.strict)))


class Flag(_Check):
    """A JSON boolean; on the command line a ``store_true`` flag."""

    convert, expected = bool, "true or false"

    def ok(self, value) -> bool:
        return isinstance(value, bool)


_RUN = ("flow", "timing", "congestion")
_SUBMIT = ("service submit",)


def _knob(default, check: _Check, verbs: tuple, help: str,
          compare: bool = True):
    return field(default=default, compare=compare, metadata={
        "check": check, "verbs": verbs, "help": help})


@dataclass(frozen=True)
class FlowRequest:
    """One flow run as asked for from outside the library.

    Equal requests share one daemon dedup slot; ``save_report`` only
    shapes the daemon's response, so it takes no part in equality.
    ``freq_mhz=None`` means the benchmark's target clock.
    """

    benchmark: str = _knob(
        "maeri16_hetero", OneOf(sorted(BENCHMARKS)),
        _RUN + ("export",) + _SUBMIT, "benchmark key (see 'repro list')")
    selector: str = _knob(FlowConfig.selector, OneOf(SELECTORS),
                          _RUN + _SUBMIT, "MLS net selector")
    seed: int = _knob(DEFAULT_EXPERIMENT_SEED, Number(int),
                      _RUN + ("export", "table") + _SUBMIT,
                      "experiment seed")
    with_scan: bool = _knob(FlowConfig.with_scan, Flag(), _SUBMIT,
                            "insert scan and fault-simulate the dies")
    dft_strategy: str | None = _knob(
        FlowConfig.dft_strategy, OneOf(DFT_STRATEGIES), _SUBMIT,
        "MLS DFT repair strategy (needs --with-scan)")
    freq_mhz: float | None = _knob(None, Number(float, 0, strict=True),
                                   _SUBMIT,
                                   "override the benchmark target clock")
    workers: int = _knob(ParallelConfig.workers, Number(int, 1),
                         _RUN + ("table",) + _SUBMIT,
                         "worker processes for the oracle selector "
                         "(1 = serial; results are identical)")
    save_report: bool = _knob(False, Flag(), _SUBMIT,
                              "also report the on-disk FlowReport "
                              "artifact paths", compare=False)

    def flow_inputs(self, spec=None):
        """``(spec, FlowConfig, SeedBundle)``; *spec* stands in for the
        named benchmark (e.g. an imported netlist in its context)."""
        spec = spec or get_benchmark(self.benchmark)
        config = FlowConfig(
            selector=self.selector, with_scan=self.with_scan,
            dft_strategy=self.dft_strategy,
            target_freq_mhz=(spec.target_freq_mhz if self.freq_mhz is None
                             else self.freq_mhz),
            num_paths=spec.num_paths, num_labeled=spec.num_labeled,
            activity=spec.activity,
            parallel=ParallelConfig(workers=self.workers))
        return spec, config, spec.seeds(self.seed)


_FIELDS = {f.name: f for f in dataclasses.fields(FlowRequest)}


def decode_flow_request(values) -> FlowRequest:
    """Validate a request's fields and fill every default.

    An absent or null field takes its default, and ``freq_mhz`` the
    benchmark's target clock, so equal runs decode to equal requests.
    A non-object, an unknown field or a bad value raises a
    :class:`ServiceError` naming the field.
    """
    if not isinstance(values, dict):
        raise ServiceError(f"request must be a JSON object, got "
                           f"{type(values).__name__}")
    unknown = sorted(str(name) for name in values if name not in _FIELDS)
    if unknown:
        raise ServiceError(
            f"unknown flow request field(s): {', '.join(unknown)}")
    checked = {}
    for name, value in values.items():
        try:
            if value is not None:
                checked[name] = _FIELDS[name].metadata["check"](value)
        except ValueError as exc:
            raise ServiceError(f"flow request field {name!r}: {exc}, "
                               f"got {reprlib.repr(value)}") from None
    request = FlowRequest(**checked)
    if request.dft_strategy is not None and not request.with_scan:
        raise ServiceError("flow request field 'dft_strategy': "
                           "needs with_scan=true")
    if request.freq_mhz is None:
        request = dataclasses.replace(request, freq_mhz=float(
            get_benchmark(request.benchmark).target_freq_mhz))
    return request


def add_flags(parser: argparse.ArgumentParser, verb: str) -> None:
    """Add the flag of every request field *verb* takes."""
    for f in _FIELDS.values():
        if verb not in f.metadata["verbs"]:
            continue
        check, flag = f.metadata["check"], "--" + f.name.replace("_", "-")
        if isinstance(check, Flag):
            parser.add_argument(flag, action="store_true",
                                help=f.metadata["help"])
        else:
            parser.add_argument(flag, type=check.from_text,
                                default=f.default,
                                choices=getattr(check, "choices", None),
                                help=f.metadata["help"])


def from_args(args: argparse.Namespace) -> FlowRequest:
    """The decoded request the parsed flags of one verb describe."""
    return decode_flow_request({name: value for name, value
                                in vars(args).items() if name in _FIELDS})
