"""Exact three-valued (0/1/X) pattern-parallel gate evaluation.

The fault simulator needs exact X-propagation at the MLS repair MUX:
with S pinned to test mode and B driven from scan, the output is known
even though the functional A input is an open (X).  A pessimistic
"known only if all inputs known" rule would erase the whole repair.

A signal is a ``(value, known)`` pair of Python ints, one bit per test
pattern; ``mask`` has one bit set per pattern, and ``value`` is 0 where
``known`` is 0.  Gates evaluate through their truth table in dual rail:
an input can be 1 where it is 1 or X and 0 where it is 0 or X; the
output can be 1 (0) where some row producing 1 (0) has every input
able to take that row's bit.  It is X where it can be both.  That is
exact for any single-output cell and derived from the cell's own logic
function.  When every input is known the cell's logic function
evaluates the ints directly (it is written with bitwise operators
only), which gives the same bits in one call.
"""

from __future__ import annotations

import itertools

from repro.tech.cells import CellType

#: cell name -> list of (input bits, output bit) truth rows.
_TABLE_CACHE: dict[str, list[tuple[tuple[int, ...], int]]] = {}


def truth_table(cell: CellType) -> list[tuple[tuple[int, ...], int]]:
    """Truth rows of *cell*, cached by cell name."""
    rows = _TABLE_CACHE.get(cell.name)
    if rows is None:
        rows = [(bits, cell.evaluate(*bits) & 1)
                for bits in itertools.product((0, 1),
                                              repeat=cell.num_inputs)]
        _TABLE_CACHE[cell.name] = rows
    return rows


def eval_gate(cell: CellType, ins_v: list[int], ins_k: list[int],
              mask: int) -> tuple[int, int]:
    """Evaluate one gate over (value, known) input ints.

    Returns the (value, known) output ints, both within *mask*; the
    value in unknown positions is 0.
    """
    known_all = mask
    for k in ins_k:
        known_all &= k
    if known_all == mask and ins_v:
        return cell.logic(*ins_v) & mask, mask

    can1 = [v | (k ^ mask) for v, k in zip(ins_v, ins_k)]
    can0 = [(v & k) ^ mask for v, k in zip(ins_v, ins_k)]
    out1 = out0 = 0
    for bits, out in truth_table(cell):
        term = mask
        for bit, c1, c0 in zip(bits, can1, can0):
            term &= c1 if bit else c0
        if out:
            out1 |= term
        else:
            out0 |= term
    known = (out1 & out0) ^ mask
    return out1 & known, known
