"""The matrix's one axes table: every way a run may differ from the
reference, one line per axis.

Each axis lists its values, the production default, the naive serial
reference's value and what it sets — a keyword of the analysis call,
an environment variable, or a fixture the harness builds under a
temporary directory.  Adding a value is a one-line change here; how a
value is applied lives in :mod:`tests.differential.harness`.
"""

from __future__ import annotations

from typing import NamedTuple


class Axis(NamedTuple):
    name: str
    values: tuple
    default: object
    reference: object
    sets: str


#: name, values, production default, reference value, what it sets.
AXES = (
    Axis("backend", ("kernel", "naive"), "kernel", "naive", "backend="),
    Axis("search", ("lattice", "flat"), "lattice", "flat", "search="),
    Axis("jobs", (1, 2), 1, 1, "jobs="),
    Axis("start_method", ("fork", "spawn"), "fork", "fork", "env REPRO_START_METHOD"),
    Axis("cache", ("none", "cold", "warm"), "none", "none", "fixture: a ResultCache, cache="),
    Axis("fault", ("none", "crash", "hang", "kill-resume"), "none", "none", "fault_plan=, policy= or env REPRO_INJECT_FAULT"),
)

BY_NAME = {axis.name: axis for axis in AXES}

#: The production default: what a plain API or CLI call runs.
DEFAULT = {axis.name: axis.default for axis in AXES}

#: The naive serial reference every cell is compared against.
REFERENCE = {axis.name: axis.reference for axis in AXES}


def one_axis_changes():
    """``(axis, value)`` for every non-default value of every axis."""
    return [(axis.name, value) for axis in AXES for value in axis.values
            if value != axis.default]
