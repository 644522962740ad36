"""Per-run metric records: their fields are the fields of run.json and the
columns of iterations.csv, in the order the files hold them."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields


def format_value(x) -> str:
    """Fixed CSV formatting: strings and ints verbatim, floats at 9
    significant digits."""
    if isinstance(x, str):
        return x
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".9g")


def csv_text(header, rows) -> str:
    """The header line, then one line per row in `format_value` form; every
    line ends in a newline."""
    return "".join(",".join(map(format_value, row)) + "\n" for row in [header, *rows])


@dataclass
class IterationMetrics:
    t: int
    d_t: int
    percent_remaining: float
    acc_retrained: float
    loss_retrained: float
    acc_pruned: float
    loss_pruned: float
    pqi_retrained: float
    pqi_pruned: float
    gini_retrained: float
    delta_acc: float
    delta_pqi: float
    c_total: int = 0
    groups: list = field(default_factory=list)

    @classmethod
    def from_dict(cls, d: dict) -> "IterationMetrics":
        if type(d) is not dict:
            raise TypeError("each iteration must be an object")
        it = cls(**{f.name: d[f.name] for f in fields(cls)})
        if [type(x) for x in (it.t, it.d_t, it.c_total, it.groups)] != [int, int, int, list]:
            raise TypeError("an iteration's t, d_t and c_total must be integers and groups a list")
        for f in fields(cls):  # the writer writes only finite floats and NaN
            x = getattr(it, f.name)
            if f.type == "float" and (type(x) is not float or math.isinf(x)):
                raise TypeError(f"an iteration's {f.name} must be a finite number or NaN")
        return it


# The iterations.csv columns: every field but the group log.
CSV_FIELDS = tuple(f.name for f in fields(IterationMetrics) if f.name not in ("c_total", "groups"))


@dataclass
class RunRecord:
    """Config echo, how the run ended, and one IterationMetrics per iteration."""

    config: dict
    completed: bool = True
    events: list[str] = field(default_factory=list)
    iterations: list[IterationMetrics] = field(default_factory=list)

    @classmethod
    def from_dict(cls, d: dict) -> "RunRecord":
        if type(d) is not dict:
            raise TypeError("the record must be an object")
        config, completed, events, iterations = (
            d[k] for k in ("config", "completed", "events", "iterations"))
        if type(config) is not dict:
            raise TypeError("config must be an object")
        if type(completed) is not bool:
            raise TypeError("completed must be a boolean")
        if type(events) is not list or any(type(e) is not str for e in events):
            raise TypeError("events must be a list of strings")
        if type(iterations) is not list:
            raise TypeError("iterations must be a list")
        if completed and not iterations:
            raise TypeError("iterations must not be empty in a completed record")
        return cls(config, completed, events,
                   [IterationMetrics.from_dict(it) for it in iterations])

    def iterations_csv(self) -> str:
        rows = ([getattr(it, name) for name in CSV_FIELDS] for it in self.iterations)
        return csv_text(CSV_FIELDS, rows)
