"""Per-run metric records: their fields are the fields of run.json and the
columns of iterations.csv, in the order the files hold them."""

from __future__ import annotations

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
        it = cls(**{f.name: d[f.name] for f in fields(cls)})
        if [type(x) for x in (it.t, it.d_t, it.c_total, it.groups)] != [int, int, int, list]:
            raise TypeError("an iteration's t, d_t and c_total must be integers and groups a list")
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
        shape = [type(d[k]) for k in ("config", "completed", "events", "iterations")]
        if shape != [dict, bool, list, list] or any(type(e) is not str for e in d["events"]):
            raise TypeError("config must be an object, completed a boolean, "
                            "events a list of strings and iterations a list")
        return cls(d["config"], d["completed"], d["events"],
                   [IterationMetrics.from_dict(it) for it in d["iterations"]])

    def iterations_csv(self) -> str:
        rows = ([getattr(it, name) for name in CSV_FIELDS] for it in self.iterations)
        return csv_text(CSV_FIELDS, rows)
