"""Per-run metric records and their dict/CSV projections."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

CSV_FIELDS = (
    "t",
    "d_t",
    "percent_remaining",
    "acc_retrained",
    "loss_retrained",
    "acc_pruned",
    "loss_pruned",
    "pqi_retrained",
    "pqi_pruned",
    "gini_retrained",
    "delta_acc",
    "delta_pqi",
)


def format_value(x) -> str:
    """Fixed CSV formatting: ints verbatim, floats at 9 significant digits."""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".9g")


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

    def csv_row(self) -> str:
        return ",".join(format_value(getattr(self, name)) for name in CSV_FIELDS)

    def to_dict(self) -> dict:
        # Shallow, unlike `asdict`, which would deep-copy every group dict.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "IterationMetrics":
        return cls(**{f.name: d[f.name] for f in fields(cls)})


@dataclass
class RunRecord:
    """Config echo plus one IterationMetrics per pruning iteration."""

    config: dict
    iterations: list[IterationMetrics] = field(default_factory=list)
    events: list[str] = field(default_factory=list)
    completed: bool = True

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "completed": self.completed,
            "events": self.events,
            "iterations": [it.to_dict() for it in self.iterations],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunRecord":
        return cls(
            config=d["config"],
            iterations=[IterationMetrics.from_dict(it) for it in d["iterations"]],
            events=list(d["events"]),
            completed=bool(d["completed"]),
        )

    def iterations_csv(self) -> str:
        lines = [",".join(CSV_FIELDS)]
        lines.extend(it.csv_row() for it in self.iterations)
        return "\n".join(lines) + "\n"
