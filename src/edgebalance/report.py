"""The output rules of every command, and the excision run report.

Every command prints JSON, CSV or text, and this module holds the rules
they share.  JSON is ``json.dumps`` of plain values.  A CSV or text cell
holds a float as its ``repr``, a tuple as its items' reprs joined by spaces,
None as nothing, and anything else as ``str``.  :func:`csv_text` writes
records that share one set of keys: a header line, then one line per
record.  Floats go through ``repr`` in every format, which round-trips
binary64 exactly; re-parsing a report's JSON reproduces an equal report.
"""

import csv
import hashlib
import io
import json
from dataclasses import asdict, dataclass


def _cell(value) -> str:
    """One CSV or text cell."""
    if value is None:
        return ""
    if isinstance(value, tuple):
        return " ".join(map(repr, value))
    return repr(value) if isinstance(value, float) else str(value)


def csv_text(rows: list[dict]) -> str:
    """CSV of records with the same keys: the keys as header, then one line per record."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(rows[0])
    writer.writerows([_cell(value) for value in row.values()] for row in rows)
    return buf.getvalue()


def shape_digest(shape_dict: dict) -> str:
    """Stable hex digest of a shape's canonical JSON form."""
    canonical = json.dumps(shape_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


_POINT_FIELDS = ("balance_point", "composite_centroid", "mc_centroid", "mc_std_error")


@dataclass(frozen=True)
class RunReport:
    """Everything one excision run consumed and produced.

    ``distance``/``relative_distance`` come from the exact verification and
    are None when only Monte Carlo verification ran; the ``mc_*`` fields are
    None unless sampling ran.  ``passed`` aggregates whichever checks ran;
    a Monte Carlo run that accepted too few points to judge never passes.
    """

    command: str
    shape_digest: str
    dimension: int
    beta: float
    scale_ratio: float
    tolerance: float
    balance_point: tuple[float, ...]
    polynomial_residual: float
    passed: bool
    elapsed_seconds: float
    composite_centroid: tuple[float, ...] | None = None
    distance: float | None = None
    relative_distance: float | None = None
    seed: int | None = None
    samples: int | None = None
    mc_centroid: tuple[float, ...] | None = None
    mc_std_error: tuple[float, ...] | None = None
    mc_accepted: int | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        data = json.loads(text)
        for key in _POINT_FIELDS:
            if data.get(key) is not None:
                data[key] = tuple(data[key])
        return cls(**data)

    def to_csv(self) -> str:
        """Single-row CSV; vector fields are space-joined reprs."""
        return csv_text([asdict(self)])

    def to_text(self) -> str:
        """One ``name value`` line per field that is not None."""
        return "\n".join(
            f"{name} {_cell(value)}" for name, value in asdict(self).items() if value is not None
        )
