"""Microbenchmark replay harness for the DRAM bank-state model.

Each microbenchmark is a pure function of a *model factory*: it builds a
fresh :class:`~repro.mem.dram.DramModel` per sweep point, drives
``DramModel.request`` with a synthetic pattern published by the DRAM
characterisation literature (the Ramulator 2.0 re-evaluation papers'
microbenchmarks), and records one :class:`Curve`.

The four patterns, and what each isolates:

* :func:`row_hit_ladder` — closed-loop streams with a controlled number
  of column hits per opened row; isolates the row-hit vs row-miss
  latency split (tCL vs tRP+tRCD+tCL).
* :func:`turnaround_sweep` — bus-saturating open-loop stream whose
  read/write direction flips every ``period`` requests; isolates the
  read<->write turnaround gap (and is the pattern that exposed the
  issue-order turnaround accounting bug).
* :func:`blp_curve` — row-missing round-robin burst over a growing set
  of banks, all issued back to back; isolates bank-level parallelism
  (achieved bus utilisation flattens once every bank is in flight).
* :func:`refresh_probe` — fixed-gap row-hit stream spanning many tREFI
  windows, differenced against a refresh-disabled twin; isolates the
  per-request refresh interference (absorbed under saturation,
  ~ tRFC x gap / tREFI once requests arrive sparsely).

Everything is deterministic: no RNG, no wall clock — the same factory
yields byte-identical curves, which is what lets the reference curves be
checked-in JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

from ..dram import DramModel

#: A factory returning a *fresh* model (fresh timings, fresh state) per call.
ModelFactory = Callable[[], DramModel]

#: Default sweep points (clamped to the model geometry where needed).
DEFAULT_HITS_PER_ROW = (1, 2, 4, 8, 16, 32)
DEFAULT_TURNAROUND_PERIODS = (1, 2, 4, 8, 16, 32)
DEFAULT_BLP_BANKS = (1, 2, 4, 8, 16, 32)
DEFAULT_REFRESH_GAPS = (16, 64, 256, 1024)


@dataclass
class Curve:
    """One measured microbenchmark curve (parallel ``xs``/``ys``).

    ``extra`` carries secondary per-point series (row-hit rate, counted
    turnarounds, ...) that ride along into reports but are not part of
    the tolerance-banded comparison.
    """

    name: str
    x_label: str
    y_label: str
    xs: List[float]
    ys: List[float]
    extra: Dict[str, List[float]] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "x_label": self.x_label,
            "y_label": self.y_label,
            "xs": list(self.xs),
            "ys": list(self.ys),
            "extra": {key: list(values) for key, values in self.extra.items()},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Curve":
        return cls(
            name=str(data["name"]),
            x_label=str(data.get("x_label", "x")),
            y_label=str(data.get("y_label", "y")),
            xs=[float(x) for x in data["xs"]],
            ys=[float(y) for y in data["ys"]],
            extra={
                str(key): [float(v) for v in values]
                for key, values in dict(data.get("extra", {})).items()
            },
        )


# ----------------------------------------------------------------------
# Patterns
# ----------------------------------------------------------------------
def row_hit_ladder(
    factory: ModelFactory,
    hits_per_row: Sequence[int] = DEFAULT_HITS_PER_ROW,
    requests: int = 2048,
) -> Curve:
    """Average read latency vs column accesses per opened row.

    For each ladder rung ``k`` a fresh model streams closed-loop reads
    that touch ``k`` sequential columns of a row before activating the
    next row *of the same bank* — so the expected row-hit rate is
    exactly ``(k-1)/k`` and the curve must fall monotonically from the
    pure row-miss latency toward the pure row-hit latency.
    """
    xs: List[float] = []
    ys: List[float] = []
    hit_rates: List[float] = []
    for k in hits_per_row:
        model = factory()
        columns = model.row_size_bytes >> 6
        run = max(1, min(int(k), columns))
        now = 0
        issued = 0
        row = 0
        while issued < requests:
            for column in range(run):
                if issued >= requests:
                    break
                block = model.encode(0, 0, row, column)
                now += 1 + model.request(block, now=now)
                issued += 1
            row += 1
        xs.append(float(run))
        ys.append(model.average_read_latency())
        hit_rates.append(model.stats.row_hit_rate)
    return Curve(
        name="row_hit_ladder",
        x_label="column hits per opened row",
        y_label="average read latency (cycles)",
        xs=xs,
        ys=ys,
        extra={"row_hit_rate": hit_rates},
    )


def turnaround_sweep(
    factory: ModelFactory,
    periods: Sequence[int] = DEFAULT_TURNAROUND_PERIODS,
    requests: int = 1024,
) -> Curve:
    """Average latency vs read/write direction-switch period.

    A bus-saturating open-loop stream (one request per ``burst`` cycles,
    round-robin across all banks on open rows) whose direction flips
    every ``period`` requests.  Short periods insert a turnaround gap
    into nearly every back-to-back burst pair, so average latency must
    fall monotonically as the period grows.  ``extra['turnarounds']``
    records how many switches actually delayed a burst — the
    grant-order accounting this sweep exists to pin down.
    """
    xs: List[float] = []
    ys: List[float] = []
    switch_counts: List[float] = []
    for period in periods:
        period = max(1, int(period))
        model = factory()
        burst = model.timings.burst
        banks = model.num_banks
        columns = model.row_size_bytes >> 6
        # Warm one open row per bank so the sweep measures the bus, not
        # activates; the warmup's stats are discarded.
        now = 0
        for bank in range(banks):
            now += 1 + model.request(model.encode(0, bank, 0, 0), now=now)
        model.reset_stats()
        total = 0
        start_cycle = now
        for index in range(requests):
            bank = index % banks
            column = 1 + (index // banks) % (columns - 1) if columns > 1 else 0
            is_write = (index // period) % 2 == 1
            block = model.encode(0, bank, 0, column)
            issue = start_cycle + index * burst
            total += model.request(block, is_write=is_write, now=issue)
        xs.append(float(period))
        ys.append(total / requests)
        switch_counts.append(float(model.stats.turnarounds))
    return Curve(
        name="turnaround_sweep",
        x_label="requests per bus direction",
        y_label="average latency (cycles)",
        xs=xs,
        ys=ys,
        extra={"turnarounds": switch_counts},
    )


def blp_curve(
    factory: ModelFactory,
    banks_used: Sequence[int] = DEFAULT_BLP_BANKS,
    requests: int = 512,
) -> Curve:
    """Achieved bus utilisation vs number of banks kept in flight.

    Every request is a row activation (two rows of each bank alternate),
    issued back to back round-robin across the first ``b`` banks.  With
    one bank the row cycle serialises everything; adding banks overlaps
    activates until the data bus (one ``burst`` per request) or the bank
    count saturates.  ``b`` is clamped to the geometry, so the curve
    flattens exactly at ``num_banks``.
    """
    xs: List[float] = []
    ys: List[float] = []
    latencies: List[float] = []
    for b in banks_used:
        model = factory()
        burst = model.timings.burst
        used = max(1, min(int(b), model.num_banks))
        makespan_end = 0
        for index in range(requests):
            bank = index % used
            row = (index // used) % 2  # alternate rows: always a miss
            block = model.encode(0, bank, row, 0)
            latency = model.request(block, now=index)
            makespan_end = max(makespan_end, index + latency)
        makespan = max(1, makespan_end)
        xs.append(float(used))
        ys.append(requests * burst / makespan)
        latencies.append(model.average_read_latency())
    return Curve(
        name="blp_curve",
        x_label="banks in flight",
        y_label="achieved bus utilisation",
        xs=xs,
        ys=ys,
        extra={"avg_latency": latencies},
    )


def refresh_probe(
    factory: ModelFactory,
    gaps: Sequence[int] = DEFAULT_REFRESH_GAPS,
    windows: int = 8,
) -> Curve:
    """Per-request refresh interference vs request inter-arrival gap.

    Streams same-bank row hits at a fixed ``gap`` across ``windows``
    tREFI windows and differences the total latency against a
    refresh-disabled twin of the same model.  The curve captures the
    model's three refresh regimes: at saturating gaps the tRFC stall is
    fully absorbed by the bank backlog (overhead ~ 0), at moderate gaps
    each stall knocks on into the requests draining behind it
    (overhead peaks), and at wide gaps each stall lands on a single
    request (overhead ~ ``refresh_cycles * gap / refresh_interval``).
    """
    xs: List[float] = []
    ys: List[float] = []
    stall_counts: List[float] = []
    for gap in gaps:
        gap = max(1, int(gap))
        model = factory()
        interval = model.timings.refresh_interval
        if interval <= 0:
            raise ValueError(
                "refresh_probe needs refresh_interval > 0 in the profile"
            )
        baseline = DramModel(
            timings=replace(model.timings, refresh_interval=0),
            num_banks=model.num_banks,
            num_channels=model.num_channels,
            row_size_bytes=model.row_size_bytes,
        )
        requests = max(1, (interval * windows) // gap)
        total = 0
        base_total = 0
        for index in range(requests):
            block = index % (model.row_size_bytes >> 6)
            now = index * gap
            total += model.request(block, now=now)
            base_total += baseline.request(block, now=now)
        xs.append(float(gap))
        ys.append((total - base_total) / requests)
        stall_counts.append(float(model.stats.refresh_stalls))
    return Curve(
        name="refresh_probe",
        x_label="request inter-arrival gap (cycles)",
        y_label="refresh overhead per request (cycles)",
        xs=xs,
        ys=ys,
        extra={"refresh_stalls": stall_counts},
    )


# ----------------------------------------------------------------------
# The full suite
# ----------------------------------------------------------------------
def run_microbenchmarks(
    factory: ModelFactory,
    requests: int = 2048,
    hits_per_row: Sequence[int] = DEFAULT_HITS_PER_ROW,
    periods: Sequence[int] = DEFAULT_TURNAROUND_PERIODS,
    banks_used: Sequence[int] = DEFAULT_BLP_BANKS,
    gaps: Sequence[int] = DEFAULT_REFRESH_GAPS,
    include: Optional[Sequence[str]] = None,
) -> List[Curve]:
    """Run the standard microbenchmark suite; returns one Curve each.

    ``include`` filters by curve name (``None`` runs all four);
    ``requests`` scales every pattern's length together (the fitter uses
    a reduced budget per evaluation).
    """
    runners = {
        "row_hit_ladder": lambda: row_hit_ladder(
            factory, hits_per_row=hits_per_row, requests=requests
        ),
        "turnaround_sweep": lambda: turnaround_sweep(
            factory, periods=periods, requests=max(64, requests // 2)
        ),
        "blp_curve": lambda: blp_curve(
            factory, banks_used=banks_used, requests=max(64, requests // 4)
        ),
        "refresh_probe": lambda: refresh_probe(factory, gaps=gaps),
    }
    names = list(runners) if include is None else [
        name for name in runners if name in set(include)
    ]
    return [runners[name]() for name in names]
