"""DDR4 DRAM bank-state timing model.

Models the latency-relevant behaviour of a DDR4_2400_16x4 channel (paper
Table 3) as a bank-state machine rather than a per-request formula:

* **Per-bank row buffers and readiness.**  Every (channel, bank) pair keeps
  its open row and the cycle at which it can accept the next command, so
  requests to *independent* banks overlap while requests to a busy bank
  queue behind it.
* **Distinct read and write timing.**  Reads pay CAS latency, writes pay
  the (shorter) write CAS latency plus a write-recovery window (tWR)
  before the bank can activate again; switching direction on a channel
  costs a bus turnaround.
* **Channel data-bus serialisation.**  Each request's data burst occupies
  its channel's bus for ``burst`` cycles; bursts cannot overlap, which is
  what makes metadata traffic (MT nodes, counter fetches) expensive.
* **Utilisation-derived queueing.**  The queue penalty is proportional to
  the measured bus utilisation of the channel's previous scheduling
  window — an idle channel charges nothing, a saturated one charges the
  full ``queue_penalty``.
* **Periodic refresh.**  Every ``refresh_interval`` cycles a channel
  performs a refresh taking ``refresh_cycles`` (tREFI/tRFC); a request
  arriving past a due boundary stalls for it.  Set
  ``refresh_interval=0`` to disable.

Requests carry a ``now`` cycle — the issue time on the shared clock the
designs maintain — and the returned latency is ``finish - now``, i.e. it
includes any queueing behind earlier requests still occupying the bank or
bus.  Callers that never advance ``now`` (unit tests, ad-hoc probes) get a
fully serialised channel, which is the conservative worst case.

Latencies are expressed in CPU cycles at 3 GHz to match the rest of the
cycle accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .access import BLOCK_SHIFT

#: Scheduling-window length (cycles) over which bus utilisation is
#: measured for the queue penalty; power of two so the penalty scaling
#: stays integer (see :meth:`DramModel.request`).
UTILISATION_WINDOW = 1024


def _is_power_of_two(value: int) -> bool:
    return value >= 1 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class DramTimings:
    """Timing parameters in CPU cycles (3 GHz core, DDR4-2400).

    Read defaults approximate tCL/tRCD/tRP of 13.75ns each at 3 GHz (~41
    cycles) plus data burst transfer.  Writes use the write CAS latency
    (tCWL ~ 10ns) and pay tWR (~15ns) of write recovery inside the bank
    before the next activate.  Refresh follows tREFI = 7.8us / tRFC =
    350ns.  Frozen: a :class:`DramModel` derives state from its timings
    when it is built (use :func:`dataclasses.replace` for a variant).
    """

    cas: int = 41
    rcd: int = 41
    rp: int = 41
    burst: int = 8
    #: Write CAS latency (tCWL); writes stream data sooner than reads.
    cwl: int = 30
    #: Write recovery (tWR): bank-busy cycles after a write burst.
    wr: int = 45
    #: Bus turnaround cost when a channel switches read<->write direction.
    turnaround: int = 8
    #: *Maximum* queueing delay, charged in proportion to the measured bus
    #: utilisation of the previous scheduling window (0 when idle).
    queue_penalty: int = 6
    #: Cycles between refreshes per channel (tREFI at 3 GHz); 0 disables.
    refresh_interval: int = 23_400
    #: Cycles one refresh blocks the channel (tRFC at 3 GHz).
    refresh_cycles: int = 1_050

    @property
    def row_hit_latency(self) -> int:
        """Cycles for a read that hits the open row."""
        return self.cas + self.burst

    @property
    def row_miss_latency(self) -> int:
        """Cycles for a read that must precharge and activate first."""
        return self.rp + self.rcd + self.cas + self.burst

    @property
    def write_hit_latency(self) -> int:
        """Cycles for a write that hits the open row."""
        return self.cwl + self.burst

    @property
    def write_miss_latency(self) -> int:
        """Cycles for a write that must precharge and activate first."""
        return self.rp + self.rcd + self.cwl + self.burst


@dataclass
class DramStats:
    """Request, row-buffer and occupancy accounting for a DRAM subsystem."""

    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    row_misses: int = 0
    #: Latency sums split by request class.
    read_cycles: int = 0
    write_cycles: int = 0
    #: Cycles requests spent waiting (bank busy, bus busy, turnaround,
    #: utilisation penalty, refresh) beyond their raw service time.
    queue_cycles: int = 0
    #: Refresh stalls charged to requests (one tRFC each).
    refresh_stalls: int = 0
    #: Channel read<->write direction switches that actually delayed a
    #: data burst (charged in bus-grant order; switches fully absorbed by
    #: bank queueing cost nothing and are not counted).
    turnarounds: int = 0
    #: Background 64B requests charged as bus occupancy only (page
    #: re-encryption): they never touch row buffers or latency sums.
    background_requests: int = 0
    #: Demand requests per channel.
    per_channel: Dict[int, int] = field(default_factory=dict)
    #: Data-bus occupancy cycles per channel (demand bursts + background).
    per_channel_busy: Dict[int, int] = field(default_factory=dict)

    @property
    def requests(self) -> int:
        """Total demand requests serviced."""
        return self.reads + self.writes

    @property
    def activations(self) -> int:
        """Row activations (ACT commands) — one per row-buffer miss."""
        return self.row_misses

    @property
    def busy_cycles(self) -> int:
        """Total latency cycles across both request classes."""
        return self.read_cycles + self.write_cycles

    @property
    def row_hit_rate(self) -> float:
        """Fraction of requests hitting an open row."""
        if self.requests == 0:
            return 0.0
        return self.row_hits / self.requests

    @property
    def max_channel_busy(self) -> int:
        """Bus occupancy of the busiest channel — the serialisation floor."""
        if not self.per_channel_busy:
            return 0
        return max(self.per_channel_busy.values())

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe snapshot for obs artifacts and reports."""
        return {
            "reads": self.reads,
            "writes": self.writes,
            "row_hits": self.row_hits,
            "row_misses": self.row_misses,
            "row_hit_rate": self.row_hit_rate,
            "read_cycles": self.read_cycles,
            "write_cycles": self.write_cycles,
            "busy_cycles": self.busy_cycles,
            "queue_cycles": self.queue_cycles,
            "refresh_stalls": self.refresh_stalls,
            "turnarounds": self.turnarounds,
            "background_requests": self.background_requests,
            "activations": self.activations,
            "per_channel": {str(k): v for k, v in sorted(self.per_channel.items())},
            "per_channel_busy": {
                str(k): v for k, v in sorted(self.per_channel_busy.items())
            },
        }


@dataclass
class DramModel:
    """Open-page DDR4 memory with per-bank row buffers and bank timing.

    Address mapping row:bank:channel:column — column (within-row) bits
    lowest, then channel bits (so rows interleave across channels), then
    bank bits, row bits on top.  Streaming accesses fill a whole row
    before moving on.  All three geometry knobs must be powers of two so
    the bit-field decode is a bijection (checked in ``__post_init__``;
    :meth:`decode`/:meth:`encode` round-trip exactly).

    ``timings`` is fixed once the model is built: the refresh schedule and
    the cached queue penalty derive from it, so assigning a new one raises.
    Build a new model for new timings.
    """

    timings: DramTimings = field(default_factory=DramTimings)
    num_banks: int = 16
    num_channels: int = 1
    row_size_bytes: int = 2048
    stats: DramStats = field(default_factory=DramStats)

    def __post_init__(self) -> None:
        if not _is_power_of_two(self.num_channels):
            raise ValueError(
                f"num_channels must be a power of two >= 1, got {self.num_channels}: "
                "the channel bits are a bit-field of the block address"
            )
        if not _is_power_of_two(self.num_banks):
            raise ValueError(
                f"num_banks must be a power of two >= 1, got {self.num_banks}: "
                "the bank bits are a bit-field of the block address"
            )
        block_bytes = 1 << BLOCK_SHIFT
        if self.row_size_bytes < block_bytes or not _is_power_of_two(self.row_size_bytes):
            raise ValueError(
                f"row_size_bytes must be a power of two >= {block_bytes}, "
                f"got {self.row_size_bytes}: a row holds whole 64B blocks"
            )
        blocks_per_row = self.row_size_bytes >> BLOCK_SHIFT
        self._column_bits = blocks_per_row.bit_length() - 1
        self._channel_bits = self.num_channels.bit_length() - 1
        self._bank_bits = self.num_banks.bit_length() - 1
        self._column_mask = blocks_per_row - 1
        self._channel_mask = self.num_channels - 1
        self._bank_mask = self.num_banks - 1
        self._channel_shift = self._column_bits
        self._bank_shift = self._column_bits + self._channel_bits
        self._row_shift = self._bank_shift + self._bank_bits
        self._reset_state()

    def __setattr__(self, name: str, value: object) -> None:
        # hasattr, not ``self.__dict__``: reading ``__dict__`` would turn
        # the instance's inline attribute values into a dict and slow every
        # attribute load in request() down.
        if name == "timings" and hasattr(self, "timings"):
            raise AttributeError(
                "DramModel.timings is fixed once the model is built; build a new "
                "DramModel with the replaced timings and the same geometry"
            )
        object.__setattr__(self, name, value)

    def _reset_state(self) -> None:
        """(Re)initialise all bank/bus/refresh/utilisation state."""
        banks = self.num_channels * self.num_banks
        #: Open row per (channel, bank), indexed channel*num_banks + bank.
        self._open_rows: List[Optional[int]] = [None] * banks
        #: Cycle at which each bank can accept its next command.
        self._bank_ready: List[int] = [0] * banks
        #: Cycle at which each channel's data bus is free.
        self._bus_ready: List[int] = [0] * self.num_channels
        #: Last transfer direction per channel (for turnaround charging).
        self._last_write: List[bool] = [False] * self.num_channels
        interval = self.timings.refresh_interval
        self._next_refresh: List[int] = [interval] * self.num_channels
        #: Utilisation window per channel: start cycle, busy cycles in the
        #: window, and the queue penalty the previous window's utilisation
        #: sets.
        self._win_start: List[int] = [0] * self.num_channels
        self._win_busy: List[int] = [0] * self.num_channels
        self._queue_penalty: List[int] = [0] * self.num_channels
        #: Cycle each channel's refresh and windows were last settled at.
        self._settled_at: List[Optional[int]] = [None] * self.num_channels
        #: Round-robin cursor for background-occupancy distribution.
        self._background_cursor = 0

    # ------------------------------------------------------------------
    # Address mapping
    # ------------------------------------------------------------------
    def decode(self, block_address: int) -> Tuple[int, int, int, int]:
        """Split a block address into ``(channel, bank, row, column)``."""
        return (
            (block_address >> self._channel_shift) & self._channel_mask,
            (block_address >> self._bank_shift) & self._bank_mask,
            block_address >> self._row_shift,
            block_address & self._column_mask,
        )

    def encode(self, channel: int, bank: int, row: int, column: int = 0) -> int:
        """Inverse of :meth:`decode`; ``encode(*decode(a))`` == ``a``."""
        return (
            (row << self._row_shift)
            | (bank << self._bank_shift)
            | (channel << self._channel_shift)
            | column
        )

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def request(self, block_address: int, is_write: bool = False, now: int = 0) -> int:
        """Service one 64B request issued at cycle ``now``.

        Returns the latency in cycles from ``now`` to the end of the data
        burst, including any wait for refresh, the bank, the channel bus,
        direction turnaround and the utilisation-derived queue penalty.
        """
        timings = self.timings
        channel = (block_address >> self._channel_shift) & self._channel_mask
        bank = (block_address >> self._bank_shift) & self._bank_mask
        row = block_address >> self._row_shift
        stats = self.stats
        per_channel = stats.per_channel
        per_channel[channel] = per_channel.get(channel, 0) + 1

        start = now
        # Refresh and the utilisation window depend only on ``now``, so each
        # channel settles them once per cycle: later requests at the same
        # cycle would find nothing to do, and pay the same queue penalty
        # (:meth:`reads_at` relies on this).
        if self._settled_at[channel] != now:
            self._settled_at[channel] = now
            # Periodic refresh: a request arriving past a due tREFI boundary
            # pays one tRFC.  Boundaries crossed while nothing was requested
            # are absorbed silently (refreshing an idle channel stalls nobody).
            interval = timings.refresh_interval
            if interval > 0:
                if now >= self._next_refresh[channel]:
                    start += timings.refresh_cycles
                    stats.refresh_stalls += 1
                    self._next_refresh[channel] = (now // interval + 1) * interval

            # Utilisation-derived queueing: the previous window's measured
            # bus utilisation (in 1/1024 units) scales the maximum penalty,
            # so the penalty changes only when a window closes.
            elapsed = now - self._win_start[channel]
            if elapsed >= UTILISATION_WINDOW:
                util = min(1024, (self._win_busy[channel] << 10) // elapsed)
                self._queue_penalty[channel] = (timings.queue_penalty * util) >> 10
                self._win_start[channel] = now
                self._win_busy[channel] = 0
        start += self._queue_penalty[channel]

        # Bank readiness: queue behind the bank's previous command (and,
        # after writes, its write-recovery window).
        bank_index = channel * self.num_banks + bank
        ready = self._bank_ready[bank_index]
        if ready > start:
            start = ready

        # Row-buffer state machine with per-class column latency.
        if self._open_rows[bank_index] == row:
            stats.row_hits += 1
            service = (timings.cwl if is_write else timings.cas) + timings.burst
        else:
            stats.row_misses += 1
            self._open_rows[bank_index] = row
            service = (
                timings.rp
                + timings.rcd
                + (timings.cwl if is_write else timings.cas)
                + timings.burst
            )

        # Channel data-bus serialisation: bursts cannot overlap, and a
        # direction switch costs ``turnaround`` idle bus cycles *between*
        # the previous burst and this one.  Both are resolved here, in
        # bus-grant order: a switch whose gap is fully absorbed by bank
        # queueing (the burst could not have started earlier anyway)
        # delays nothing and is not charged or counted.
        burst_start = start + service - timings.burst
        gate = self._bus_ready[channel]
        if is_write != self._last_write[channel]:
            self._last_write[channel] = is_write
            gate += timings.turnaround
            if burst_start < gate:
                stats.turnarounds += 1
        if burst_start < gate:
            finish = gate + timings.burst
        else:
            finish = burst_start + timings.burst
        self._bus_ready[channel] = finish
        busy = stats.per_channel_busy
        busy[channel] = busy.get(channel, 0) + timings.burst
        self._win_busy[channel] += timings.burst

        # The bank is busy until the burst completes (+ tWR for writes).
        self._bank_ready[bank_index] = finish + (timings.wr if is_write else 0)

        latency = finish - now
        if is_write:
            stats.writes += 1
            stats.write_cycles += latency
        else:
            stats.reads += 1
            stats.read_cycles += latency
        stats.queue_cycles += latency - service
        return latency

    def reads_at(self, addresses: List[int], now: int) -> None:
        """Service a read of each of ``addresses``, in order, all at ``now``.

        Leaves the same state and :class:`DramStats` as one
        ``request(address, now=now)`` per address.  Nothing is returned,
        because the one caller, the MT walk, has no use for the latencies:
        they overlap OTP generation (paper Sec. 5).

        The reads are served one channel at a time: channels in order of
        first appearance, each channel's reads in their given order.  That
        is exact, because at one ``now`` channels share no state: bank
        indices include the channel, the bus, its direction, the queue
        penalty, the settle point and the utilisation window are per
        channel, and the stats are sums.  With one channel, which every
        simulator design uses, ``addresses`` is the batch as it stands.

        A channel's first read goes through :meth:`request` when the
        channel is not yet settled at ``now`` or its bus is turned to
        writes, so refresh, the utilisation window and the turnaround are
        defined in one place.  After any read the bus faces reads, so only
        that first read can pay a turnaround.  In the simulator the counter
        fetch at the same cycle has settled the channel and turned its bus
        to reads.  The rest of the batch loads ``now`` plus the queue
        penalty, the bus gate and the bank base once.  Each read decodes its
        bank and row, waits for its bank, opens or hits its row and waits
        for the bus, then stores its finish to the bank.  The bus gate, the
        per-channel counters and the window's busy cycles are stored once
        per batch, the stats sums once per call.
        """
        if not addresses:
            return
        timings = self.timings
        burst = timings.burst
        hit_column = timings.cas
        miss_column = timings.rp + timings.rcd + hit_column
        channel_mask = self._channel_mask
        if channel_mask:
            channel_shift = self._channel_shift
            by_channel: Dict[int, List[int]] = {}
            for address in addresses:
                channel = (address >> channel_shift) & channel_mask
                batch = by_channel.get(channel)
                if batch is None:
                    by_channel[channel] = [address]
                else:
                    batch.append(address)
            batches = by_channel.items()
        else:
            batches = ((0, addresses),)
        bank_shift = self._bank_shift
        bank_mask = self._bank_mask
        row_shift = self._row_shift
        open_rows = self._open_rows
        bank_ready = self._bank_ready
        stats = self.stats
        count = hits = finish_sum = 0
        for channel, batch in batches:
            if self._settled_at[channel] != now or self._last_write[channel]:
                self.request(batch[0], False, now)
                batch = batch[1:]
            earliest = now + self._queue_penalty[channel]
            gate = self._bus_ready[channel]
            base = channel * self.num_banks
            for address in batch:
                bank_index = base + ((address >> bank_shift) & bank_mask)
                start = bank_ready[bank_index]
                if start < earliest:
                    start = earliest
                row = address >> row_shift
                if open_rows[bank_index] == row:
                    hits += 1
                    start += hit_column
                else:
                    open_rows[bank_index] = row
                    start += miss_column
                gate = (start if start > gate else gate) + burst
                bank_ready[bank_index] = gate
                finish_sum += gate
            self._bus_ready[channel] = gate
            reads = len(batch)
            count += reads
            per_channel = stats.per_channel
            per_channel[channel] = per_channel.get(channel, 0) + reads
            busy = stats.per_channel_busy
            busy[channel] = busy.get(channel, 0) + reads * burst
            self._win_busy[channel] += reads * burst

        misses = count - hits
        latency = finish_sum - count * now
        stats.reads += count
        stats.row_hits += hits
        stats.row_misses += misses
        stats.read_cycles += latency
        stats.queue_cycles += latency - count * burst - hits * hit_column - misses * miss_column

    def add_background_occupancy(self, num_requests: int) -> None:
        """Charge ``num_requests`` background 64B transfers as occupancy.

        Used for page re-encryption traffic: the memory controller streams
        it behind demand requests, so it consumes channel bandwidth (one
        burst each, round-robin across channels) without contributing a
        row-buffer access or a latency sample.
        """
        if num_requests <= 0:
            return
        stats = self.stats
        stats.background_requests += num_requests
        busy = stats.per_channel_busy
        burst = self.timings.burst
        channels = self.num_channels
        base, extra = divmod(num_requests, channels)
        cursor = self._background_cursor
        for offset in range(channels):
            channel = (cursor + offset) % channels
            share = base + (1 if offset < extra else 0)
            if share:
                busy[channel] = busy.get(channel, 0) + share * burst
                # Background bursts occupy the measured utilisation window
                # too: a channel saturated by re-encryption must raise the
                # utilisation-derived queue penalty for the demand requests
                # that share it, not just the occupancy ledger.
                self._win_busy[channel] += share * burst
        self._background_cursor = (cursor + extra) % channels

    def reset(self) -> None:
        """Clear row buffers, bank/bus/refresh state and statistics."""
        self._reset_state()
        self.stats = DramStats()

    def reset_stats(self) -> None:
        """Zero statistics but keep all timing state (for warmup).

        Open rows, bank readiness, refresh schedule and the utilisation
        window survive so the measurement window starts against a warm
        memory system rather than a freshly power-cycled one.
        """
        self.stats = DramStats()
