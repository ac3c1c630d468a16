"""Tests for external trace ingest (repro.workloads.ingest)."""

import gzip

import pytest

from repro.bench.runner import get_trace
from repro.workloads import (
    TraceFormatError,
    detect_format,
    load_external_trace,
)

RAMULATOR = """\
# ramulator load-store trace
0x400140 R
LD 4195648
ST 0x400180 1
W 0x4001c0
// a comment line
0x400200 READ 2
"""

GEM5 = """\
# tick,cmd,addr,size
1000,ReadReq,4195648,64
2000,WriteReq,0x400180,64
3000,r,4195776
4000,w,0x400240
"""


@pytest.fixture
def ram_path(tmp_path):
    path = tmp_path / "stream.trace"
    path.write_text(RAMULATOR)
    return path


@pytest.fixture
def gem5_path(tmp_path):
    path = tmp_path / "packets.csv"
    path.write_text(GEM5)
    return path


class TestRamulatorFormat:
    def test_parses_addresses_ops_cores(self, ram_path):
        trace = load_external_trace(ram_path)
        arrays = trace.arrays()
        assert list(arrays.addresses) == [
            0x400140, 4195648, 0x400180, 0x4001C0, 0x400200
        ]
        assert list(arrays.types) == [0, 0, 1, 1, 0]
        assert list(arrays.cores) == [0, 0, 1, 0, 2]

    def test_metadata_records_provenance(self, ram_path):
        trace = load_external_trace(ram_path)
        assert trace.metadata["format"] == "ramulator"
        assert trace.metadata["requests"] == 5
        assert trace.metadata["source"] == str(ram_path)
        assert trace.name == "trace:stream.trace"

    def test_op_before_address_accepted(self, tmp_path):
        path = tmp_path / "swapped.trace"
        path.write_text("R 0x100\nST 0x140\n")
        arrays = load_external_trace(path).arrays()
        assert list(arrays.addresses) == [0x100, 0x140]
        assert list(arrays.types) == [0, 1]

    def test_bad_token_raises_with_location(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("0x100 R\n0x140 FROB\n")
        with pytest.raises(TraceFormatError, match=r"bad\.trace:2"):
            load_external_trace(path)


class TestGem5Format:
    def test_parses_csv_rows(self, gem5_path):
        trace = load_external_trace(gem5_path)
        arrays = trace.arrays()
        assert list(arrays.addresses) == [4195648, 0x400180, 4195776, 0x400240]
        assert list(arrays.types) == [0, 1, 0, 1]

    def test_unknown_command_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1000,FlushReq,0x100\n")
        with pytest.raises(TraceFormatError, match="FlushReq"):
            load_external_trace(path)


class TestFormatHandling:
    def test_auto_detect(self, ram_path, gem5_path):
        assert detect_format(ram_path) == "ramulator"
        assert detect_format(gem5_path) == "gem5"
        assert load_external_trace(gem5_path).metadata["format"] == "gem5"

    def test_gzip_transparent(self, tmp_path):
        path = tmp_path / "stream.trace.gz"
        with gzip.open(path, "wt") as handle:
            handle.write(RAMULATOR)
        trace = load_external_trace(path)
        assert len(trace) == 5

    def test_unknown_format_rejected(self, ram_path):
        with pytest.raises(ValueError, match="unknown trace format"):
            load_external_trace(ram_path, fmt="vhdl")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.trace"
        path.write_text("# nothing here\n")
        with pytest.raises(ValueError, match="no requests"):
            load_external_trace(path)

    def test_max_accesses_truncates(self, ram_path):
        trace = load_external_trace(ram_path, max_accesses=2)
        assert len(trace) == 2

    @pytest.mark.parametrize(
        "text, what",
        [
            ("0x1000 R 0\n0x2000 W -1\n0x3000 R -2\n", "core -1"),
            ("0x1000 R 0\n0x2000 R 40000\n", "core 40000"),
            ("0x1000 R\n-4096 W\n", "address -4096"),
            ("1000,ReadReq,0x100\n2000,WriteReq,-4096\n", "address -4096"),
        ],
    )
    def test_out_of_range_values_raise_with_location(self, tmp_path, text, what):
        # Line 2 holds the bad value in every case.
        path = tmp_path / "range.trace"
        path.write_text(text)
        with pytest.raises(TraceFormatError, match=rf"range\.trace:2: {what} outside"):
            load_external_trace(path)


class TestRunnerIntegration:
    def test_trace_prefix_resolves(self, ram_path):
        trace = get_trace(f"trace:{ram_path}")
        assert len(trace) == 5
        assert trace.metadata["format"] == "ramulator"

    def test_trace_prefix_honours_max_accesses(self, ram_path):
        trace = get_trace(f"trace:{ram_path}", max_accesses=3)
        assert len(trace) == 3

    def test_simulates_end_to_end(self, ram_path, tmp_path, monkeypatch):
        from repro.bench import runner

        # The run writes a result and a manifest: keep them out of the
        # working directory.
        monkeypatch.setattr(runner, "CACHE_DIR", tmp_path / "cache")
        workload = f"trace:{ram_path}"
        result = runner.run_design_matrix(["cosmos"], [workload])[workload]["cosmos"]
        assert result.instructions > 0
        assert result.ipc > 0
