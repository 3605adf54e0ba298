"""Tests for Chrome-trace export of the modeled timeline."""

import json

import pytest

from repro.errors import DeviceError
from repro.gpu import Timeline
from repro.gpu.trace_export import timeline_to_trace_events, write_chrome_trace


class TestTraceExport:
    def make_timeline(self):
        tl = Timeline()
        tl.add("transfer", "up", 1.0, stream=0)
        tl.add("kernel", "k0", 2.0, stream=0)
        tl.add("kernel", "k1", 2.0, stream=1)
        tl.add("reduction", "r0", 0.5, stream=0)
        return tl

    def test_serial_events_back_to_back(self):
        tl = self.make_timeline()
        ev = timeline_to_trace_events(tl, schedule="serial")
        assert [e["ts"] for e in ev] == [0.0, 1.0e6, 3.0e6, 5.0e6]
        assert ev[-1]["ts"] + ev[-1]["dur"] == pytest.approx(
            tl.serial_end() * 1e6
        )

    def test_overlapped_matches_timeline_end(self):
        tl = self.make_timeline()
        ev = timeline_to_trace_events(tl, schedule="overlapped")
        end = max(e["ts"] + e["dur"] for e in ev)
        assert end == pytest.approx(tl.overlapped_end() * 1e6)

    def test_resources_map_to_tids(self):
        ev = timeline_to_trace_events(self.make_timeline())
        kinds = {e["cat"]: e["tid"] for e in ev}
        assert kinds["kernel"] == 0 and kinds["transfer"] == 1
        assert kinds["reduction"] == 2

    def test_write_file(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(path, self.make_timeline())
        blob = json.loads(path.read_text())
        names = [e for e in blob["traceEvents"] if e.get("ph") == "M"]
        assert len(names) == 3
        assert any(e.get("ph") == "X" for e in blob["traceEvents"])

    def test_bad_schedule(self):
        with pytest.raises(DeviceError):
            timeline_to_trace_events(Timeline(), schedule="magic")

