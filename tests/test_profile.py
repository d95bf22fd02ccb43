"""tools/profile.py books every profiled second to one row, and scales each
profiled call to the reference speed by the probes around it.

A stand-in callable stands for a product path here, so that the test runs in
well under a second: it calls a torsorlab function, the standard library
and builtins, from its own frame and from torsorlab's.
"""

import cProfile
import json
import pstats
from types import SimpleNamespace

import pytest

from torsorlab import groups as gr
from helpers import profile_tool


def _stand_in():
    sorted(range(3000), key=str)  # builtins called from this file: row `other`
    json.dumps(list(range(3000)))  # the standard library
    return gr.symmetric_group(4)  # torsorlab, with the builtins it calls


def test_each_function_lands_in_one_row_and_the_rows_sum_to_the_total():
    tool = profile_tool()
    prof = cProfile.Profile()
    prof.runcall(_stand_in)
    stats = pstats.Stats(prof).stats
    total = sum(v[2] for v in stats.values())
    own = tool.booked(stats)
    rows = tool.module_rows(stats)
    # builtins and generated code keep no time of their own
    assert any(tool.generated(f[0]) for f in stats)
    assert not any(tool.generated(f[0]) for f in own if f != tool.CALLERLESS)
    assert sum(own.values()) == pytest.approx(total, rel=1e-9)
    assert sum(r["self_s"] for r in rows.values()) == pytest.approx(total, rel=1e-9)
    # each function's time is in the row of the file that defines it
    for row, v in rows.items():
        mine = [s for f, s in own.items()
                if ("other" if f == tool.CALLERLESS else tool.row_of(f[0])) == row]
        assert v["self_s"] == pytest.approx(sum(mine), rel=1e-9, abs=1e-12)
    assert {"torsorlab.groups", "stdlib", "other"} <= set(rows)
    assert rows["torsorlab.groups"]["calls"] >= 1


def test_each_profiled_call_is_scaled_by_the_probes_around_it():
    # perfbench/speed.py with a probe that always reads twice the reference
    # time: a host at half the reference speed, so each profiled second is
    # half a second at the reference speed
    tool = profile_tool()
    speed = tool.load(tool.ROOT, "speed")
    log = []

    def probe():
        log.append("probe")
        return 2 * speed.REFERENCE_PROBE_NS

    def run():
        log.append("run")
        return _stand_in()

    prof = tool.Probed(SimpleNamespace(probe=probe, at_reference=speed.at_reference))
    log.clear()  # the probe that warms up
    for _ in range(2):
        assert prof.runcall(run) == gr.symmetric_group(4)
    assert log == ["probe", "run", "probe"] * 2
    # the same functions and calls, every time halved, summed over both calls
    assert {f: v[:2] for f, v in prof.stats.items()} == {f: v[:2] for f, v in prof.raw.items()}
    rows, raw = tool.module_rows(prof.stats), tool.module_rows(prof.raw)
    assert rows.keys() == raw.keys()
    for row, v in rows.items():
        assert v["calls"] == raw[row]["calls"]
        assert v["self_s"] == pytest.approx(raw[row]["self_s"] / 2, rel=1e-9, abs=1e-12)
    assert rows["torsorlab.groups"]["calls"] >= 2
