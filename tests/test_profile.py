"""tools/profile.py books every profiled second to one row.

A stand-in callable stands for a product path here, so that the test runs in
well under a second: it calls a torsorlab function, the standard library
and builtins, from its own frame and from torsorlab's.
"""

import cProfile
import json
import pstats

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
