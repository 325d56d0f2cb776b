"""Scaling job times to the nominal host.

    python3 -m pytest perfbench/tests
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import pytest  # noqa: E402

import hostspeed  # noqa: E402
from hostspeed import NOMINAL_PROBE_MS, HostSpeed  # noqa: E402


def test_a_job_is_scaled_by_the_probes_around_and_during_it():
    speed = HostSpeed()
    speed.probes = [NOMINAL_PROBE_MS, 3 * NOMINAL_PROBE_MS]
    # the host ran at half the nominal speed on average around the job
    assert speed.factor() == pytest.approx(0.5)
    speed.probes.append(NOMINAL_PROBE_MS)
    assert speed.factor() == pytest.approx(0.5)
    # a long job, probed twice while paused
    speed.probes += [2 * NOMINAL_PROBE_MS, 4 * NOMINAL_PROBE_MS,
                     NOMINAL_PROBE_MS]
    assert speed.factor() == pytest.approx(0.5)
    speed.probes.append(NOMINAL_PROBE_MS)
    assert speed.factor() == pytest.approx(1.0)


def test_probe_measures_and_restores_the_collector():
    import gc

    speed = HostSpeed()
    speed.probe()
    assert speed.probes[0] > 0
    assert gc.isenabled()
    assert hostspeed.probe_ms() > 0


def test_a_long_child_is_paused_for_probes(tmp_path):
    from common import run_measured

    speed = HostSpeed()
    t0 = time.perf_counter()
    wall, code, peak = run_measured(
        [sys.executable, "-c", "import time; time.sleep(1.3)"],
        str(tmp_path), speed)
    elapsed = time.perf_counter() - t0
    assert code == 0 and peak > 0
    assert len(speed.probes) >= 2
    assert 0 < wall < elapsed

    speed = HostSpeed()
    wall, code, _ = run_measured([sys.executable, "-c", "raise SystemExit(3)"],
                                 str(tmp_path), speed)
    assert code == 3 and speed.probes == []
