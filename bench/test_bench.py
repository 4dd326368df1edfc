"""Tests of the benchmark's own arithmetic, counters and output checks.

    python3 -m pytest bench/test_bench.py
"""
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import shmod  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, instrument, self_times  # noqa: E402
from workloads import Cell, StudyWorkload  # noqa: E402


def test_self_times_subtracts_direct_children():
    # thread 0: a [0, 10] > b [1, 4] > c [2, 3]; a > b [5, 7]
    spans = [
        (0, 2, 1, "c", 2.0, 3.0),
        (0, 1, 0, "b", 1.0, 4.0),
        (0, 3, 0, "b", 5.0, 7.0),
        (0, 0, None, "a", 0.0, 10.0),
    ]
    out = self_times(spans)
    assert out["a"] == (pytest.approx(5.0), 1)
    assert out["b"] == (pytest.approx(4.0), 2)
    assert out["c"] == (pytest.approx(1.0), 1)
    assert sum(t for t, _ in out.values()) == pytest.approx(10.0)


def test_self_times_keeps_threads_apart():
    # Both threads reuse seq numbers and overlap in time; a parent is only
    # ever charged for children on its own thread.
    spans = [
        (0, 0, None, "cell", 0.0, 10.0),
        (0, 1, 0, "step", 1.0, 3.0),
        (1, 0, None, "cell", 0.5, 8.5),
        (1, 1, 0, "step", 2.0, 8.0),
        (1, 2, 1, "fft", 2.0, 2.5),
    ]
    out = self_times(spans)
    assert out["cell"] == (pytest.approx(8.0 + 2.0), 2)
    assert out["step"] == (pytest.approx(2.0 + 5.5), 2)
    assert out["fft"] == (pytest.approx(0.5), 1)


def test_tracer_records_spans_per_thread():
    tracer = Tracer()
    outer = tracer.wrap("outer", lambda f: f())
    inner = tracer.wrap("inner", lambda: None)
    threads = [threading.Thread(target=outer, args=(inner,)) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    spans = tracer.spans()
    assert len(spans) == 4
    for thread in {s[0] for s in spans}:
        own = {s[3]: s for s in spans if s[0] == thread}
        assert own["inner"][2] == own["outer"][1]
        assert own["outer"][2] is None


def test_instrument_restores_everything():
    before = (shmod.studies.simulate_paired, shmod.sh.SHStepper.step_spec,
              np.fft.rfft, shmod.estimate_landau_coefficient)
    with instrument(Tracer()) as missing:
        assert missing == []
        assert shmod.studies.simulate_paired is not before[0]
        assert shmod.studies.simulate_paired is shmod.reduced.simulate_paired
        assert np.fft.rfft is not before[2]
    after = (shmod.studies.simulate_paired, shmod.sh.SHStepper.step_spec,
             np.fft.rfft, shmod.estimate_landau_coefficient)
    assert after == before


def _traced_counts(workload, tmp_path, tag):
    tracer = Tracer()
    with instrument(tracer):
        cells = workload.run(workloads.DEFAULT_SEED, tmp_path / tag)
    assert all(workload.check(c) is None for c in cells)
    steps = self_times(tracer.spans())["sh.SHStepper.step_spec"][1]
    return tracer.totals(), steps


@pytest.mark.parametrize("study, threads", [("theorem2", 1), ("attractivity", 2)])
def test_fft_counts_repeat_exactly(study, threads, tmp_path):
    workload = StudyWorkload(
        study, workloads.WORKLOADS[study].limits,
        eps_list=(0.2, 0.1), n_seeds=2, t_end=0.05, threads=threads)
    first = _traced_counts(workload, tmp_path, "a")
    second = _traced_counts(workload, tmp_path, "b")
    assert first == second
    totals, steps = first
    assert steps == 4 * 50
    assert totals["fft_calls"] > 0 and totals["fft_points"] > 0


def _theorem2_cell(**diags):
    base = {"sup_diff": 0.005, "res_p0": 0.01, "res_p2": 0.003}
    return Cell("theorem2|eps=0.1|nu=0.5|seed=0", "ok", {**base, **diags}, 2.0)


def test_blown_up_ok_record_fails_the_check():
    check = workloads.WORKLOADS["theorem2"].check
    assert check(_theorem2_cell()) is None
    assert "sup_diff" in check(_theorem2_cell(sup_diff=470.0))
    assert "not finite" in check(_theorem2_cell(res_p2=math.nan))
    cell = _theorem2_cell()
    assert "status" in check(Cell(cell.key, "error: blow-up", cell.diagnostics, 1.0))
    assert check(Cell(cell.key, "ok", {"sup_diff": 0.005}, 1.0)) is not None


def test_quintic_fit_check_uses_acceptance_tolerances():
    wl = workloads.WORKLOADS["landau-quintic"]
    good = {"c3": 0.0, "c5": -10.0004, "r_squared": 0.9999}
    assert wl.check(Cell("nu=(0,0)", "ok", good, 1.0)) is None
    assert wl.check(Cell("nu=(0,0)", "ok", {**good, "c5": -11.5}, 1.0))
    assert wl.check(Cell("nu=(0,0)", "ok", {**good, "r_squared": 0.98}, 1.0))
    quad = {"c3": 4.2255, "c5": -10.45, "r_squared": 0.9999}
    assert wl.check(Cell("nu=(1,0)", "ok", quad, 1.0)) is None
    assert wl.check(Cell("nu=(1,0)", "ok", {**quad, "c3": 3.7}, 1.0))


def test_reference_catches_a_changed_value():
    ref = workloads.load_reference()["landau-quintic"]
    cells = [Cell(k, "ok", dict(v), 1.0) for k, v in ref.items()]
    assert workloads.reference_mismatches("landau-quintic", cells) == []
    nudged = dict(cells[1].diagnostics)
    nudged["c3"] *= 1 + 1e-12
    cells[1] = Cell(cells[1].key, "ok", nudged, 1.0)
    assert workloads.reference_mismatches("landau-quintic", cells) == []
    nudged["c3"] *= 1 + 1e-4
    bad = workloads.reference_mismatches("landau-quintic", cells)
    assert [key for key, _ in bad] == [cells[1].key]
    missing = workloads.reference_mismatches("landau-quintic", cells[:1])
    assert missing == [(cells[1].key, "missing")]


def test_reference_run_matches_the_stored_values(tmp_path):
    wl = workloads.WORKLOADS["attractivity"]
    cells = wl.reference_run(tmp_path / "ref")
    assert [wl.check(c) for c in cells] == [None]
    assert workloads.reference_mismatches("attractivity", cells) == []


def test_span_csv_round_trip(tmp_path):
    spans = [(0, 0, None, "a", 0.0, 1.0), (0, 1, 0, "b", 0.25, 0.5)]
    path = tmp_path / "spans.csv"
    tracing.write_spans(path, spans)
    lines = path.read_text().splitlines()
    assert lines[0] == "thread,seq,parent,name,start_s,end_s"
    assert lines[1:] == ["0,0,,a,0.0,1.0", "0,1,0,b,0.25,0.5"]
