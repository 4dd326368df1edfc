import concurrent.futures
import csv
import dataclasses
import json
import multiprocessing
import os
import pickle
import shutil
import subprocess
import sys
import tempfile
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shmod import (
    ComplexField,
    ConfigError,
    Grid,
    ModelParams,
    NoiseConfig,
    ReplayError,
    StudyConfig,
    StudyRecord,
    emit_plotdata,
    estimate_landau_coefficient,
    gl_coefficients,
    modulated_carrier_ic,
    parse_config_file,
    read_field,
    replay,
    run_study,
    simulate,
    simulate_gl,
    simulate_paired,
)
from shmod import cli, studies
from shmod.sh import BLOCK, SHStepper
from shmod.studies import (SETTINGS, STUDIES, STUDY_NAMES,
                           _run_batch, append_record, load_records,
                           record_key, study_batches, study_cells, summarize)


TINY = dict(eps_list=(0.2,), nu_list=(0.5,), n_seeds=2, n_points=512,
            periods=32, dt=1e-3, t_end=0.05)


def tiny_cfg(out_dir, **extra):
    kw = dict(TINY)
    kw.update(extra)
    return StudyConfig.for_study("theorem2", out_dir=str(out_dir), **kw)


def test_config_validation_rejects_bad_input(tmp_path):
    with pytest.raises(ConfigError):
        StudyConfig.for_study("no-such-study", out_dir=str(tmp_path))
    with pytest.raises(ConfigError):
        tiny_cfg(tmp_path, eps_list=()).validate()
    with pytest.raises(ConfigError):
        tiny_cfg(tmp_path, n_seeds=0).validate()
    with pytest.raises(ConfigError):
        # bands overlap at this bandwidth and eps
        tiny_cfg(tmp_path, delta=0.25).validate()


#: A small config of each study, and for each setting a value that
#: differs from every study's default and small value.
SMALL = {study: dict(TINY, n_seeds=1)
         for study in ("attractivity", "averaging", "theorem2", "gl-limit")}
SMALL["landau-sweep"] = dict(eps_list=(0.2,), nu_list=(0.5,), dt=4e-3)
SMALL["quintic-suite"] = dict(eps_list=(0.2,), dt=4e-3)
OTHER = dict(eps_list=(0.14,), nu_list=(0.9,), nu2=0.5, nu3=-0.5, n_seeds=2,
             base_seed=5, n_points=1024, periods=16, delta=0.1, dt=2e-3,
             t_end=0.03, intensity=0.02, amplitude=0.3, offband=0.5,
             threads=2)
PAIRS = [(study, name) for study in STUDY_NAMES for name in SETTINGS]
READ = [(s, n) for s, n in PAIRS if n in STUDIES[s].reads or n == "threads"]
UNREAD = [pair for pair in PAIRS if pair not in READ]


def test_every_study_entry_is_complete(tmp_path):
    # every entry names its behaviour, reads and defaults only settings,
    # and is seeded exactly when its cells read n_seeds; a batch's work
    # unit pickles, as the entry is looked up by the study's name
    for study, spec in STUDIES.items():
        assert all(callable(getattr(spec, name)) for name in
                   ("run", "key", "summary", "models", "grid", "check"))
        assert spec.reads | set(spec.defaults) <= set(SETTINGS)
        assert spec.seeded == ("n_seeds" in spec.reads)
        cfg = _small(study, tmp_path)
        unit = (_run_batch, cfg, study_cells(cfg))
        assert pickle.loads(pickle.dumps(unit)) == unit


def test_settings_table_counts():
    # 15 settings in 6 studies, of which only 63 pairs are settable
    assert (len(SETTINGS), len(STUDY_NAMES)) == (15, 6)
    assert (len(READ), len(UNREAD)) == (63, 27)


def _small(study, out_dir):
    return StudyConfig.for_study(study, out_dir=str(out_dir), **SMALL[study])


def _cell_records(cfg, cells):
    return [(r.key, r.eps_effective.hex(), r.diagnostics_repr())
            for batch in study_batches(cfg, cells)
            for r in _run_batch(cfg, batch)]


@pytest.mark.parametrize("study, name",
                         [pair for pair in PAIRS if pair[1] != "threads"])
def test_a_setting_shapes_the_records_if_and_only_if_the_study_reads_it(
        tmp_path, study, name):
    # dataclasses.replace bypasses for_study, which refuses unread settings
    cfg = _small(study, tmp_path)
    other = dataclasses.replace(cfg, **{name: OTHER[name]})
    same = (_cell_records(other, study_cells(cfg))
            == _cell_records(cfg, study_cells(cfg)))
    cells_differ = study_cells(other) != study_cells(cfg)
    assert (same and not cells_differ) == (name not in STUDIES[study].reads)


def _main(argv):
    return cli.main(["study", *argv])


def _setting_text(value):
    return (",".join(map(str, value)) if isinstance(value, tuple)
            else str(value))


def _flag(name, value):
    return ["--" + SETTINGS[name][0].replace("_", "-"), _setting_text(value)]


@pytest.mark.parametrize("study, name", UNREAD)
def test_unread_settings_are_refused(tmp_path, study, name):
    with pytest.raises(ConfigError, match="does not read"):
        StudyConfig.for_study(study, out_dir=str(tmp_path / "api"),
                              **{name: OTHER[name]})
    path = tmp_path / "study.cfg"
    path.write_text(f"{SETTINGS[name][0]} = {_setting_text(OTHER[name])}\n")
    assert _main(["--study", study, "--config", str(path),
                  "--out", str(tmp_path / "file")]) == 2
    assert _main(["--study", study, *_flag(name, OTHER[name]),
                  "--out", str(tmp_path / "flag")]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["study.cfg"]


@pytest.mark.parametrize("study, name", READ)
def test_read_settings_reach_the_manifest_from_file_and_flag(
        tmp_path, monkeypatch, study, name):
    configs = []

    def run_study(cfg, progress=None):
        configs.append(cfg)
        return {"fits": {}, "gates_not_evaluated": [], "ok": True}

    monkeypatch.setattr(cli, "run_study", run_study)
    base = {k: v for k, v in SMALL[study].items() if k != name}
    lines = [f"{SETTINGS[k][0]} = {_setting_text(v)}" for k, v in base.items()]
    path = tmp_path / "base.cfg"
    path.write_text("\n".join([f"study = {study}", *lines]) + "\n")
    both = tmp_path / "both.cfg"
    both.write_text(path.read_text() + f"{SETTINGS[name][0]} = "
                    f"{_setting_text(OTHER[name])}\n")
    out = ["--out", str(tmp_path / "out")]
    assert _main(["--config", str(both), *out]) == 0
    assert _main(["--config", str(path), *_flag(name, OTHER[name]), *out]) == 0
    # public_dict is the config that run_study writes to the manifest
    expect = StudyConfig.for_study(study, tmp_path / "out",
                                   **dict(base, **{name: OTHER[name]}))
    assert [cfg.public_dict() for cfg in configs] == [expect.public_dict()] * 2
    value = expect.public_dict()[name]
    assert value == (list(OTHER[name]) if isinstance(value, list)
                     else OTHER[name])


def test_negative_base_seed_is_refused_before_anything_is_written(tmp_path):
    with pytest.raises(ConfigError, match="seed must be non-negative"):
        tiny_cfg(tmp_path / "api", base_seed=-3)
    out = tmp_path / "cli"
    flags = ("study", "--study", "theorem2", "--eps", "0.2", "--seeds", "1",
             "--n", "512", "--periods", "32", "--t-end", "0.05",
             "--out", str(out))
    r = _cli(*flags, "--base-seed", "-3")
    assert r.returncode == 2, r.stderr
    assert not (out / "manifest.json").exists()
    # so the corrected rerun into the same directory is not refused
    r = _cli(*flags, "--base-seed", "3")
    assert r.returncode == 0, r.stderr


@pytest.mark.parametrize("flags", [
    ["--study", "landau-sweep", "--eps", "0.2,0.2"],
    ["--study", "landau-sweep", "--nu", "0.5,0.5"],
    # the two models of the suite coincide
    ["--study", "quintic-suite", "--nu2", "0", "--nu3", "0"],
    ["--study", "theorem2", "--eps", "0.2,0.2", "--seeds", "1"],
])
def test_a_repeated_cell_is_refused_before_anything_is_written(tmp_path,
                                                               flags):
    assert _main([*flags, "--out", str(tmp_path / "out")]) == 2
    assert list(tmp_path.iterdir()) == []


#: small values of every setting, among them values a study refuses: a
#: band width at which the bands overlap, a t_end of no step, an amplitude
#: the Landau fit refuses, a negative seed and repeated cells; and a step
#: at which some cells blow up
SMALL_VALUES = {
    "eps_list": st.lists(st.sampled_from((0.2, 0.14, 0.4)), min_size=1,
                         max_size=3, unique=True).map(tuple),
    "nu_list": st.sampled_from(((0.5,), (0.0, 1.0), (1.0,), (0.5, 0.5))),
    "nu2": st.sampled_from((0.0, 1.0)), "nu3": st.sampled_from((0.0, -0.5)),
    "n_seeds": st.integers(1, 2), "base_seed": st.integers(-1, 3),
    "n_points": st.sampled_from((256, 512)),
    "periods": st.sampled_from((16, 32)),
    "delta": st.sampled_from((0.125, 0.1, 0.3)),
    "dt": st.sampled_from((4e-3, 0.05)),
    "t_end": st.sampled_from((0.1, 0.4, 1e-4)),
    "intensity": st.sampled_from((0.0, 0.07)),
    "amplitude": st.sampled_from((0.2, 0.5, 3.6)),
    "offband": st.sampled_from((0.0, 1.0)),
}


@settings(max_examples=100, deadline=None)
@given(data=st.data(), study=st.sampled_from(STUDY_NAMES))
def test_a_config_that_validates_records_each_cell_once(data, study):
    # whether a cell completes or records an error, the study runs to its
    # summary
    values = {name: data.draw(SMALL_VALUES[name], label=name)
              for name in sorted(STUDIES[study].reads)}
    with tempfile.TemporaryDirectory() as out:
        try:
            cfg = StudyConfig.for_study(study, out_dir=out, **values)
        except ConfigError:
            return
        run_study(cfg)
        keys = [r.key for r in load_records(cfg.out_dir / "records.csv")]
    assert sorted(keys) == sorted(record_key(study, *cell)
                                  for cell in study_cells(cfg))


def test_resume_refuses_a_study_of_another_version(tmp_path):
    # a study cut short after one of its two cells, written by another
    # version: resuming it would add records of other numerics, which
    # replay would refuse with the old ones, so nothing is written
    run_study(tiny_cfg(tmp_path))
    records = tmp_path / "records.csv"
    # the header and the first cell
    records.write_text("".join(records.read_text().splitlines(True)[:2]))
    path = tmp_path / "manifest.json"
    manifest = json.loads(path.read_text())
    path.write_text(json.dumps(dict(manifest, version="0.9.0")))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    with pytest.raises(ConfigError, match="version 0.9.0"):
        run_study(tiny_cfg(tmp_path))
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert len(load_records(records)) == 1


def test_resume_ignores_settings_the_study_does_not_read(tmp_path):
    # Landau directories written with the old n_points/periods defaults
    # of 8192/512 resume and replay
    cfg = _small("landau-sweep", tmp_path)
    run_study(cfg)
    path = tmp_path / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["config"].update(n_points=8192, periods=512)
    path.write_text(json.dumps(manifest))
    run_study(cfg)
    assert len(load_records(tmp_path / "records.csv")) == 1
    assert replay(str(tmp_path))["ok"]
    with pytest.raises(ConfigError, match="different configuration"):
        run_study(dataclasses.replace(cfg, amplitude=0.3))


@pytest.mark.parametrize("study", ["landau-sweep", "quintic-suite"])
def test_landau_studies_reject_amplitudes_the_fit_refuses(tmp_path, study):
    # the fit's ValueError would escape a cell, which records only a
    # RuntimeError, so the study refuses such an amplitude at config time
    with pytest.raises(ConfigError, match="amplitude"):
        StudyConfig.for_study(study, out_dir=str(tmp_path), amplitude=0.6)
    assert StudyConfig.for_study(study, out_dir=str(tmp_path)).amplitude == 0.2


def test_landau_sweep_fits_at_the_configured_amplitude(tmp_path):
    run_study(StudyConfig.for_study("landau-sweep", out_dir=str(tmp_path / "a"),
                                    nu_list=(0.5,), amplitude=0.3))
    (rec,) = load_records(tmp_path / "a" / "records.csv")
    fit = estimate_landau_coefficient(0.1, 0.5, amplitude=0.3, n_points=8192)
    assert rec.diagnostics_repr()["c3"] == fit.c3.hex()
    r = _cli("study", "--study", "landau-sweep", "--amplitude", "0.6",
             "--out", str(tmp_path / "b"))
    assert r.returncode == 2, r.stderr
    assert not (tmp_path / "b" / "manifest.json").exists()


def test_config_roundtrips_through_public_dict(tmp_path):
    cfg = tiny_cfg(tmp_path)
    again = StudyConfig.from_public_dict(cfg.public_dict())
    assert again == cfg


def test_parse_config_file(tmp_path):
    path = tmp_path / "study.cfg"
    path.write_text(
        "# comment\n"
        "study = theorem2\n"
        "eps = 0.2, 0.1\n"
        "seeds = 3\n"
        "dt = 0.002\n"
        "nu_list = 0.5, 0.9\n"
        "n = 512\n"
        "t-end = 0.5\n"
        "offband = 0.25\n"
    )
    kw = parse_config_file(path)
    assert kw == {"study": "theorem2", "eps_list": (0.2, 0.1), "n_seeds": 3,
                  "dt": 0.002, "nu_list": (0.5, 0.9), "n_points": 512,
                  "t_end": 0.5, "offband": 0.25}

    bad = tmp_path / "bad.cfg"
    bad.write_text("frobnicate = 1\n")
    with pytest.raises(ConfigError):
        parse_config_file(bad)
    bad.write_text("dt = banana\n")
    with pytest.raises(ConfigError):
        parse_config_file(bad)


def test_record_roundtrip_is_bit_exact(tmp_path):
    rec = StudyRecord(study="theorem2", params={"eps": 0.2, "nu": 0.5},
                      seed=1, diagnostics={"sup_diff": 0.1234567890123456789},
                      status="ok", eps_effective=0.2, wall_time=0.5)
    path = tmp_path / "records.csv"
    append_record(path, rec)
    append_record(path, rec)
    loaded = load_records(path)
    assert len(loaded) == 2
    assert loaded[0].key == rec.key
    assert loaded[0].diagnostics["sup_diff"] == rec.diagnostics["sup_diff"]


def _averaging_records(slope_p0, slope_p2,
                       eps_values=(0.2, 0.14, 0.1, 0.07, 0.05)):
    """Synthetic averaging-study records whose medians follow eps^slope."""
    return [
        StudyRecord(study="averaging", params={"eps": eps, "nu": 0.5},
                    seed=0, diagnostics={"res_p0": 0.3 * eps ** slope_p0,
                                         "res_p2": 0.2 * eps ** slope_p2},
                    status="ok", eps_effective=eps, wall_time=0.0)
        for eps in eps_values
    ]


@pytest.mark.parametrize("intensity, slopes, expected", [
    # without noise both residuals must decay at least like eps^1.7
    (0.0, (2.2, 2.3), {"res_p0_slope_above_1.7": True,
                       "res_p2_slope_above_1.7": True}),
    (0.0, (1.0, 2.3), {"res_p0_slope_above_1.7": False,
                       "res_p2_slope_above_1.7": True}),
    (0.0, (2.2, 0.5), {"res_p0_slope_above_1.7": True,
                       "res_p2_slope_above_1.7": False}),
    # under noise only res_p2 is gated, to eps^{1/2} within 0.3
    (0.07, (0.76, 0.53), {"res_p2_slope_in_window": True}),
    (0.07, (0.76, 1.0), {"res_p2_slope_in_window": False}),
    (0.07, (0.76, 0.1), {"res_p2_slope_in_window": False}),
    # two eps values give no slope: the gate is not evaluated (None), not
    # failed
    (0.07, (0.76, 0.53, (0.2, 0.1)), {"res_p2_slope_in_window": None}),
])
def test_averaging_gates_follow_residual_laws(tmp_path, intensity, slopes,
                                              expected):
    cfg = StudyConfig.for_study("averaging", out_dir=str(tmp_path),
                                intensity=intensity)
    summary = summarize(cfg, _averaging_records(*slopes))
    measured = len(slopes) == 2
    for diag, slope in zip(("res_p0", "res_p2"), slopes):
        fitted = summary["fits"][diag]["slope"]
        assert fitted == (pytest.approx(slope) if measured else None)
    evaluated = {k: v for k, v in expected.items() if v is not None}
    assert summary["acceptance"] == evaluated
    assert summary["gates_not_evaluated"] == [
        k for k, v in expected.items() if v is None]
    assert summary["ok"] == all(evaluated.values())


def test_tiny_study_runs_and_resumes(tmp_path):
    cfg = tiny_cfg(tmp_path / "out")
    summary = run_study(cfg)
    recs = load_records(tmp_path / "out" / "records.csv")
    assert len(recs) == 2
    assert all(r.status == "ok" for r in recs)
    assert "fits" in summary
    # a second invocation adds no rows (all cells already done)
    run_study(cfg)
    assert len(load_records(tmp_path / "out" / "records.csv")) == 2


@pytest.mark.parametrize("study", ["theorem2", "attractivity"])
def test_blown_up_cell_is_an_error_not_a_result(tmp_path, study):
    # dt = 0.05 with amplitude 5 blows up within 0.5 time units
    cfg = StudyConfig.for_study(study, out_dir=str(tmp_path), **dict(
        TINY, n_seeds=1, dt=0.05, amplitude=5.0, t_end=0.5))
    summary = run_study(cfg)
    (rec,) = load_records(tmp_path / "records.csv")
    assert rec.status == "error: run ended with status 'blowup_stopped'"
    assert rec.diagnostics == {}
    assert summary["n_failed"] == 1


def test_resumed_study_counts_each_cell_once(tmp_path):
    # a re-run retries the failed cells and appends their new records; the
    # summary reads only the last record of each cell
    cfg = StudyConfig.for_study("theorem2", out_dir=str(tmp_path), **dict(
        TINY, dt=0.05, amplitude=5.0, t_end=0.5))
    n_cells = len(study_cells(cfg))
    run_study(cfg)
    summary = run_study(cfg)
    assert len(load_records(tmp_path / "records.csv")) == 2 * n_cells
    assert summary["n_records"] == summary["n_failed"] == n_cells
    saved = json.loads((tmp_path / "summary.json").read_text())
    assert saved["n_records"] == n_cells


@pytest.mark.parametrize("study", ["attractivity", "theorem2"])
def test_config_without_a_time_step_is_rejected(tmp_path, study):
    # t_end < dt/2 rounds to 0 steps: rejected before anything is written
    with pytest.raises(ConfigError, match="no time step"):
        StudyConfig.for_study(study, out_dir=str(tmp_path),
                              **dict(TINY, t_end=4e-4))
    out = tmp_path / "cli"
    r = _cli("study", "--study", study, "--eps", "0.2", "--seeds", "1",
             "--n", "512", "--periods", "32", "--t-end", "4e-4",
             "--out", str(out))
    assert r.returncode == 2, r.stderr
    assert "no time step" in r.stderr
    assert not (out / "manifest.json").exists()


def test_runs_that_blow_up_mid_block_leave_the_noise_worker_reusable(tmp_path):
    def diagnostics(name):
        run_study(StudyConfig.for_study("attractivity",
                                        out_dir=str(tmp_path / name), **TINY))
        return {r.key: r.diagnostics_repr()
                for r in load_records(tmp_path / name / "records.csv")}

    before = diagnostics("before")
    threads = threading.active_count()
    grid = Grid.for_carrier(0.2, 512, periods=32)
    v0 = modulated_carrier_ic(grid, np.random.default_rng(0), amplitude=5.0)
    p = ModelParams(nu=0.5, dt=0.05, t_end=2.0)
    for seed in range(5):
        run = simulate(v0, p, NoiseConfig(seed=seed, intensity=0.1))
        # the failing step lies inside a block, with the next one drawn ahead
        failed = round(run.time / p.dt) + 1
        assert run.status == "blowup_stopped"
        assert failed % BLOCK and failed + BLOCK <= 40
    assert threading.active_count() == threads
    assert diagnostics("after") == before


def test_forked_child_draws_noise_on_its_own_worker(tmp_path):
    # the parent's noise worker thread is not copied into a forked child
    cfg = StudyConfig.for_study("attractivity", out_dir=str(tmp_path), **TINY)
    cell = (cfg, [Grid.for_carrier(0.2, cfg.n_points, periods=cfg.periods)],
            [({"eps": 0.2, "nu": 0.5}, 0)])
    run = STUDIES["attractivity"].run
    expect = run(*cell)
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=lambda: send.send(run(*cell)))
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
    assert child.exitcode == 0
    assert recv.recv() == expect


class _FirstStep(Exception):
    """Raised by the patched SHStepper.step_spec on its first call."""


def test_every_solve_reaches_shstepper_step_spec(tmp_path, monkeypatch):
    # bench/setup_probe.py times set-up up to the first SHStepper.step_spec
    # call of each workload's solve, so every solve must make that call.
    def first_step(*args, **kwargs):
        raise _FirstStep

    monkeypatch.setattr(SHStepper, "step_spec", first_step)
    grid = Grid.for_carrier(0.2, 512, periods=32)
    v0 = modulated_carrier_ic(grid, np.random.default_rng(0), amplitude=0.3)
    p = ModelParams(nu=0.5, dt=1e-3, t_end=0.01)
    solves = [
        lambda: simulate(v0, p),
        lambda: simulate_paired([v0], [p],
                                [NoiseConfig(seed=1, intensity=0.07)],
                                delta=0.125),
        lambda: estimate_landau_coefficient(0.2, 0.5, n_points=512,
                                            fit_window=0.5),
        lambda: run_study(tiny_cfg(tmp_path / "out")),
    ]
    for solve in solves:
        with pytest.raises(_FirstStep):
            solve()


#: attractivity cells at an unstable step and amplitude: their batches mix
#: cells that blow up with cells that complete
MIXED = dict(TINY, eps_list=(0.2, 0.14), n_seeds=4, dt=0.05, t_end=0.5,
             amplitude=3.6)


def _columns(out_dir):
    """The rows of a study's ``records.csv`` in the order of their keys,
    each without its ``wall_time``."""
    with open(out_dir / "records.csv", newline="") as fh:
        rows = sorted(csv.DictReader(fh), key=lambda row: row["key"])
    return [{k: v for k, v in row.items() if k != "wall_time"} for row in rows]


#: a config of each study that makes more than one batch
BATCHES = {"theorem2": dict(TINY, n_seeds=6), "attractivity": MIXED,
           "averaging": dict(TINY, n_seeds=6),
           "gl-limit": dict(TINY, n_seeds=6),
           "landau-sweep": dict(SMALL["landau-sweep"], nu_list=(0.0, 0.5)),
           "quintic-suite": SMALL["quintic-suite"]}


@pytest.mark.parametrize("study", STUDY_NAMES)
def test_study_is_deterministic_across_thread_counts(tmp_path, monkeypatch,
                                                      study):
    # One worker process or two write the same records and summary, whose
    # cells run in batches: the paired seeds of one eps, and attractivity
    # batches in which some rows blow up.  The cells must raise no warning
    # (a row that blew up is frozen at its last finite step, not stepped
    # into overflow) and leave the warning filters as they found them, as
    # the serial run shows: a worker process keeps its warnings.
    cfg = {threads: StudyConfig.for_study(
        study, out_dir=str(tmp_path / str(threads)), threads=threads,
        **BATCHES[study]) for threads in (1, 2)}
    assert len(study_batches(cfg[2], study_cells(cfg[2]))) > 1
    # two real worker processes, even where one CPU would cap them
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        filters = list(warnings.filters)
        run_study(cfg[1])
        assert warnings.filters == filters
    assert [str(w.message) for w in caught] == []
    run_study(cfg[2])
    assert _columns(cfg[1].out_dir) == _columns(cfg[2].out_dir)
    assert ((cfg[1].out_dir / "summary.json").read_bytes()
            == (cfg[2].out_dir / "summary.json").read_bytes())
    # the workers finish their batches in any order
    records = load_records(cfg[1].out_dir / "records.csv")
    assert (json.dumps(summarize(cfg[1], records[::-1]))
            == json.dumps(summarize(cfg[1], records)))
    if study == "attractivity":
        assert {row["status"] for row in _columns(cfg[1].out_dir)} == {
            "ok", "error: run ended with status 'blowup_stopped'"}


class _InlinePool:
    """A stand-in for ``ProcessPoolExecutor`` that records the
    ``max_workers`` of each pool made and runs every batch as it is
    submitted, in this process: no process starts."""

    made = []

    def __init__(self, max_workers, mp_context=None):
        self.made.append(max_workers)

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, cancel_futures=False):
        pass


@pytest.mark.parametrize("threads, cpus, workers", [
    (64, 2, 2), (64, 8, 3), (2, 8, 2), (64, 1, None), (1, 8, None)])
def test_study_starts_no_more_workers_than_batches_or_cpus(
        tmp_path, monkeypatch, threads, cpus, workers):
    # threads=64 over 3 batches starts as many processes as the CPUs allow
    # and the batches need, and none (a serial run) when that is one; the
    # records are those of the serial run
    monkeypatch.setattr(_InlinePool, "made", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        _InlinePool)
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)), raising=False)
    cfg = {k: StudyConfig.for_study("theorem2", out_dir=str(tmp_path / k),
                                    threads=t, **dict(TINY, n_seeds=11))
           for k, t in (("serial", 1), ("pool", threads))}
    assert len(study_batches(cfg["pool"], study_cells(cfg["pool"]))) == 3
    run_study(cfg["pool"])
    assert _InlinePool.made == ([] if workers is None else [workers])
    run_study(cfg["serial"])
    assert _columns(cfg["pool"].out_dir) == _columns(cfg["serial"].out_dir)


@pytest.mark.parametrize("count, workers", [(2, 2), (None, None)])
def test_study_without_an_affinity_set_counts_the_cpus(
        tmp_path, monkeypatch, count, workers):
    # where the platform has no affinity set the CPU count caps the
    # workers, and an unknown count runs the study in this process
    monkeypatch.setattr(_InlinePool, "made", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        _InlinePool)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    run_study(StudyConfig.for_study("theorem2", out_dir=str(tmp_path),
                                    threads=64, **dict(TINY, n_seeds=11)))
    assert _InlinePool.made == ([] if workers is None else [workers])


def test_quintic_suite_repeats_across_worker_processes_and_blas_threads(
        tmp_path):
    # the Landau fits step the 16-point grid by BLAS matrix products: one
    # worker process with one BLAS thread and two with two write the same
    # hex records
    script = """
import sys
from shmod import StudyConfig, run_study
run_study(StudyConfig.for_study("quintic-suite", out_dir=sys.argv[1],
                                threads=int(sys.argv[2]), eps_list=(0.2,),
                                dt=4e-3))
"""
    outs = []
    for threads in (1, 2):
        out = tmp_path / str(threads)
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
        subprocess.run([sys.executable, "-c", script, str(out), str(threads)],
                       check=True, env=env, timeout=300)
        outs.append(_columns(out))
    assert outs[0] == outs[1]
    assert len(outs[0]) == 2


#: paired cells of three eps, two seeds each: batches of 3 that span eps
PAIRED_MIXED = dict(TINY, eps_list=(0.2, 0.14, 0.1))

#: paired cells of two eps whose integrands need averaging grids of 512 and
#: 256 points
TWO_GRIDS = dict(TINY, eps_list=(0.2, 0.07), n_points=576, periods=36)


@pytest.mark.parametrize("study, settings", [
    ("theorem2", dict(TINY, n_seeds=3)), ("theorem2", PAIRED_MIXED),
    ("theorem2", TWO_GRIDS),
    ("gl-limit", TINY), ("gl-limit", PAIRED_MIXED),
    ("averaging", dict(TINY, intensity=0.0)),
    ("averaging", dict(PAIRED_MIXED, intensity=0.0)),
    ("attractivity", MIXED)],
    ids=["theorem2", "theorem2-mixed-eps", "theorem2-two-averaging-grids",
         "gl-limit", "gl-limit-mixed-eps",
         "averaging", "averaging-mixed-eps", "attractivity-blowups"])
def test_batched_records_are_those_of_each_cell_alone(tmp_path, study,
                                                      settings):
    # every record of a batch, a blown-up cell's error included, is the
    # record of its cell run as a batch of one, as replay runs it
    cfg = StudyConfig.for_study(study, out_dir=str(tmp_path), **settings)
    run_study(cfg)
    records = load_records(tmp_path / "records.csv")
    batches = study_batches(cfg, study_cells(cfg))
    assert max(map(len, batches)) > 1
    if settings["eps_list"] == PAIRED_MIXED["eps_list"]:
        assert all(len({p["eps"] for p, _ in batch}) > 1 for batch in batches)
    for r in records:
        (alone,) = _run_batch(cfg, [(r.params, r.seed)])
        assert ((alone.status, alone.diagnostics_repr())
                == (r.status, r.diagnostics_repr()))


def test_a_batch_shares_its_wall_time_between_its_cells(tmp_path):
    cfg = tiny_cfg(tmp_path, n_seeds=3)
    run_study(cfg)
    records = load_records(tmp_path / "records.csv")
    assert len(records) == 3 and len({r.wall_time for r in records}) == 1


def test_study_batches_group_cells_by_stepper_shape(tmp_path):
    # an SH-only study batches any cells, a paired study the cells of one
    # nu, whatever their eps, a Landau study none; in the order of the
    # cells, each group in the fewest batches of at most the study's
    # max_batch, of sizes as equal as possible; paired cells of one nu
    # split by their averaging grid
    def sizes(study, **settings):
        cfg = StudyConfig.for_study(study, out_dir=str(tmp_path), **settings)
        cells = study_cells(cfg)
        batches = study_batches(cfg, cells)
        assert [cell for batch in batches for cell in batch] == cells
        assert all(0 < len(batch) <= STUDIES[study].max_batch
                   for batch in batches)
        if study in ("theorem2", "gl-limit"):
            assert all(len({p["nu"] for p, _ in batch}) == 1
                       for batch in batches)
        return [len(batch) for batch in batches]

    assert sizes("attractivity", n_seeds=8) == [4] * 10
    assert sizes("attractivity", n_seeds=2) == [4, 3, 3]
    # 15 cells of each nu, over three eps
    assert sizes("theorem2", n_seeds=5, nu_list=(0.5, 0.6),
                 eps_list=(0.2, 0.1, 0.05)) == [5, 5, 5] * 2
    # 16 cells of each nu, over four eps
    assert sizes("theorem2", n_seeds=4, nu_list=(0.5, 0.6),
                 eps_list=(0.2, 0.14, 0.1, 0.05)) == [4, 4, 4, 4] * 2
    assert sizes("gl-limit", n_seeds=1) == [5]
    assert sizes("gl-limit", n_seeds=2) == [5, 5]
    # on 36 carrier periods of 16 points the integrands of eps 0.2 .. 0.1
    # need 512 points, those of 0.07 and 0.05 need 256
    assert sizes("theorem2", n_seeds=1, n_points=576, periods=36) == [3, 2]
    assert sizes("landau-sweep") == [1] * 5


def test_resume_runs_the_rest_of_a_batch_as_a_smaller_batch(tmp_path,
                                                            monkeypatch):
    # a study stopped with seeds 0 and 2 of a batch recorded ok runs seed 1
    # alone on resume, with the diagnostics of the whole batch's run
    settings = dict(TINY, n_seeds=3)
    run_study(StudyConfig.for_study("theorem2", out_dir=str(tmp_path / "all"),
                                    **settings))
    records = load_records(tmp_path / "all" / "records.csv")
    part = tmp_path / "part"
    cfg = StudyConfig.for_study("theorem2", out_dir=str(part), **settings)
    part.mkdir()
    for r in records:
        if r.seed != 1:
            append_record(part / "records.csv", r)
    batches = []

    def run_batch(cfg, cells, run=studies._run_batch):
        batches.append([seed for _, seed in cells])
        return run(cfg, cells)

    monkeypatch.setattr(studies, "_run_batch", run_batch)
    run_study(cfg)
    assert batches == [[1]]
    resumed = {r.key: r.diagnostics_repr()
               for r in load_records(part / "records.csv")}
    assert resumed == {r.key: r.diagnostics_repr() for r in records}


def test_replay_verifies_and_detects_tampering(tmp_path):
    out = tmp_path / "out"
    cfg = tiny_cfg(out, n_seeds=1)
    run_study(cfg)
    result = replay(str(out))
    assert result["ok"] and result["mismatches"] == []
    manifest = json.loads((out / "manifest.json").read_text())
    # 0.6.0 records predate the one-period Landau fit
    for version in ("0.0", "0.6.0"):
        manifest["version"] = version
        (out / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ReplayError):
            replay(str(out))


@pytest.mark.parametrize("threads, n_seeds, batches", [(1, 3, 1), (2, 6, 2)])
def test_replay_reports_exactly_the_altered_diagnostic(tmp_path, threads,
                                                       n_seeds, batches):
    # replay runs the cells in the batches and worker processes of the
    # study; one ulp more on one diagnostic of one record is that record's
    # mismatch
    out = tmp_path / "out"
    cfg = tiny_cfg(out, n_seeds=n_seeds, threads=threads)
    run_study(cfg)
    assert len(study_batches(cfg, study_cells(cfg))) == batches
    assert replay(str(out)) == {"replayed": n_seeds, "mismatches": [],
                                "ok": True}
    path = out / "records.csv"
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    diags = json.loads(rows[1]["diagnostics"])
    diags["res_p0"] = np.nextafter(float.fromhex(diags["res_p0"]),
                                   np.inf).hex()
    rows[1]["diagnostics"] = json.dumps(diags, sort_keys=True)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    altered = rows[1]["key"]
    assert replay(str(out)) == {"replayed": n_seeds,
                                "mismatches": [altered], "ok": False}
    # --limit counts records
    assert replay(str(out), limit=1) == {"replayed": 1, "mismatches": [],
                                         "ok": True}
    r = _cli("replay", "--out", str(out))
    assert r.returncode == 3, r.stderr
    assert r.stdout.strip() == f"replayed={n_seeds} mismatches=1"
    assert altered in r.stderr


@pytest.mark.parametrize("limit", [0, -1])
def test_replay_refuses_a_limit_below_one_before_running_a_cell(
        tmp_path, monkeypatch, limit):
    out = tmp_path / "out"
    run_study(tiny_cfg(out, n_seeds=3))

    def no_cells(cfg, cells):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(studies, "_run_batches", no_cells)
    with pytest.raises(ConfigError, match="limit"):
        replay(str(out), limit=limit)
    r = _cli("replay", "--out", str(out), "--limit", str(limit))
    assert r.returncode == 2, r.stderr
    assert r.stdout == "" and "limit" in r.stderr


@pytest.mark.parametrize("moved, threads", [(False, 2), (True, 1)])
def test_study_resumes_after_a_move_or_under_other_threads(tmp_path, moved,
                                                            threads):
    # neither where a study lives nor how many worker processes run it
    # shapes a record: a study stopped after 3 of its 8 cells runs the
    # other 5, two batches, to the records and summary of one run
    run_study(tiny_cfg(tmp_path / "all", n_seeds=8))
    old = tmp_path / "old"
    old.mkdir()
    shutil.copy(tmp_path / "all" / "manifest.json", old)
    for record in load_records(tmp_path / "all" / "records.csv")[:3]:
        append_record(old / "records.csv", record)
    out = tmp_path / ("new" if moved else "old")
    if moved:
        shutil.copytree(old, out)
    run_study(tiny_cfg(out, n_seeds=8, threads=threads))
    assert len(_columns(out)) == 8
    assert _columns(out) == _columns(tmp_path / "all")
    assert ((out / "summary.json").read_bytes()
            == (tmp_path / "all" / "summary.json").read_bytes())


def test_existing_output_with_other_config_is_rejected(tmp_path):
    out = tmp_path / "out"
    run_study(tiny_cfg(out, n_seeds=1))
    with pytest.raises(ConfigError):
        run_study(tiny_cfg(out, n_seeds=1, dt=2e-3))


def test_plotdata_rows_match_ladder(tmp_path):
    out = tmp_path / "out"
    cfg = tiny_cfg(out, eps_list=(0.2, 0.1), n_seeds=1)
    run_study(cfg)
    emit_plotdata(str(out))
    lines = (out / "plot_slope_sup_diff.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 2  # header + one row per eps


def _cli(*args, env=None):
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run([sys.executable, "-m", "shmod.cli", *args],
                          capture_output=True, text=True, env=full_env)


def test_cli_exit_codes(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("study = nonexistent\n")
    r = _cli("study", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert r.returncode == 2

    r = _cli("simulate-sh", "--eps", "0.2", "--out", str(tmp_path / "sim"),
             "--dt", "1e-3", "--t-end", "0.01", "--delta", "0.125")
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "sim" / "final.field").exists()
    assert (tmp_path / "sim" / "kernel_P1.csv").exists()

    # the default delta keeps P1 and P2 apart at eps 0.2
    r = _cli("simulate-gl", "--n", "512", "--periods", "32", "--eps", "0.2",
             "--t-end", "0.05", "--out", str(tmp_path / "gl"))
    assert r.returncode == 0, r.stderr

    # two eps values give no slope: the gates are reported, not failed
    r = _cli("study", "--study", "averaging", "--eps", "0.2,0.1",
             "--seeds", "1", "--n", "512", "--periods", "32",
             "--t-end", "0.02", "--delta", "0.125",
             "--out", str(tmp_path / "avg"))
    assert r.returncode == 0, r.stderr
    assert "res_p2_slope_in_window" in r.stderr

    # a study in which every cell blew up fails, though no gate was evaluated
    r = _cli("study", "--study", "theorem2", "--eps", "0.2", "--seeds", "1",
             "--n", "512", "--periods", "32", "--dt", "0.05",
             "--amplitude", "5", "--t-end", "0.5", "--delta", "0.125",
             "--out", str(tmp_path / "blown"))
    assert r.returncode == 3, r.stderr


def test_cli_blowup_reports_the_last_completed_step(tmp_path):
    # the guard trips on step 3; the CLI prints and writes step 2, not the
    # last stride-10 snapshot, which was the initial field
    out = tmp_path / "sh"
    r = _cli("simulate-sh", "--n", "512", "--periods", "32", "--eps", "0.2",
             "--t-end", "2", "--dt", "0.05", "--amplitude", "5",
             "--nu", "0.5", "--intensity", "0.1", "--out", str(out))
    assert r.stdout.startswith("status=blowup_stopped T=0.1 sup=643.418 "), \
        r.stderr
    # a blown-up single run exits 3, as a study whose cells all blew up
    assert r.returncode == 3
    grid = Grid.for_carrier(0.2, 512, periods=32)
    cfg = NoiseConfig(seed=0, intensity=0.1)
    v0 = modulated_carrier_ic(grid, cfg.substream(1).make_rng(), amplitude=5.0)
    ref = simulate(v0, ModelParams(nu=0.5, dt=0.05, t_end=0.1), cfg)
    assert ref.status == "completed"
    written = read_field(out / "final.field")
    assert written.values.tobytes() == ref.final.values.tobytes()

    r = _cli("simulate-gl", "--n", "128", "--periods", "8", "--eps", "0.1",
             "--t-end", "1", "--dt", "1e-4", "--amplitude", "1.5",
             "--nu", "1.2", "--intensity", "0", "--out", str(tmp_path / "gl"))
    assert r.stdout.startswith("status=blowup_stopped T=0.2142 "), r.stderr
    assert r.returncode == 3


def test_single_run_without_a_time_step_is_rejected(tmp_path):
    # t_end < dt/2 rounds to 0 steps: an error, not a completed run at T=0
    with pytest.raises(ValueError, match="no time step"):
        ModelParams(dt=1e-3, t_end=4e-4)
    grid = Grid.for_carrier(0.2, 512, periods=32)
    A0 = ComplexField(grid, np.zeros(grid.n_points, dtype=complex))
    with pytest.raises(ValueError, match="no time step"):
        simulate_gl(A0, gl_coefficients(ModelParams(nu=0.5)), dt=1e-3,
                    t_end=4e-4)
    for command in ("simulate-sh", "simulate-gl"):
        out = tmp_path / command
        r = _cli(command, "--n", "512", "--periods", "32", "--eps", "0.2",
                 "--t-end", "1e-4", "--dt", "1e-3", "--out", str(out))
        assert r.returncode == 2, r.stderr
        assert "no time step" in r.stderr
        assert not out.exists()


def test_cli_flags_override_config_file_values(tmp_path):
    # study, out and a numeric key set in both places: the flags win
    cfg = tmp_path / "f.cfg"
    cfg.write_text(f"study = attractivity\nout = {tmp_path / 'file_out'}\n"
                   "seeds = 3\neps = 0.2\nn_points = 512\nperiods = 32\n"
                   "t_end = 0.02\n")
    r = _cli("study", "--config", str(cfg), "--study", "theorem2",
             "--out", str(tmp_path / "flag_out"), "--seeds", "1")
    assert r.returncode == 0, r.stderr
    assert not (tmp_path / "file_out").exists()
    config = json.loads(
        (tmp_path / "flag_out" / "manifest.json").read_text())["config"]
    assert (config["study"], config["n_seeds"]) == ("theorem2", 1)
    assert (config["n_points"], config["t_end"]) == (512, 0.02)


def test_single_run_commands_reject_value_lists(tmp_path):
    # a single run has one eps and one nu; a comma list is not cut to its
    # first value
    for command in ("simulate-sh", "simulate-gl"):
        for flags in (("--eps", "0.2,0.1"), ("--eps", "0.2", "--nu", "0.5,0.9")):
            r = _cli(command, *flags, "--n", "256", "--periods", "16",
                     "--t-end", "0.002", "--out", str(tmp_path / command))
            assert r.returncode == 2, (command, flags, r.stderr)
            assert "config error" in r.stderr
            assert not (tmp_path / command).exists()


def test_cli_spectrum_reads_field(tmp_path):
    sim = tmp_path / "sim"
    r = _cli("simulate-sh", "--eps", "0.2", "--out", str(sim),
             "--dt", "1e-3", "--t-end", "0.01", "--delta", "0.125")
    assert r.returncode == 0, r.stderr
    r = _cli("spectrum", "--field", str(sim / "final.field"))
    assert r.returncode == 0, r.stderr
    csv_path = sim / "final.spectrum.csv"
    assert csv_path.exists()
    rows = csv_path.read_text().strip().splitlines()[1:]
    data = np.array([[float(v) for v in row.split(",")] for row in rows])
    k, mag = data[:, 0], data[:, 1]
    # the spectrum must concentrate at the carrier wavenumber 1/eps
    peak = abs(k[np.argmax(mag)])
    assert peak == pytest.approx(1.0 / 0.2, rel=0.05)


def test_cli_uses_output_env_root(tmp_path):
    env = {"SHMOD_OUT": str(tmp_path)}
    r = _cli("simulate-sh", "--eps", "0.2",
             "--dt", "1e-3", "--t-end", "0.01", "--delta", "0.125", env=env)
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "simulate-sh" / "final.field").exists()


def test_record_key_is_stable():
    k1 = record_key("theorem2", {"eps": 0.2, "nu": 0.5}, 3)
    k2 = record_key("theorem2", {"nu": 0.5, "eps": 0.2}, 3)
    assert k1 == k2
    assert "seed=3" in k1
