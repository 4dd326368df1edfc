"""Golden records: diagnostics, as exact hex floats, and statuses of tiny
study cells, a quintic paired batch and a cubic and a quintic Landau fit,
recorded at ``GOLDEN_VERSION``.

A change that moves any of these bits changes the numerics.  Such a change
must bump ``__version__``, so that ``replay`` rejects records written
before it, and re-record the values below together with ``GOLDEN_VERSION``.
"""
from pathlib import Path

import pytest

from shmod import (Grid, ModelParams, NoiseConfig, StudyConfig, __version__,
                   estimate_landau_coefficient, modulated_carrier_ic,
                   run_study, simulate_paired)
from shmod.studies import load_records

GOLDEN_VERSION = "0.13.0"

TINY = dict(eps_list=(0.2,), nu_list=(0.5,), n_seeds=1, n_points=512,
            periods=32, dt=1e-3, t_end=0.05)

PAIRED = {"res_p0": "0x1.6a7a35139e312p-8",
          "res_p2": "0x1.6c7b77c9ce0c1p-11",
          "sup_diff": "0x1.853308b952a8dp-8"}


@pytest.mark.parametrize("study, extra, diagnostics", [
    ("theorem2", {}, PAIRED),
    ("gl-limit", {}, dict(PAIRED, sup_diff_gl="0x1.4706e6638daebp-9")),
    ("averaging", {"intensity": 0.0},
     {"res_p0": "0x1.c318d1d523c34p-8", "res_p2": "0x1.ba44dd5fcda0bp-13",
      "sup_diff": "0x1.8bb483ca369ffp-8"}),
    ("attractivity", {},
     {"offband_ratio": "0x1.46705311ad529p+1",
      "offband_sup": "0x1.0526a8daf10eep-1"}),
])
def test_study_cell_matches_golden_record(tmp_path, study, extra,
                                          diagnostics):
    assert __version__ == GOLDEN_VERSION
    cfg = StudyConfig.for_study(study, out_dir=str(tmp_path),
                                **dict(TINY, **extra))
    run_study(cfg)
    (record,) = load_records(tmp_path / "records.csv")
    assert record.status == "ok"
    assert record.diagnostics_repr() == diagnostics


def test_quintic_fit_matches_golden_record():
    assert __version__ == GOLDEN_VERSION
    fit = estimate_landau_coefficient(0.2, (1.0, 0.0), variant="quintic",
                                      amplitude=0.2, n_points=512, dt=1e-3,
                                      fit_window=0.5)
    assert (fit.c3.hex(), fit.c5.hex(), fit.r_squared.hex()) == (
        "0x1.0f2f7b2ab8513p+2", "-0x1.769e5dbe67cfap+3",
        "0x1.fffffeb8d551cp-1")


def test_quintic_paired_batch_matches_golden_record():
    # the quintic band drift and the quintic GL step, on two rows that
    # differ in nu3
    assert __version__ == GOLDEN_VERSION
    grids = [Grid.for_carrier(0.2, 512, periods=32)] * 2
    cfgs = [NoiseConfig(seed=k, intensity=0.1) for k in range(2)]
    v0s = [modulated_carrier_ic(g, cfg.substream(1).make_rng(), amplitude=0.3)
           for g, cfg in zip(grids, cfgs)]
    params = [ModelParams("quintic", nu2=0.7, nu3=nu3, dt=1e-3, t_end=0.05)
              for nu3 in (0.3, -0.4)]
    result = simulate_paired(v0s, params, cfgs, delta=0.05, with_gl=True)
    assert result.status == ["completed"] * 2
    assert {name: [x.hex() for x in getattr(result, name)]
            for name in ("sup_diff", "res_p0", "res_p2", "sup_diff_gl")} == {
        "sup_diff": ["0x1.3eb5bc308a512p-10", "0x1.f5cb54aa92fb9p-9"],
        "res_p0": ["0x1.2efc9b0b85264p-10", "0x1.743ba2144d892p-9"],
        "res_p2": ["0x1.9744dacb1e71ap-12", "0x1.e96047c830f2ap-12"],
        "sup_diff_gl": ["0x1.58b8de4f3d6d2p-11", "0x1.167dcb1b2390ep-11"]}


def test_cubic_fit_matches_golden_record():
    assert __version__ == GOLDEN_VERSION
    fit = estimate_landau_coefficient(0.2, 0.5, n_points=512, fit_window=0.5)
    assert (fit.c3.hex(), fit.c5.hex(), fit.r_squared.hex()) == (
        "-0x1.f5fee82ee099cp+0", "0x0.0p+0", "0x1.fffbfb16fd149p-1")


def test_package_version_matches_pyproject():
    # a numerics change bumps both, or replay cannot tell old records apart
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == __version__
