"""Output checks: the oracles agree with the program, and failures count.

Run with: python3 -m pytest perfbench/tests
"""

import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE),
                os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")]

from conemult import cli, lorentz, multipliers  # noqa: E402

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _small_field(shape=(8, 16, 4), seed=5):
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_cmf_reader_and_writer_agree_with_the_program(tmp_path):
    values = _small_field()
    axes = tuple(multipliers.Axis(4.0, n) for n in values.shape)
    path = str(tmp_path / "f.cmf")
    multipliers.save_field(multipliers.GridField(axes, values), path)
    got, extents, rep = oracles.read_cmf(path)
    assert rep == "space" and extents == [4.0, 4.0, 4.0]
    assert np.array_equal(got, values.astype(np.complex64))

    oracles.write_cmf(path, values, 4.0)
    back = multipliers.load_field(path)
    assert back.rep == "space"
    assert [ax.resolution for ax in back.axes] == list(values.shape)
    assert np.array_equal(back.values, values.astype(np.complex64))


def test_cmf_reader_rejects_a_truncated_payload(tmp_path):
    path = str(tmp_path / "f.cmf")
    oracles.write_cmf(path, _small_field(), 4.0)
    with open(path, "r+b") as fh:
        fh.truncate(os.path.getsize(path) - 8)
    with pytest.raises(ValueError):
        oracles.read_cmf(path)


def test_bochner_riesz_oracle_matches_apply_multiplier():
    values = _small_field((16, 16, 16))
    axes = cli.build_axes(16.0, 16, 3)
    out = multipliers.apply_multiplier(multipliers.GridField(axes, values),
                                       cli.radial_symbol("br:1.0"))
    want = oracles.bochner_riesz_apply(values, 16.0, 1.0)
    assert np.max(np.abs(out.values - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
def test_weak_lorentz_oracle_matches_the_program(p):
    rng = np.random.default_rng(7)
    values = rng.lognormal(size=500)
    values[::5] = values[1]            # ties merge into one constant piece
    weights = rng.uniform(0.1, 2.0, 500)
    got = lorentz.lorentz_quasinorm(lorentz.WeightedSampleSet(values, weights),
                                    lorentz.LorentzParams(p, math.inf))
    assert oracles.weak_lorentz(values, weights, p) == pytest.approx(
        got, rel=1e-13)


def test_a_failing_output_check_counts_in_fail_frac(tmp_path, monkeypatch):
    csv_path = str(tmp_path / "s.csv")
    values, weights = np.array([3.0, 1.0, 2.0]), np.array([1.0, 0.5, 2.0])
    workloads.write_samples_csv(csv_path, values, weights)
    argv = ["lorentz-norm", "--input", csv_path, "--p", "2", "--nu", "inf"]
    good = workloads._check_lorentz(values, weights, 2.0)
    bad = workloads._check_lorentz(values, weights * 2.0, 2.0)

    def tiny(seed, workdir, expected):
        return [workloads.Op("good", argv, good),
                workloads.Op("bad", argv, bad)]

    monkeypatch.setitem(workloads.WORKLOADS, "tiny", tiny)
    monkeypatch.setattr(run, "STATE", str(tmp_path / "state"))
    monkeypatch.setattr(run, "SETUP_STARTS", 1)
    metrics, attempted, failed, record = run.run_workload("tiny", 0, 0.0,
                                                          False)
    assert (attempted, failed, record["fail_frac"]) == (2, 1, 0.5)
    problems = {r["op"]: r["problems"] for r in record["runs"]}
    assert problems["good"] == []
    assert "numpy oracle" in problems["bad"][0]
    assert set(metrics) == {"wall_s", "setup_s", "peak_rss_mib"}
