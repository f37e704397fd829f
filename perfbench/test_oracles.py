"""Self-check of the benchmark harness: each oracle must reject a corrupted
result, and tracing must leave the package as it found it.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import contextlib
import dataclasses
import io
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from skyframes import causality as ca  # noqa: E402
from skyframes import cli  # noqa: E402
from skyframes import frames as fr  # noqa: E402
from skyframes import manifold as mf  # noqa: E402
from skyframes import minkowski as mk  # noqa: E402
from skyframes import sky, verify  # noqa: E402


@pytest.fixture(scope="module")
def image():
    spec = fr.FrameSpec(metric=mf.MetricSpec.flrw(p=2 / 3), target=fr.Singularity())
    event = np.array([1.0, 0.5, -0.25, 0.0])
    img = fr.sky_image(spec, event, sky.sample_sky(40, scheme="random", seed=3))
    return img, event, float(wl.eta_power(2 / 3)(1.0))


def test_sky_image_oracle_accepts_the_true_image(image):
    img, event, radius = image
    assert wl.sky_image_mismatch(img, event, radius, wl.CLOSED_RADIUS_TOL) is None


def test_sky_image_oracle_rejects_a_shifted_m_point(image):
    img, event, radius = image
    shifted = img.m_points.copy()
    shifted[7, 1] += 1e-3
    bad = dataclasses.replace(img, m_points=shifted)
    assert wl.sky_image_mismatch(bad, event, radius, wl.NUMERIC_RADIUS_TOL)


def test_sky_image_oracle_rejects_lost_rank_and_status(image):
    img, event, radius = image
    ranks = img.ranks.copy()
    ranks[0] = 1
    assert wl.sky_image_mismatch(
        dataclasses.replace(img, ranks=ranks), event, radius, 1.0
    )
    status = ("no_intersection",) + img.status[1:]
    assert wl.sky_image_mismatch(
        dataclasses.replace(img, status=status), event, radius, 1.0
    )


def test_pair_oracle_rejects_a_flipped_verdict():
    op = wl._pairs_op(np.random.default_rng(5), n=2000)
    codes = op.call()
    assert op.check(codes) is None
    flipped = codes.copy()
    k = int(np.flatnonzero(flipped == 1)[0])
    flipped[k] = 2
    assert op.check(flipped)


def test_ball_oracle_rejects_a_flipped_verdict():
    op = wl._ball_op(np.random.default_rng(6), n=200)
    got = op.call()
    assert op.check(got) is None
    got[17] = not got[17]
    assert op.check(got)


def test_mesh_oracle_rejects_a_flipped_verdict():
    """The drawn pairs clear the null boundary by MESH_MARGIN both ways, and
    the oracle takes the exact verdict and rejects its negation."""
    ops = wl.build_causal_mesh(11)
    for (kind, _, _, _, inside), op in zip(wl.CAUSAL_MESH, ops):
        assert op.check(inside) is None, kind
        assert op.check(not inside), kind


def test_report_oracle_rejects_a_one_byte_difference(tmp_path):
    out = tmp_path / "report.json"
    argv = ["verify", "--suite", "twistor", "--seed", "4", "--n", "6", "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    text = out.read_text()
    assert wl.report_mismatch((code, text), None) is None
    assert wl.report_mismatch((code, text), text) is None
    k = len(text) // 2
    changed = text[:k] + ("0" if text[k] != "0" else "1") + text[k + 1 :]
    assert wl.report_mismatch((code, changed), text)
    assert wl.report_mismatch((1, text), None)


def test_tracer_records_nested_spans_and_restores_the_package():
    originals = (verify.sample_sky, sky.sample_sky, mf.MetricSpec.metric_diag)
    spec = fr.FrameSpec(metric=mf.MetricSpec.flrw(p=0.5), target=fr.Singularity())
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert verify.sample_sky is sky.sample_sky is not originals[1]
        tracer.enabled = True
        tracer.op = 0
        ca.in_causal_past(spec, [0.5, 0, 0, 0], [1.0, 0, 0, 0])
        mk.causal_compare_batch(np.zeros((3, 4)), np.ones((3, 4)))
        tracer.enabled = False
    finally:
        tracer.restore()
    assert (verify.sample_sky, sky.sample_sky, mf.MetricSpec.metric_diag) == originals
    own = tracer.self_times()
    dur = np.array(tracer.end) - np.array(tracer.start)
    assert np.all(own <= dur + 1e-12) and np.all(own > -1e-9)
    m = tracer.metrics(cycles=1, overhead_frac=0.0)
    assert list(m) == tracing.metric_names()
    assert m["causality.calls"][0] >= 3  # in_causal_past + two analytic_region
    assert m["manifold.conformal_time_calls"][0] == 2
    assert m["minkowski.pairs"][0] == 3


@pytest.mark.xfail(
    strict=True,
    reason="a(t) expression traced to the singularity: finite-difference a'(t) "
    "evaluates a at t < 0 and every ray is lost",
)
def test_known_defect_expression_scale_factor_to_the_singularity():
    """When this passes, move KNOWN_DEFECT into the sky_numeric cycle."""
    op = wl.sky_numeric_op(np.random.default_rng(0), wl.KNOWN_DEFECT)
    with np.errstate(invalid="ignore"):
        image = op.call()
    assert op.check(image) is None
