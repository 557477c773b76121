import numpy as np
import pytest
from scipy import integrate

from predcomp.seeding import spawn_rng
from predcomp.simulate import WearIntensity, sample_step_series, sample_wear_series


W = WearIntensity(a=120.0, lam=0.01, c=3.0, d=0.02, t2=1200)


def rate(t):
    """W's rate f(t) as the module docstring writes it: the reference that
    ``bin_means`` integrates exactly."""
    return W.a * W.lam * np.exp(-W.lam * t) + W.c + W.d * (t >= W.t2) * (t - W.t2)


def test_t1_from_decay_cutoff():
    # a*lam*exp(-lam*t) falls to 5% of a*lam at t = ln(20)/lam
    assert W.t1 == 300
    assert WearIntensity(a=0.0, lam=0.5).t1 == 0
    assert WearIntensity(a=1.0, lam=0.01, decay_cutoff=0.5).t1 == 70


def test_rate_components():
    assert rate(0) == pytest.approx(120.0 * 0.01 + 3.0)
    assert rate(1200) == pytest.approx(rate(1199.99), abs=1e-3)
    assert rate(1300) == pytest.approx(120.0 * 0.01 * np.exp(-13.0) + 3.0 + 0.02 * 100)


def test_bin_means_match_quadrature():
    means = W.bin_means(2000)
    for i in [0, 1, 150, 1199, 1200, 1201, 1500, 1999]:
        ref, _ = integrate.quad(lambda u: float(rate(u)), i, i + 1)
        assert means[i] == pytest.approx(ref, rel=1e-9)


def test_bin_means_of_a_huge_lam_or_t2_are_their_limits_without_a_warning():
    """The suite makes a RuntimeWarning an error: an overflow in bin_means is
    none, since a huge lam has decayed after the first bin and a huge t2
    never arrives."""
    fast = WearIntensity(a=120.0, lam=1e308, c=3.0, d=0.02, t2=5).bin_means(10)
    assert fast[0] == 123.0 and np.all(fast[1:5] == 3.0)
    late = WearIntensity(a=0.0, lam=1.0, c=3.0, d=0.02, t2=1e308).bin_means(10)
    assert np.all(late == 3.0)


def test_labels_at_analytic_times():
    labs = W.cp_labels(2000)
    assert [(l.time, l.key()) for l in labs] == [(300, "E>K"), (1200, "K>A")]


def test_label_dropped_when_outside_series():
    labs = W.cp_labels(1000)  # t2 = 1200 not reached
    assert [(l.time, l.key()) for l in labs] == [(300, "E>K")]
    flat = WearIntensity(a=0.0, lam=1.0, c=2.0)
    assert flat.cp_labels(100) == []


def test_wear_series_reproducible():
    s1 = sample_wear_series(W, 500, seed=5)
    s2 = sample_wear_series(W, 500, seed=5)
    assert np.array_equal(s1.values, s2.values)
    assert not np.array_equal(s1.values, sample_wear_series(W, 500, seed=6).values)


def test_wear_poisson_dispersion():
    # constant stretch: per-bin mean approx equals per-bin variance
    flat = WearIntensity(a=0.0, lam=1.0, c=6.0)
    vals = np.concatenate([sample_wear_series(flat, 2000, seed=s).values
                           for s in range(5)])
    assert np.mean(vals) == pytest.approx(6.0, rel=0.05)
    assert np.var(vals) == pytest.approx(6.0, rel=0.05)


def test_wear_scale_zero_is_noiseless():
    s = sample_wear_series(W, 400, seed=1, scale=0.0)
    assert np.array_equal(s.values, W.bin_means(400))


def test_wear_rejects_bad_params():
    with pytest.raises(ValueError):
        WearIntensity(a=-1.0, lam=0.1)
    with pytest.raises(ValueError):
        WearIntensity(a=1.0, lam=0.0)
    with pytest.raises(ValueError):
        WearIntensity(a=1.0, lam=0.01, d=0.1, t2=100)  # t1=300 >= t2
    with pytest.raises(ValueError, match=r"^decay_cutoff must be in \(0, 1\)$"):
        WearIntensity(decay_cutoff=1.0)
    with pytest.raises(ValueError, match="^t2 must be a non-negative integer when d > 0$"):
        WearIntensity(d=0.1, t2=-1)
    with pytest.raises(ValueError):
        sample_wear_series(W, 0, seed=0)


def test_step_series_label_and_levels():
    s = sample_step_series(0.0, 3.0, 0.0, cp_at=101, n=200, seed=0)
    assert [(l.time, l.key()) for l in s.cp_labels] == [(100, "K>A")]
    assert np.array_equal(s.values[:100], np.zeros(100))
    assert np.array_equal(s.values[100:], np.full(100, 3.0))


def test_step_series_validation():
    with pytest.raises(ValueError):
        sample_step_series(0.0, 1.0, -1.0, cp_at=5, n=10, seed=0)
    with pytest.raises(ValueError):
        sample_step_series(0.0, 1.0, 1.0, cp_at=0, n=10, seed=0)


def test_wear_noise_scale_grows_the_residual_variance_and_keeps_the_trend():
    means = W.bin_means(2000)
    suite = [sample_wear_series(W, 2000, seed=7, scale=s) for s in (1.0, 2.0, 4.0)]
    for s in suite:
        assert [(l.time, l.key()) for l in s.cp_labels] == [(300, "E>K"), (1200, "K>A")]
    resid = [s.values - means for s in suite]
    resid_var = [np.var(r) for r in resid]
    assert resid_var[0] < resid_var[1] < resid_var[2]
    for r in resid:
        assert np.mean(r) == pytest.approx(0.0, abs=0.5)
    with pytest.raises(ValueError, match="scale must be non-negative"):
        sample_wear_series(W, 100, seed=7, scale=-1.0)


@pytest.mark.parametrize("label, error, message", [
    (True, TypeError, "^rng path labels must be int or str, not bool$"),
    (-1, ValueError, "^rng path ints must be non-negative$"),
    (1.5, TypeError, "^rng path labels must be int or str, got <class 'float'>$")],
    ids=["bool", "negative", "float"])
def test_spawn_rng_refuses_a_path_label_that_is_not_a_str_or_an_int_at_least_0(label, error,
                                                                             message):
    with pytest.raises(error, match=message):
        spawn_rng(0, label)
