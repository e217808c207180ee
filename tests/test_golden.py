"""Pinned single-draw estimates and HAC intervals on one fixed instance.

The values were recorded from per-draw estimator code that predates the
batched core, so they give the core's one-draw blocks an independent
reference next to the hand-computed cases and the exact-oracle tests.
"""

import pytest

import spillscale as ss
from spillscale import harness
from spillscale.estimators import DesignContext, DrawBlock, interval

P, ETA = 0.5, 1.0

# seed -> estimates; "*_ci" is (variance_hat, ci_lo, ci_hi, truncated)
GOLDEN = {
    301: dict(ht=1.940951200749813, hajek=2.092242180084407,
              ols=2.069530106897637, shrink=2.8070490493395988,
              hajek_ci=(0.21947788525701709, 1.1740291011817696,
                        3.0104552589870446, False),
              ols_ci=(0.6428789834855145, 0.49803618653099946,
                      3.641024027264274, False)),
    302: dict(ht=0.9692149947954727, hajek=2.117914665851455,
              ols=1.1699523182870477, shrink=1.306031011601023,
              hajek_ci=(0.292984940439193, 1.0570237271679914,
                        3.1788056045349187, False),
              ols_ci=(2.868792081310466, -2.1497384271721653,
                      4.489643063746261, False)),
    303: dict(ht=1.2786625886126224, hajek=2.118235568553953,
              ols=2.146236114229773, shrink=2.3348495627002017,
              hajek_ci=(0.14940703517080856, 1.3606466476141996,
                        2.8758244894937066, False),
              ols_ci=(0.23977314282000614, 1.186507686781953,
                      3.1059645416775927, False)),
    304: dict(ht=2.149614557052205, hajek=2.0222646283754866,
              ols=3.0791346943276063, shrink=2.494783536247016,
              hajek_ci=(0.06689477026169621, 1.5153390862294038,
                        2.529190170521569, False),
              ols_ci=(0.18910807330159624, 2.2268138179853167,
                      3.931455570669896, False)),
    305: dict(ht=1.4845317775475868, hajek=2.3452473894212247,
              ols=2.791639825006973, shrink=2.70611217987864,
              hajek_ci=(0.12776148209807164, 1.6446829938439218,
                        3.0458117849985276, False),
              ols_ci=(1.8893815799513076, 0.09757569511678899,
                      5.485703954897157, False)),
}


@pytest.fixture(scope="module")
def instance():
    space, outcomes, guess = harness.build_population(48, 349)
    h = ss.scaling_rule(48, ETA)
    part = ss.scaling_clusters(space, h)
    return space, outcomes, guess, part, h


def assert_ci(res, want):
    var, lo, hi, truncated = want
    assert res.variance_hat == pytest.approx(var, rel=1e-12)
    assert res.ci[1] == pytest.approx(lo, rel=1e-12)
    assert res.ci[2] == pytest.approx(hi, rel=1e-12)
    assert res.truncated is truncated


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_single_draw_values_pinned(instance, seed):
    space, outcomes, guess, part, h = instance
    want = GOLDEN[seed]
    draw = ss.draw_treatments(part, P, seed)
    Y = ss.realize(outcomes, draw.d)
    block = DrawBlock(DesignContext(space, part, h, P, ETA), Y, draw.b,
                      guess=guess)

    assert block.ht[0] == pytest.approx(want["ht"], rel=1e-12)
    haj = block.hajek[0]
    assert haj == pytest.approx(want["hajek"], rel=1e-12)
    ols = block.ols[0]
    assert ols == pytest.approx(want["ols"], rel=1e-12)
    assert block.shrink[0] == pytest.approx(want["shrink"], rel=1e-12)

    assert_ci(interval(haj, block.variance("hajek")[0], 0.95), want["hajek_ci"])
    assert_ci(interval(ols, block.variance("ols")[0], 0.95), want["ols_ci"])
