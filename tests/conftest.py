import pytest

from advisorgame import ModelParams, OpinionProfile


@pytest.fixture
def fig1():
    """The two-equilibria sample configuration used throughout."""
    return ModelParams(
        d=0.1, x=0.4, w=0.5, n=1,
        alpha=0.05, beta=0.1, gamma=0.2, zeta=10.0,
        r_d=0.3, r_s=0.2,
    )


def draw_params(rng, **overrides):
    """Random but well-scaled homogeneous parameters."""
    values = dict(
        d=rng.uniform(0.0, 0.9),
        x=rng.uniform(0.0, 1.0),
        w=rng.uniform(0.0, 1.0),
        n=int(rng.integers(1, 4)),
        alpha=10.0 ** rng.uniform(-1.5, 0.5),
        beta=10.0 ** rng.uniform(-1.5, 0.5),
        gamma=10.0 ** rng.uniform(-1.5, 0.5),
        zeta=10.0 ** rng.uniform(-0.3, 1.3),
        r_d=rng.uniform(0.0, 1.0),
        r_s=rng.uniform(0.0, 1.0),
    )
    values.update(overrides)
    return ModelParams(**values)


def draw_domain_point(rng, p, margin=0.0):
    """Random feasible profile with s - d bounded below by ``margin``."""
    lo = p.d + margin
    s = rng.uniform(lo, 1.0) if lo < 1.0 else 1.0
    c = rng.uniform(p.d, s, size=p.n)
    return OpinionProfile(c=tuple(c), s=s)
