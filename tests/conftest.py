import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from ricciflat import geometry as geo
from ricciflat.jets import jet_eval_many
from ricciflat.majorant import majorant_sequence, nonlinearity_bounds
from ricciflat.solver import Solution, SolverConfig, solve


def jet_eval(a, point) -> complex:
    """Evaluate one jet at one point of R^{2n} (complex coordinates are
    accepted for holomorphic sampling)."""
    return complex(jet_eval_many(a, np.asarray(point)[None, :])[0])


def polydisc_sample(nvars, r, rng, count=128):
    """``count`` complex points with every coordinate of modulus <= r: the
    corner (r, .., r), the coordinate extremes +-r e_v, and a random fill."""
    pts = [np.full(nvars, r, dtype=complex)]
    for v in range(nvars):
        for sign in (1.0, -1.0):
            p = np.zeros(nvars, dtype=complex)
            p[v] = sign * r
            pts.append(p)
    need = count - len(pts)
    rho = r * rng.uniform(0.0, 1.0, size=(need, nvars))
    pts.extend(rho * np.exp(2j * np.pi * rng.uniform(size=(need, nvars))))
    return np.array(pts)


def dominating_sequence(sol: Solution, params) -> list[float]:
    """Majorant coefficients C_1..C_M through the solution's t-order, as the
    ``majorant`` command builds them when no ``--m-max`` is given."""
    bounds = nonlinearity_bounds(sol, params, sol.t_order)
    return majorant_sequence(params, bounds, sol.t_order)


def truncate_solution(sol: Solution, t_order: int) -> Solution:
    """Restrict a solution to a lower t-order (coefficients are unchanged:
    the recursion at order m never looks ahead)."""
    if t_order >= sol.config.t_order:
        return sol
    return replace(
        sol,
        config=replace(sol.config, t_order=t_order),
        v=sol.v.truncate(t_order),
        g=sol.g.map(lambda e: e.truncate(t_order)),
        w_inv=sol.w_inv.truncate(t_order + 1),
        exp_u=sol.exp_u.truncate(t_order + 1),
    )

# Seeded perturbed scenarios shared by the consequence / Laplacian / majorant
# acceptance checks.  Solving the two-dimensional members is the expensive
# part of the whole suite, so the corpus is built once per session.
CORPUS_SEEDS = (0, 1, 2, 3, 4)
CORPUS_DIMS = (1, 2)
CORPUS_EPS = 0.1
CORPUS_M = 8
CORPUS_D = 20


def corpus_keys():
    return [(n, seed) for n in CORPUS_DIMS for seed in CORPUS_SEEDS]


def solve_corpus_member(n: int, seed: int, c: float = 1.0):
    initial = geo.perturbed_flat(n, CORPUS_EPS, seed, 2, CORPUS_D)
    cfg = SolverConfig(c=c, t_order=CORPUS_M, space_degree=CORPUS_D)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return solve(initial, cfg)


@pytest.fixture(scope="session")
def timed_corpus():
    """The c=1 corpus and the seconds its build took (charged to A3)."""
    t0 = time.time()
    solutions = {key: solve_corpus_member(*key) for key in corpus_keys()}
    return solutions, time.time() - t0


@pytest.fixture(scope="session")
def corpus_solutions(timed_corpus):
    return timed_corpus[0]


@pytest.fixture(scope="session")
def corpus_solutions_c2():
    return {key: solve_corpus_member(*key, c=2.0) for key in corpus_keys()}


@pytest.fixture(scope="session")
def fs_solution():
    initial = geo.fubini_study_chart(1, 1.0, 12)
    cfg = SolverConfig(c=1.0, t_order=8, space_degree=12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return solve(initial, cfg)


@pytest.fixture(scope="session")
def flat_solutions():
    out = {}
    for n in (1, 2):
        initial = geo.flat(n, 26)
        out[n] = solve(initial, SolverConfig(c=1.0, t_order=12, space_degree=26))
    return out

