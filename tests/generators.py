"""Random model generators shared by the test suite.

These build package objects for property tests; the independent checking
logic lives in oracles.py.
"""

from __future__ import annotations

import numpy as np

from causalmed.scm import CptVariable, LogitVariable, ScmSpec


def random_mediation_scm(rng: np.random.Generator, *, confounded: bool = False) -> ScmSpec:
    """A random binary model with the study's shape: latent H drives Q and X,
    M responds to (Q, X), Y responds to (Q, X, M). With ``confounded=True``
    a latent U feeds both M and Y."""

    def u(lo, hi):
        return float(rng.uniform(lo, hi))

    def signed(lo, hi):
        return float(rng.choice([-1.0, 1.0]) * rng.uniform(lo, hi))

    variables = [
        CptVariable("H", ("0", "1"), (), ((1.0 - (ph := u(0.3, 0.7)), ph),), latent=True),
        LogitVariable("Q", ("H",), u(-1.0, 0.0), (u(-1.0, 1.0),)),
        LogitVariable("X", ("H",), u(-0.5, 0.5), (u(-1.0, 1.0),)),
    ]
    m_parents = ["Q", "X"]
    m_coefs = [u(-1.0, 1.0), u(-1.0, 1.0)]
    y_parents = ["Q", "X", "M"]
    y_coefs = [u(-1.0, 1.0), u(-1.0, 1.0), u(-1.0, 1.0)]
    if confounded:
        pu = u(0.3, 0.7)
        variables.append(CptVariable("U", ("0", "1"), (), ((1.0 - pu, pu),), latent=True))
        m_parents.append("U")
        m_coefs.append(signed(1.5, 2.5))
        y_parents.append("U")
        y_coefs.append(signed(1.5, 2.5))
    variables.append(LogitVariable("M", tuple(m_parents), u(-0.5, 0.5), tuple(m_coefs)))
    variables.append(LogitVariable("Y", tuple(y_parents), u(-1.0, 0.0), tuple(y_coefs)))
    return ScmSpec(tuple(variables), exposure="Q", baseline="X", mediator="M", outcome="Y")


def random_categorical_scm(rng: np.random.Generator) -> ScmSpec:
    """A random model with variables of three and four levels: latent H
    (3 levels) drives baseline X (4 levels); exposure Q is a logit on the
    level indices of X and H; mediator M (3 levels) responds to (Q, X) and
    outcome Y to (M, Q, X, H). Q, M and Y list their parents out of
    declaration order, so their tables must be transposed onto the joint's
    axes."""

    def cpt(n_levels, n_rows):
        return tuple(tuple(row) for row in rng.dirichlet(np.ones(n_levels), n_rows))

    variables = (
        CptVariable("H", ("0", "1", "2"), (), cpt(3, 1), latent=True),
        CptVariable("X", ("a", "b", "c", "d"), ("H",), cpt(4, 3)),
        LogitVariable("Q", ("X", "H"), float(rng.uniform(-1.0, 0.0)), tuple(rng.uniform(-0.5, 0.5, 2))),
        CptVariable("M", ("lo", "mid", "hi"), ("Q", "X"), cpt(3, 2 * 4)),
        CptVariable("Y", ("0", "1"), ("M", "Q", "X", "H"), cpt(2, 3 * 2 * 4 * 3)),
    )
    return ScmSpec(variables, exposure="Q", baseline="X", mediator="M", outcome="Y")


def logistic_outcome_scm(
    *,
    q_coef: float = 0.9,
    x_coef: float = 0.5,
    m_coef: float = -0.6,
    m_on_q: float = 0.8,
    confounding: float = 0.7,
    intercept: float = -1.2,
) -> ScmSpec:
    """A fixed-parameter model whose outcome is exactly logistic in (Q, X, M),
    so a correctly specified regression recovers ``q_coef`` as the
    conditional log-odds ratio."""
    return ScmSpec(
        (
            CptVariable("H", ("0", "1"), (), ((0.5, 0.5),), latent=True),
            LogitVariable("Q", ("H",), -1.2, (confounding,)),
            LogitVariable("X", ("H",), -0.3, (confounding,)),
            LogitVariable("M", ("Q", "X"), -0.2, (m_on_q, 0.4)),
            LogitVariable("Y", ("Q", "X", "M"), intercept, (q_coef, x_coef, m_coef)),
        ),
        exposure="Q",
        baseline="X",
        mediator="M",
        outcome="Y",
    )
