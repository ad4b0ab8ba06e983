"""The abstract's headline claim, over the whole range of κ(A₁).

The abstract says that the deviation of the computed Q from orthonormality
"increases with only the condition number of the preconditioned matrix,
rather than its square".  The shipped figures keep κ(A₁) below about 10^3,
where a slope of 1 of log deviation on log κ(A₁) cannot be told from one
of 2.  These runs widen the range in two ways:

* ``rp`` at c from n to 3n: fewer sampled rows give a worse preconditioner;
* the internal pass with R_s = T·R, where R is the Householder R of A and T
  an upper triangular factor of condition number t = 1 … 1e8, so that
  κ(A₁) = t.  Above 1e8 the pass's own Cholesky sees κ(A₁)² > 1/u.

Every run that does not break down must have a deviation of at most 100
times its ``estimate_5_2`` (4·u·κ(A₁)).  The least-squares slope of log
deviation on log κ(A₁) must stay below 1.5, where κ(A₁)² growth gives 2.
How many samples are rank deficient is printed per c, not asserted: the
paper claims no robustness below c = 3n.  The rows' ``measure`` cells must
keep κ(A₁) and η within :data:`svd_bound.BOUND` of their SVD values, over
this whole range.  The inputs below were fixed before any run.
"""

import functools

import numpy as np
import pytest

from rpcqr import (CholeskyBreakdown, RankDeficientSampleError,
                   ortho_deviation, ortho_estimate, randsvd, rp_cholesky_qr)
from rpcqr.algorithms import preconditioned_cholesky_qr
from rpcqr.harness import MATRIX_KINDS
from rpcqr.kernels import householder_r, spectral_norm
from rpcqr.metrics import measure
from svd_bound import BOUND, a1, svd_kappa, svd_ratios

M, N, KAPPA = 2000, 100, 1e15
MATRIX_SEEDS = (1, 2)
C_VALUES = (N, N + 1, N + 2, 105, 110, 120, 150, 2 * N, 3 * N)
SAMPLE_SEEDS = range(6)
T_CONDITIONS = [10.0 ** e for e in range(9)]
T_SEEDS = range(3)


def cells(A, norm_A, f, R_s, R2):
    """A row's ``deviation``, ``kappa_A1`` and ``estimate_5_2`` cells, and
    the :func:`svd_ratios` of its ``measure`` cells."""
    A1 = a1(A, R_s)
    kappa = svd_kappa(A1)
    return dict(deviation=ortho_deviation(f.Q), kappa_A1=kappa,
                estimate_5_2=ortho_estimate(kappa),
                svd_ratios=svd_ratios(measure(A, norm_A, f, R2, R_s),
                                      A, A1, R_s))


@functools.lru_cache(maxsize=None)
def runs(kind):
    """The cells of ``kind``'s runs, per construction, and the number of
    rank-deficient samples and of breakdowns per c (or t)."""
    rows = {"sampled": [], "controlled": []}
    raised = {"rank deficient": dict.fromkeys(C_VALUES, 0),
              "sampled breakdown": dict.fromkeys(C_VALUES, 0),
              "controlled breakdown": dict.fromkeys(T_CONDITIONS, 0)}
    for matrix_seed in MATRIX_SEEDS:
        A = np.asfortranarray(MATRIX_KINDS[kind](M, N, KAPPA, matrix_seed))
        norm_A = spectral_norm(A)
        for c in C_VALUES:
            for seed in SAMPLE_SEEDS:
                try:
                    f, R_s, R2 = rp_cholesky_qr(A, c, seed)
                except RankDeficientSampleError:
                    raised["rank deficient"][c] += 1
                    continue
                except CholeskyBreakdown:
                    raised["sampled breakdown"][c] += 1
                    continue
                rows["sampled"].append(cells(A, norm_A, f, R_s, R2))
        R = householder_r(A)
        for t in T_CONDITIONS:
            for seed in T_SEEDS:
                R_s = householder_r(randsvd(N, t, seed)) @ R
                try:
                    f, _, R2 = preconditioned_cholesky_qr(A, R_s,
                                                          "preconditioned")
                except CholeskyBreakdown:
                    raised["controlled breakdown"][t] += 1
                    continue
                rows["controlled"].append(cells(A, norm_A, f, R_s, R2))
    return rows, raised


def report(capsys, line):
    with capsys.disabled():
        print(f"\n[claims] {line}")


KINDS = sorted(MATRIX_KINDS)
CONSTRUCTIONS = ["sampled", "controlled"]


@pytest.mark.parametrize("construction", CONSTRUCTIONS)
@pytest.mark.parametrize("kind", KINDS)
def test_deviation_within_100_estimates(kind, construction, capsys):
    rows, raised = runs(kind)
    ratios = [r["deviation"] / r["estimate_5_2"] for r in rows[construction]]
    broke = raised[f"{construction} breakdown"]
    report(capsys, f"{kind} {construction}: {len(ratios)} runs, worst "
                   f"deviation/estimate {max(ratios):.2f}; breakdowns "
                   f"{sum(broke.values())}")
    if construction == "sampled":
        report(capsys, f"{kind}: RankDeficientSampleError per c "
                       f"{raised['rank deficient']}")
    assert max(ratios) <= 100


@pytest.mark.parametrize("construction", CONSTRUCTIONS)
@pytest.mark.parametrize("kind", KINDS)
def test_deviation_grows_slower_than_kappa_squared(kind, construction,
                                                    capsys):
    rows = runs(kind)[0][construction]
    x = np.log10([r["kappa_A1"] for r in rows])
    y = np.log10([r["deviation"] for r in rows])
    slope = np.polyfit(x, y, 1)[0]
    report(capsys, f"{kind} {construction}: log10 kappa(A1) "
                   f"{x.min():.2f}..{x.max():.2f}, slope {slope:.2f}")
    assert x.max() - x.min() >= 3  # a slope over a range that tells 1 from 2
    assert slope < 1.5


@pytest.mark.parametrize("construction", CONSTRUCTIONS)
@pytest.mark.parametrize("kind", KINDS)
def test_measure_reads_kappa_and_eta_within_their_svd_bound(kind,
                                                            construction,
                                                            capsys):
    rows = runs(kind)[0][construction]
    kappa, e = np.max([r["svd_ratios"] for r in rows], axis=0)
    report(capsys, f"{kind} {construction}: measure's kappa(A1) within "
                   f"{kappa:.2f} u kappa(A1), eta within {e:.2f} u of the SVD")
    assert kappa <= BOUND and e <= BOUND
