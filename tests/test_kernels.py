import json
import re
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rpcqr import (
    EPS,
    CholeskyBreakdown,
    NoConvergenceError,
    cholesky_qr,
    haar_frame,
    haar_rotated,
)
import rpcqr.kernels
import rpcqr.transforms
from rpcqr.kernels import (
    as_matrix,
    cholesky,
    gram,
    householder_qr,
    householder_r,
    singular_values,
    spectral_norm,
    tri_solve_right,
)


def rng(seed):
    return np.random.default_rng(seed)


def symmetrize(S):
    """Return (S + S^T)/2 so the symmetry invariant holds bit-exactly."""
    S = as_matrix(S)
    return (S + S.T) / 2.0


def gram_oracle(A):
    # Independent triple-loop product.
    m, n = A.shape
    G = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            s = 0.0
            for k in range(m):
                s += A[k, i] * A[k, j]
            G[i, j] = s
    return G


class TestMatrixValidation:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_matrix([[1.0, np.nan]])

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            as_matrix([[np.inf], [1.0]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            as_matrix(np.zeros((0, 3)))

    @pytest.mark.parametrize("entry", [cholesky_qr],
                             ids=lambda f: f.__name__)
    def test_tall_entry_points_reject_wide(self, entry):
        with pytest.raises(ValueError, match=r"^need rows >= cols, got 3x5$"):
            entry(np.ones((3, 5)))


class TestGram:
    def test_identity_stack(self):
        A = np.vstack([np.eye(2), np.zeros((1, 2))])
        assert np.array_equal(gram(A), np.eye(2))

    def test_ones_column(self):
        assert np.array_equal(gram(np.ones((3, 1))), [[3.0]])

    def test_matches_triple_loop_oracle(self):
        A = rng(0).standard_normal((50, 7))
        G = gram(A)
        ref = gram_oracle(A)
        assert np.max(np.abs(G - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_exactly_symmetric(self):
        A = rng(1).standard_normal((40, 9))
        G = gram(A)
        assert np.array_equal(G, G.T)

    # gram does not symmetrize: numpy's syrk mirrors one triangle, so the
    # product is exactly symmetric in either memory order.
    @given(
        n=st.integers(1, 300),
        extra_rows=st.integers(0, 40),
        order=st.sampled_from("CF"),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_exactly_symmetric_property(self, n, extra_rows, order, seed):
        A = np.array(rng(seed).standard_normal((n + extra_rows, n)),
                     order=order)
        G = gram(A)
        assert np.array_equal(G, G.T)


class TestCholesky:
    def test_closed_form_2x2(self):
        R = cholesky(np.array([[4.0, 2.0], [2.0, 5.0]]))
        assert np.allclose(R, [[2.0, 1.0], [0.0, 2.0]], atol=1e-15)

    def test_identity(self):
        assert np.array_equal(cholesky(np.eye(5)), np.eye(5))

    def test_breakdown_negative_pivot(self):
        with pytest.raises(CholeskyBreakdown) as exc:
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert exc.value.pivot_index == 1
        assert exc.value.pivot_value == pytest.approx(-3.0)

    @pytest.mark.parametrize("n, k", [(300, 200), (600, 513)])
    def test_breakdown_beyond_one_lapack_block(self, n, k):
        # SPD leading k x k block, then a pivot with Schur complement -1.
        B = np.eye(n) + np.triu(rng(n).standard_normal((n, n))) / np.sqrt(n)
        G = B.T @ B
        G[k, k] -= B[k, k] ** 2 + 1.0
        G = symmetrize(G)
        G0 = G.copy()
        schur = G[k, k] - G[k, :k] @ np.linalg.solve(G[:k, :k], G[:k, k])
        with pytest.raises(CholeskyBreakdown) as exc:
            cholesky(G)
        assert exc.value.pivot_index == k
        assert exc.value.pivot_value == pytest.approx(schur, rel=1e-10)
        assert np.array_equal(G, G0)

    @pytest.mark.parametrize("seed", range(5))
    def test_reconstruction(self, seed):
        # SPD shifted to stay positive definite under roundoff.
        B = rng(seed).standard_normal((30, 12))
        nb = spectral_norm(B)
        G = symmetrize(gram(B) + 12 * EPS * nb**2 * np.eye(12))
        R = cholesky(G)
        err = spectral_norm(R.T @ R - G)
        assert err <= 10 * 12 * EPS * spectral_norm(G)
        assert np.all(np.diag(R) > 0)

    @pytest.mark.parametrize("seed", range(10))
    def test_two_factor_orthogonality(self, seed):
        # Any two full-rank factorizations of the same SPD matrix are
        # orthogonally related: R2 R1^{-1} has orthonormal columns.
        n, m = 10, 25
        g = rng(100 + seed)
        B = g.standard_normal((m, n)) @ np.diag(
            np.logspace(0, -g.uniform(0, 4), n)
        )
        G = gram(B)
        R1 = cholesky(G)
        W = householder_qr(g.standard_normal((m, n))).Q
        R2 = W @ R1
        Q = tri_solve_right(R2, R1)
        dev = spectral_norm(Q.T @ Q - np.eye(n))
        kR1 = np.linalg.cond(R1)
        assert dev <= 100 * n * EPS * kR1**2


class TestTriSolveRight:
    def test_reconstruct_identity(self):
        A = np.array([[2.0, 1.0], [0.0, 2.0], [0.0, 0.0]])
        R = np.array([[2.0, 1.0], [0.0, 2.0]])
        X = tri_solve_right(A, R)
        assert np.allclose(X, [[1, 0], [0, 1], [0, 0]], atol=1e-15)

    def test_square_self(self):
        R = np.triu(rng(2).standard_normal((6, 6)) + 3 * np.eye(6))
        assert np.allclose(tri_solve_right(R, R), np.eye(6), atol=1e-14)

    def test_residual_random(self):
        A = rng(3).standard_normal((40, 6))
        R = cholesky(gram(A))
        X = tri_solve_right(A, R)
        assert spectral_norm(X @ R - A) / spectral_norm(A) <= 1e-14

    # The examples pin n at the edges of the recursion: dtrsm alone up to
    # 32 columns, one halving at 33 to 64, two at 65 to 128, three beyond.
    @given(
        n=st.integers(1, 200),
        extra_rows=st.integers(0, 300),
        order=st.sampled_from("CF"),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=1, extra_rows=0, order="C", seed=0)
    @example(n=31, extra_rows=1, order="F", seed=1)
    @example(n=32, extra_rows=7, order="C", seed=2)
    @example(n=33, extra_rows=0, order="F", seed=3)
    @example(n=63, extra_rows=3, order="C", seed=4)
    @example(n=65, extra_rows=0, order="F", seed=5)
    @example(n=127, extra_rows=250, order="C", seed=6)
    @example(n=129, extra_rows=300, order="C", seed=7)
    @settings(max_examples=60, deadline=None)
    def test_blocked_solve_property(self, n, extra_rows, order, seed):
        g = rng(seed)
        A = np.array(g.standard_normal((n + extra_rows, n)), order=order)
        # Diagonally dominant rows keep R well conditioned at any n.
        off = np.triu(g.standard_normal((n, n)), 1)
        signs = np.where(g.random(n) < 0.5, -1.0, 1.0)
        R = off + np.diag(signs * (1.0 + np.abs(off).sum(axis=1)))
        A0 = A.copy()
        X = tri_solve_right(A, R)
        assert np.array_equal(A, A0)
        bound = 10 * n * EPS * np.linalg.norm(X, 2) * np.linalg.norm(R, 2)
        assert np.linalg.norm(X @ R - A, 2) <= bound
        other = np.array(A, order="F" if order == "C" else "C")
        assert np.array_equal(tri_solve_right(other, R), X)


class TestHouseholderQR:
    def test_identity_stack(self):
        A = np.vstack([np.eye(4), np.zeros((3, 4))])
        f = householder_qr(A)
        assert np.allclose(f.Q, A, atol=1e-15)
        assert np.allclose(f.R, np.eye(4), atol=1e-15)

    def test_345_column(self):
        f = householder_qr(np.array([[3.0], [4.0]]))
        assert np.allclose(f.Q, [[0.6], [0.8]], atol=1e-15)
        assert np.allclose(f.R, [[5.0]], atol=1e-15)

    def test_random_stability(self):
        A = rng(4).standard_normal((200, 20))
        f = householder_qr(A)
        assert spectral_norm(f.Q.T @ f.Q - np.eye(20)) <= 1e-13
        assert spectral_norm(A - f.Q @ f.R) / spectral_norm(A) <= 1e-13
        assert np.all(np.diag(f.R) >= 0)

    @pytest.mark.parametrize("kappa", [1e0, 1e6, 1e12])
    def test_stability_independent_of_conditioning(self, kappa):
        A = haar_rotated(300, 25, kappa, seed=11)
        f = householder_qr(A)
        assert spectral_norm(f.Q.T @ f.Q - np.eye(25)) <= 1e-13
        assert spectral_norm(A - f.Q @ f.R) / spectral_norm(A) <= 1e-13
        s = singular_values(f.Q)
        assert np.all(s >= 1 - 1e-12) and np.all(s <= 1 + 1e-12)


class TestHouseholderR:
    @pytest.mark.parametrize("m, n", [(1, 1), (7, 7), (300, 20)])
    def test_bit_equal_to_householder_qr(self, m, n):
        A = -np.abs(rng(m + n).standard_normal((m, n)))
        R = householder_r(A)
        assert np.array_equal(R, householder_qr(A).R)
        assert np.all(np.diag(R) >= 0)
        assert np.array_equal(R, np.triu(R))

    def test_zero_column(self):
        A = rng(5).standard_normal((50, 6))
        A[:, 2] = 0.0
        R = householder_r(A)
        assert np.array_equal(R, householder_qr(A).R)
        assert np.all(np.diag(R) >= 0)
        assert abs(R[2, 2]) <= 1e-14 * np.abs(R).max()


class TestSingularValues:
    def test_diagonal_stack(self):
        A = np.vstack([np.diag([3.0, 1.0]), np.zeros((2, 2))])
        assert np.allclose(singular_values(A), [3.0, 1.0], atol=1e-14)

    def test_isometry(self):
        Q = haar_frame(100, 8, seed=6)
        assert np.allclose(singular_values(Q), 1.0, atol=1e-14)

    def test_prescribed_condition_number(self):
        A = haar_rotated(300, 20, 1e4, seed=7)
        s = singular_values(A)
        assert s[0] / s[-1] == pytest.approx(1e4, rel=1e-8)

    def test_no_convergence(self, monkeypatch):
        def svd(A, compute_uv):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", svd)
        with pytest.raises(NoConvergenceError, match="SVD did not converge"):
            singular_values(np.ones((4, 2)))


class TestSpectralNorm:
    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((5, 3))) == 0.0

    def test_diagonal(self):
        assert spectral_norm(np.diag([2.0, -7.0])) == pytest.approx(7.0, rel=1e-9)

    def test_matches_svd(self):
        A = rng(8).standard_normal((100, 10))
        s1 = singular_values(A)[0]
        assert spectral_norm(A) == pytest.approx(s1, rel=1e-5)

    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
    @pytest.mark.parametrize("kind", ["tall", "wide", "square", "rank1"])
    def test_exact_at_any_scale(self, kind, scale):
        g = rng(9)
        A = {
            "tall": lambda: g.standard_normal((300, 20)),
            "wide": lambda: g.standard_normal((20, 300)),
            "square": lambda: haar_rotated(40, 40, 1e8, seed=2),
            "rank1": lambda: np.outer(g.standard_normal(60),
                                      g.standard_normal(8)),
        }[kind]() * scale
        s1 = singular_values(A.T if kind == "wide" else A)[0]
        assert spectral_norm(A) == pytest.approx(s1, rel=1e-12, abs=0)

    @pytest.mark.parametrize("scale", [2.0 ** -1000, 1.0, 2.0 ** 1000])
    @pytest.mark.parametrize("shape", [(300, 20), (20, 300), (1, 1),
                                       (200, 200)])
    def test_matches_all_eigenvalues_route(self, shape, scale):
        # lambda_max alone, against the largest of all the eigenvalues.
        A = rng(10).standard_normal(shape) * scale
        s = np.abs(A).max()
        B = A / s
        G = B.T @ B if shape[0] >= shape[1] else B @ B.T
        expected = s * np.sqrt(np.linalg.eigvalsh(G)[-1])
        assert spectral_norm(A) == pytest.approx(expected, rel=4 * EPS, abs=0)

    # The scaled copy B goes to ``out``; the metrics hand over a
    # temporary as both A and ``out``.  Either way, the same bits.
    OUT_SHAPES = [(300, 20), (20, 300), (40, 40), (60, 1), (1, 60)]

    @pytest.mark.parametrize("shape", OUT_SHAPES)
    def test_out_leaves_a_intact(self, shape):
        A = rng(11).standard_normal(shape)
        A_before = A.copy()
        out = np.empty_like(A)
        assert spectral_norm(A, out=out) == spectral_norm(A)
        assert np.array_equal(A, A_before)
        assert np.array_equal(out, A / np.abs(A).max())

    @pytest.mark.parametrize("shape", OUT_SHAPES)
    def test_out_may_be_a_itself(self, shape):
        A = rng(12).standard_normal(shape)
        want = spectral_norm(A)
        assert spectral_norm(A, out=A) == want

    def test_no_convergence(self, monkeypatch):
        monkeypatch.setattr(rpcqr.kernels, "dsyevr",
                            lambda G, **kw: (np.zeros(len(G)), None, 0, None, 3))
        with pytest.raises(NoConvergenceError, match="info=3"):
            spectral_norm(np.ones((4, 2)))


ROOT = Path(__file__).resolve().parents[1]


def benchmark_names(layer):
    """The ``layer.name`` functions the benchmark traces or reports."""
    names = set(re.findall(rf"\b{layer}\.(\w+)",
                           (ROOT / "perfbench" / "tracing.py").read_text()))
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return names | {m["name"].split(".")[1] for m in per_layer
                    if m["name"].startswith(f"{layer}.")}


def test_benchmark_kernel_names_are_public_functions():
    # The benchmark's tracer wraps public functions only, so a kernel it
    # names that became private (``_name``) would read zero, not fail.
    names = benchmark_names("kernels")
    assert names
    for name in sorted(names):
        fn = getattr(rpcqr.kernels, name, None)
        assert not name.startswith("_"), name
        assert isinstance(fn, types.FunctionType), name
        assert fn.__module__ == "rpcqr.kernels", name


@pytest.mark.parametrize("layer", [rpcqr.kernels, rpcqr.transforms])
def test_no_dead_internal_functions(layer):
    # The internal layers export nothing, so a public function that no
    # other module calls and the benchmark does not name is dead code.
    short = layer.__name__.split(".")[-1]
    others = "\n".join(p.read_text() for p in (ROOT / "src" / "rpcqr").glob(
        "*.py") if p.stem != short)
    dead = [name for name, fn in vars(layer).items()
            if isinstance(fn, types.FunctionType) and not name.startswith("_")
            and fn.__module__ == layer.__name__
            and not re.search(rf"\b{name}\(", others)
            and name not in benchmark_names(short)]
    assert dead == []
