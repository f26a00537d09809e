"""Field representation, convolution, and static norm tests."""
import ast
import inspect
import math
import pathlib

import numpy as np
import pytest

import oracles
from kdvnoise import spectral
from kdvnoise.spectral import (
    FourierField,
    NormSpec,
    _dealias_length,
    besov_norm,
    bracket,
    convolve,
    fl_norm,
    grid_values,
    hamiltonian,
    l2_mass,
)

INF = math.inf


def random_field(N, seed):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    return FourierField(N, c)


class TestFourierField:
    def test_construction_and_mirror(self):
        f = FourierField(3, [1 + 2j, 0.5, -1j])
        assert f.N == 3
        assert f.coeff(1) == 1 + 2j
        assert f.coeff(-1) == 1 - 2j
        assert f.coeff(-3) == 1j

    def test_zero_mode_absent(self):
        f = FourierField(2, [1.0, 2.0])
        assert f.coeff(0) == 0.0

    def test_out_of_range_mode_rejected(self):
        f = FourierField(2, [1.0, 2.0])
        with pytest.raises(ValueError):
            f.coeff(3)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            FourierField(2, [1.0, np.nan])
        with pytest.raises(ValueError):
            FourierField(2, [np.inf, 1.0])

    def test_bad_cutoff_rejected(self):
        with pytest.raises(ValueError):
            FourierField(0, [])
        with pytest.raises(ValueError):
            FourierField(3, [1.0, 2.0])

    @pytest.mark.parametrize(
        "call",
        [
            lambda: FourierField(2.0, [1.0, 2.0]),
            lambda: FourierField(0, []),
            # these raised numpy's TypeError
            lambda: FourierField.zeros(8.5),
            lambda: FourierField.from_pairs(2.0, {1: 1.0}),
        ],
    )
    def test_cutoff_must_be_an_integer(self, call):
        with pytest.raises(ValueError, match="N must be an integer >= 1"):
            call()

    def test_numpy_integer_cutoff(self):
        f = FourierField(np.int64(2), [1.0, 2.0])
        assert type(f.N) is int and f.N == 2
        assert FourierField.zeros(np.int64(3)).N == 3

    def test_zeros(self):
        f = FourierField.zeros(4)
        assert np.all(f.coeffs == 0)
        assert f.coeffs.dtype == np.complex128

    def test_immutable(self):
        f = FourierField(2, [1.0, 2.0])
        with pytest.raises((ValueError, RuntimeError)):
            f.coeffs[0] = 5.0


class TestBracket:
    def test_values(self):
        assert bracket(0) == 1.0
        assert bracket(3) == 4.0
        assert bracket(-3) == 4.0
        assert np.allclose(bracket(np.array([-2.0, 0.5])), [3.0, 1.5])


class TestConvolve:
    def test_single_mode_square(self):
        # f = g with coeff(+-1) = 1: product has coeff(+-2) = 1, zero mode dropped
        f = FourierField.from_pairs(2, {1: 1.0})
        h = convolve(f, f)
        assert h.coeff(2) == pytest.approx(1.0)
        assert h.coeff(1) == 0.0

    def test_zero_annihilates(self):
        f = random_field(8, 1)
        z = FourierField.zeros(8)
        h = convolve(f, z)
        assert np.all(h.coeffs == 0)

    def test_cutoff_mismatch(self):
        with pytest.raises(ValueError):
            convolve(FourierField.zeros(4), FourierField.zeros(5))

    @pytest.mark.parametrize("N", [4, 8, 17])
    def test_direct_vs_transform(self, N):
        f = random_field(N, 10 + N)
        g = random_field(N, 20 + N)
        a = convolve(f, g, method="direct")
        b = convolve(f, g, method="transform")
        scale = np.max(np.abs(a.coeffs)) or 1.0
        assert np.max(np.abs(a.coeffs - b.coeffs)) / scale < 1e-12

    @pytest.mark.parametrize("N", [5, 21, 85])
    def test_direct_vs_transform_at_alias_edge(self, N):
        # M = 3N + 1 exactly: one point fewer and mode -2N aliases onto N
        assert _dealias_length(N) == 3 * N + 1
        f = random_field(N, 30 + N)
        g = random_field(N, 40 + N)
        a = convolve(f, g, method="direct")
        b = convolve(f, g, method="transform")
        assert np.max(np.abs(a.coeffs - b.coeffs)) / np.max(np.abs(a.coeffs)) < 1e-12

    def test_transform_vs_loop_oracle(self):
        f = random_field(8, 3)
        g = random_field(8, 4)
        expect = oracles.convolve_direct(f.coeffs, g.coeffs)
        got = convolve(f, g).coeffs
        assert np.max(np.abs(got - expect)) / np.max(np.abs(expect)) < 1e-12

    def test_hermitian_output(self):
        f = random_field(6, 5)
        g = random_field(6, 6)
        h = convolve(f, g)
        for n in range(1, 7):
            assert h.coeff(-n) == np.conj(h.coeff(n))


class TestNorms:
    def test_besov_single_block(self):
        # block j=0 holds n = +-1 only
        f = FourierField.from_pairs(4, {1: 1.0})
        for s, p in [(0.0, 2.0), (-0.49, 2.1), (1.0, 1.0)]:
            expect = 2.0 ** (1.0 / p) * 2.0**s
            assert besov_norm(f, NormSpec(s, p, INF)) == pytest.approx(expect, rel=1e-13)

    def test_fl_single_pair(self):
        f = FourierField.from_pairs(4, {1: 1.0})
        assert fl_norm(f, 0.0, 2.0) == pytest.approx(math.sqrt(2.0), rel=1e-13)

    def test_zero_field(self):
        z = FourierField.zeros(8)
        assert fl_norm(z, -0.5, 2.0) == 0.0
        assert besov_norm(z, NormSpec(-0.5, 2.0, INF)) == 0.0
        assert l2_mass(z) == 0.0
        assert hamiltonian(z) == 0.0

    def test_besov_equals_fl_when_q_is_p(self):
        for seed in range(5):
            f = random_field(32, 100 + seed)
            for s, p in [(-0.49, 2.1), (0.3, 1.5), (0.0, 2.0)]:
                a = besov_norm(f, NormSpec(s, p, p))
                b = fl_norm(f, s, p)
                assert abs(a - b) / b < 1e-12

    def test_besov_brute_force_oracle(self):
        f = random_field(64, 7)
        spec = NormSpec(-0.49, 2.1, INF)
        expect = oracles.besov_brute(f.coeffs, -0.49, 2.1, INF)
        assert besov_norm(f, spec) == pytest.approx(expect, rel=1e-12)

    def test_fl_brute_force_oracle(self):
        f = random_field(33, 8)
        expect = oracles.fl_brute(f.coeffs, 0.7, 3.0)
        assert fl_norm(f, 0.7, 3.0) == pytest.approx(expect, rel=1e-12)

    def test_l2_mass_single_pair(self):
        f = FourierField.from_pairs(4, {2: 1.0})
        assert l2_mass(f) == pytest.approx(2.0, rel=1e-14)

    def test_l2_mass_is_squared_sobolev(self):
        f = random_field(12, 11)
        assert l2_mass(f) == pytest.approx(fl_norm(f, 0.0, 2.0) ** 2, rel=1e-13)

    def test_l2_mass_quadrature_oracle(self):
        f = random_field(16, 12)
        expect = oracles.l2_mass_quadrature(f.coeffs)
        assert abs(l2_mass(f) - expect) / expect < 1e-10

    def test_homogeneity(self):
        f = random_field(16, 13)
        spec = NormSpec(-0.49, 2.1, INF)
        a = besov_norm(f, spec)
        g = FourierField(16, 2.5 * f.coeffs)
        assert besov_norm(g, spec) == pytest.approx(2.5 * a, rel=1e-13)

    def test_s_monotonicity(self):
        f = random_field(16, 14)
        lo = besov_norm(f, NormSpec(-0.8, 2.1, INF))
        hi = besov_norm(f, NormSpec(-0.2, 2.1, INF))
        assert lo <= hi

    def test_qinf_below_finite_q(self):
        f = random_field(16, 15)
        a = besov_norm(f, NormSpec(-0.49, 2.1, INF))
        b = besov_norm(f, NormSpec(-0.49, 2.1, 2.1))
        c = besov_norm(f, NormSpec(-0.49, 2.1, 1.0))
        assert a <= b + 1e-15 and a <= c + 1e-15

    def test_p_infinity(self):
        f = FourierField.from_pairs(4, {1: 3.0, 3: 1.0})
        # sup over modes of <n>^0 |coeff|
        assert fl_norm(f, 0.0, INF) == pytest.approx(3.0)


class TestHamiltonian:
    def test_single_pair_real(self):
        # no cubic contribution from modes at +-1 only
        f = FourierField.from_pairs(2, {1: 0.8})
        assert hamiltonian(f) == pytest.approx(0.64, rel=1e-13)

    def test_single_pair_complex(self):
        a = 0.7 - 0.3j
        f = FourierField.from_pairs(3, {1: a})
        assert hamiltonian(f) == pytest.approx(abs(a) ** 2, rel=1e-13)

    def test_quadrature_oracle(self):
        for seed in (21, 22):
            f = random_field(12, seed)
            expect = oracles.hamiltonian_quadrature(f.coeffs)
            assert hamiltonian(f) == pytest.approx(expect, rel=1e-10, abs=1e-10)


class TestGridValues:
    def test_matches_direct_sum(self):
        f = random_field(6, 30)
        got = grid_values(f, 32)
        expect = oracles.grid_values(f.coeffs, 32)
        assert np.max(np.abs(got - expect)) < 1e-12

    def test_real_output(self):
        f = random_field(5, 31)
        assert grid_values(f, 64).dtype.kind == "f"

    @pytest.mark.parametrize("M", [10.0, 32.0, 12, 2])
    def test_grid_length_must_be_an_integer_above_2n_plus_1(self, M):
        # 10.0 and 32.0 raised numpy's TypeError
        with pytest.raises(ValueError, match="M must be an integer >= 14"):
            grid_values(random_field(6, 30), M)

    def test_odd_grid_length_rejected(self):
        with pytest.raises(ValueError, match="must be even"):
            grid_values(random_field(6, 30), 33)

    def test_numpy_integer_grid_length(self):
        f = random_field(6, 30)
        assert grid_values(f, np.int64(32)).tobytes() == grid_values(f, 32).tobytes()


def test_one_integer_rule():
    # every integer argument goes through spectral._integer, the one place
    # that calls operator.index
    package = pathlib.Path(spectral.__file__).parent
    counts = {p.name: p.read_text(encoding="utf-8").count("operator.index") for p in package.glob("*.py")}
    assert {name: n for name, n in counts.items() if n} == {"spectral.py": 1}
    assert "operator.index" in inspect.getsource(spectral._integer)


@pytest.mark.parametrize("x, low", [(3, 3), (np.int64(7), 0), (True, 1), (-2, -5)])
def test_integer_accepts(x, low):
    got = spectral._integer(x, "n", low)
    assert type(got) is int and got == x


@pytest.mark.parametrize("x", [2, 2.0, 3.5, "3", None, np.float64(3.0), [3]])
def test_integer_refuses(x):
    with pytest.raises(ValueError, match=r"^n must be an integer >= 3, got .+$"):
        spectral._integer(x, "n", 3)


def test_oracles_share_no_code_with_the_library():
    # an oracle that imports the code it checks would check nothing
    with open(oracles.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported, "the import scan found nothing"
    assert [m for m in imported if m.startswith(".") or m.split(".")[0] == "kdvnoise"] == []
