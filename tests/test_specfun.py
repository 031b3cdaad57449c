"""Special functions behind the closed forms, against high-precision references.

The closed forms call ``math.lgamma`` for log-gamma, ``math.comb`` for the
binomial weights of the moment expansion, and scipy's incomplete gamma
through ``schemes._ln_reg_lower_gamma``, which every outage, CDF and
moment-oracle evaluation goes through; P and Q below are derived from it.
It takes one point at a time from scipy's ``cython_special`` kernels;
``TestScalarPath`` checks that it gives the bits of scipy's ufuncs.

Frozen expected values were computed with mpmath at 50 decimal digits
(tools/generate_gamma_oracle.py regenerates the bulk table; the literals
below came from the same brute-force series / gamma evaluations).
"""

import importlib.util
import json
import math
import pathlib

import numpy as np
import pytest
from scipy import special
from scipy.special import cython_special

from nrayleigh.moments import _moment_sum
from nrayleigh.schemes import Scheme, _law, _ln_reg_lower_gamma

REPO = pathlib.Path(__file__).resolve().parent.parent
ORACLE_PATH = REPO / "src" / "nrayleigh" / "data" / "reg_lower_gamma_oracle.json"
GENERATOR_PATH = REPO / "tools" / "generate_gamma_oracle.py"


def reg_lower_gamma(a, x):
    """P(a, x) as the analytics evaluate it."""
    return math.exp(_ln_reg_lower_gamma(a, x))


def reg_upper_gamma(a, x):
    """Q(a, x) = 1 - P(a, x) from the same log-space value."""
    return -math.expm1(_ln_reg_lower_gamma(a, x))


def ufunc_ln_reg_lower_gamma(a, xs):
    """ln P(a, x) for each x of ``xs`` by the same two-sided rule, with P and
    Q from scipy's ``gammainc``/``gammaincc`` ufuncs (one pass per side) and
    the logs from ``math``: the reference the scalar helper must equal."""
    xs = np.array(xs, dtype=float)
    lower = xs < a + 1.0
    side = np.empty_like(xs)
    side[lower] = special.gammainc(a, xs[lower])
    side[~lower] = special.gammaincc(a, xs[~lower])
    return [
        (math.log(v) if v > 0.0 else -math.inf) if is_lower else math.log1p(-v)
        for v, is_lower in zip(side.tolist(), lower.tolist())
    ]

# mpmath, dps=50
LN_GAMMA_HALF = 0.57236494292470008707171367567652935582364740645766
LN_GAMMA_FIVE = 3.1780538303479456196469416012970554088739909609035
P_3_3 = 0.57680991887315648467558946697447489863055346638515
Q_494_20 = 1.5436394306932059711218796777869500309874260095461e-5
P_25_03 = 0.011996757205906266514706560652025391041073219653665


class TestLnGamma:
    """``math.lgamma``, the log-gamma of every closed form."""

    def test_gamma_one_is_zero(self):
        assert math.lgamma(1.0) == pytest.approx(0.0, abs=1e-14)

    def test_factorial_value(self):
        assert math.lgamma(5.0) == pytest.approx(LN_GAMMA_FIVE, abs=1e-13)
        assert math.lgamma(5.0) == pytest.approx(math.log(24.0), abs=1e-13)

    def test_half_integer_value(self):
        assert math.lgamma(0.5) == pytest.approx(LN_GAMMA_HALF, abs=1e-13)

    @pytest.mark.parametrize("x", [1e-3, 0.02, 0.37, 1.5, 9.99, 10.0, 123.4, 1e4])
    def test_against_math_lgamma(self, x):
        # scipy's gammaln (behind the acceptance references) and math.lgamma
        # are independent implementations; they agree to a few ulp.
        assert float(special.gammaln(x)) == pytest.approx(
            math.lgamma(x), rel=1e-14, abs=1e-13
        )

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, math.inf, math.nan])
    def test_domain_errors(self, bad):
        # ln Gamma(a) sits in the incomplete-gamma prefactor; a shape outside
        # its finite positive domain is refused, not turned into nan.
        with pytest.raises(ValueError):
            _ln_reg_lower_gamma(bad, 1.0)


class TestRegLowerGamma:
    """P(a, x) through ``schemes._ln_reg_lower_gamma``."""

    def test_zero_argument(self):
        assert _ln_reg_lower_gamma(2.5, 0.0) == -math.inf
        assert reg_lower_gamma(2.5, 0.0) == 0.0
        assert reg_upper_gamma(2.5, 0.0) == 1.0

    def test_exponential_closed_form(self):
        # P(1, x) = 1 - exp(-x).
        for x in (0.01, 0.5, 1.0, 3.0, 10.0, 40.0):
            assert reg_lower_gamma(1.0, x) == pytest.approx(-math.expm1(-x), abs=1e-12)
            assert reg_upper_gamma(1.0, x) == pytest.approx(math.exp(-x), rel=1e-10)

    def test_series_oracle_values(self):
        assert reg_lower_gamma(3.0, 3.0) == pytest.approx(P_3_3, abs=1e-12)
        assert reg_upper_gamma(4.94, 20.0) == pytest.approx(Q_494_20, rel=1e-9)
        assert reg_lower_gamma(2.5, 0.3) == pytest.approx(P_25_03, abs=1e-12)

    def test_frozen_oracle_table(self):
        table = json.loads(ORACLE_PATH.read_text())
        worst = 0.0
        for entry in table["entries"]:
            err = abs(reg_lower_gamma(entry["a"], entry["x"]) - entry["p"])
            worst = max(worst, err)
        assert worst <= 1e-10

    def test_integer_shape_closed_form(self):
        # P(a, x) = 1 - exp(-x) sum_{k<a} x^k/k! for integer a.
        for a in (1, 2, 3, 5, 8):
            for x in (0.2, 1.0, 2.5, 7.0, 15.0):
                partial = sum(x**k / math.factorial(k) for k in range(a))
                expected = 1.0 - math.exp(-x) * partial
                assert reg_lower_gamma(float(a), x) == pytest.approx(
                    expected, abs=1e-10
                )

    @pytest.mark.parametrize("a", [0.5, 1.6467, 4.9401, 10.0])
    def test_monotone_in_x(self, a):
        xs = [i * 30.0 / 999 for i in range(1000)]
        values = [reg_lower_gamma(a, x) for x in xs]
        assert all(v2 >= v1 for v1, v2 in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_complement_identity(self):
        # Both branches of the log-space P agree with scipy's own Q.
        for a in (0.5, 1.0, 1.6467, 4.9401, 10.0, 25.0):
            for x in (0.0, 0.3, 1.0, a, a + 1.0, 3 * a + 5.0, 80.0):
                p = reg_lower_gamma(a, x)
                q = float(special.gammaincc(a, x))
                assert abs(p + q - 1.0) <= 1e-12

    def test_log_form_matches_both_tails(self):
        # Deep lower tail: ln P must stay accurate far below double range of
        # P**k.  Expansion: ln P = a ln x - x - ln G(a+1) + ln(1 + x/(a+1) + ...).
        ln_p = _ln_reg_lower_gamma(25.0, 0.01)
        expected = 25.0 * math.log(0.01) - 0.01 - math.lgamma(26.0) + math.log1p(0.01 / 26.0)
        assert ln_p == pytest.approx(expected, abs=1e-6)
        # Near saturation ln P ~ -Q; abs=0 so that pytest's default 1e-12
        # absolute slack cannot hide a log(P) that lost Q to rounding.
        assert _ln_reg_lower_gamma(1.0, 30.0) == pytest.approx(
            -math.exp(-30.0), rel=1e-6, abs=0.0
        )

    @pytest.mark.parametrize("a,x", [(0.0, 1.0), (-2.0, 1.0), (1.0, -0.5), (2.0, math.nan)])
    def test_domain_errors(self, a, x):
        with pytest.raises(ValueError):
            _ln_reg_lower_gamma(a, x)

    @pytest.mark.parametrize("a", [0.5, 4.9401, 25.0])
    def test_array_equals_scalar_bit_for_bit(self, a):
        # Both branches, the boundary x = a + 1 and P underflowing to 0.
        xs = [0.0, 1e-300, 1e-3, 0.5 * a, a, a + 1.0, a + 1.5, 3 * a + 5.0, 800.0]
        scalar = [_ln_reg_lower_gamma(a, x) for x in xs]
        assert list(map(repr, scalar)) == list(map(repr, ufunc_ln_reg_lower_gamma(a, xs)))

    def test_generator_reproduces_frozen_table(self):
        # The frozen table is the only independent evidence behind c01:
        # regenerating it with mpmath must give the committed values exactly.
        pytest.importorskip("mpmath")
        spec = importlib.util.spec_from_file_location("generate_gamma_oracle", GENERATOR_PATH)
        generator = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(generator)
        table = json.loads(ORACLE_PATH.read_text())
        assert table["dps"] == generator.DPS
        assert generator.oracle_entries() == table["entries"]


class TestScalarPath:
    """The scalar helper (cython_special) gives the ufunc reference's bits."""

    def test_oracle_table(self):
        table = json.loads(ORACLE_PATH.read_text())
        differ = []
        for entry in table["entries"]:
            a, x = entry["a"], entry["x"]
            kernels = (cython_special.gammainc(a, x), cython_special.gammaincc(a, x))
            ufuncs = (float(special.gammainc(a, x)), float(special.gammaincc(a, x)))
            scalar = _ln_reg_lower_gamma(a, x)
            (reference,) = ufunc_ln_reg_lower_gamma(a, [x])
            if repr(kernels) != repr(ufuncs) or repr(scalar) != repr(reference):
                differ.append((a, x, scalar, reference))
        assert differ == []

    def test_every_law_shape(self):
        # n = 1..8, n_r = 1..4, both schemes; x from 0 through P underflowing
        # (x = 1e-300) and Q underflowing (x = 1e3), with the branch point
        # x = a + 1 and its neighbouring floats.
        shapes = sorted({_law(scheme, n, 1, n_r).shape for scheme in Scheme
                         for n in range(1, 9) for n_r in range(1, 5)})
        assert len(shapes) == 32  # TAS/SC's m(n) is TAS/MRC's shape at n_r = 1
        grid = [0.0] + [10.0 ** (e / 8.0) for e in range(-2400, 25)]
        differ = []
        for a in shapes:
            xs = sorted(grid + [math.nextafter(a + 1.0, 0.0), a + 1.0,
                                math.nextafter(a + 1.0, math.inf)])
            scalar = [_ln_reg_lower_gamma(a, x) for x in xs]
            assert scalar[1] == -math.inf and scalar[-1] == 0.0
            if list(map(repr, scalar)) != list(map(repr, ufunc_ln_reg_lower_gamma(a, xs))):
                differ.append(a)
        assert differ == []


class TestBinomial:
    """``math.comb``, the binomial weights of the moment expansion."""

    def test_small_values(self):
        assert math.comb(4, 2) == 6
        assert math.comb(6, 3) == 20
        assert math.comb(0, 0) == 1

    @pytest.mark.parametrize("n", [1, 5, 17, 40, 64])
    def test_edges_and_symmetry(self, n):
        assert math.comb(n, 0) == 1
        assert math.comb(n, n) == 1
        for k in range(n + 1):
            assert math.comb(n, k) == math.comb(n, n - k)

    def test_pascal_triangle(self):
        for n in range(1, 30):
            for k in range(1, n):
                assert math.comb(n, k) == math.comb(n - 1, k - 1) + math.comb(n - 1, k)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            math.comb(-1, 0)
        # The moment expansion is validated for exponents up to 64 only.
        with pytest.raises(ValueError, match="order-statistics exponent .* <= 64, got 65"):
            _moment_sum(1, 1.6467, 65, 1.0, 2, 1.5)
