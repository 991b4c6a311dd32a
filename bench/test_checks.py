"""The benchmark's checkers reject wrong values and accept right ones.

    PYTHONPATH=src python3 -m unittest discover -s bench -p 'test_*.py'
"""

import math
import os
import sys
import tempfile
import unittest
from fractions import Fraction

import mpmath
import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import clirun  # noqa: E402

B2_ROOTS = [((1, 0), 1), ((0, 1), 1), ((1, 1), 1), ((1, 2), 1)]
B2_GRAM = ((4, -2), (-2, 2))


class ExactCheckers(unittest.TestCase):
    def test_closed_forms(self):
        self.assertIsNone(checks.check_weyl_order("F4", "F4", 4, 1152))
        self.assertIsNotNone(checks.check_weyl_order("F4", "F4", 4, 1151))
        self.assertIsNone(checks.check_weyl_order("D4", "D", 4, 192))
        self.assertIsNotNone(checks.check_weyl_order("A3", "A", 3, 48))
        self.assertIsNone(checks.check_root_count("BC2", "BC", 2, 6))
        self.assertIsNotNone(checks.check_root_count("BC2", "BC", 2, 4))
        self.assertIsNotNone(checks.check_equal("kappa", Fraction(7, 2), Fraction(5, 2)))

    def test_roots(self):
        for family, rank, count in (("A", 3, 6), ("BC", 3, 12), ("D", 4, 12), ("G2", 2, 6),
                                    ("F4", 4, 24), ("E8", 8, 120)):
            self.assertEqual(len(checks.positive_roots(family, rank)), count)
        coeffs = [c for c, _ in B2_ROOTS]
        self.assertIsNone(checks.check_roots("B2", "B", 2, B2_GRAM, coeffs))
        self.assertIsNotNone(checks.check_roots("C2", "C", 2, B2_GRAM, coeffs))
        self.assertIsNotNone(checks.check_roots("B2", "B", 2, B2_GRAM,
                                                coeffs[:3] + [(2, 1)]))

    def test_bounds_and_invariance(self):
        self.assertIsNone(checks.check_lower_bound("x", [3, 4], Fraction(3, 2)))
        self.assertIsNotNone(checks.check_lower_bound("x", [2, 4], Fraction(3, 2)))
        self.assertIsNone(checks.check_attained("x", [3, 4], Fraction(3, 2)))
        self.assertIsNotNone(checks.check_attained("x", [4, 4], Fraction(3, 2)))
        self.assertIsNone(checks.check_invariance("x", 3, [3, 3]))
        self.assertIsNotNone(checks.check_invariance("x", 3, [3, 2]))

    def test_exact_count_has_no_overflow(self):
        self.assertEqual(checks.exact_count(B2_ROOTS, B2_GRAM, (2 ** 62, 0)), 3)
        self.assertEqual(checks.exact_count(B2_ROOTS, B2_GRAM, (1, 1)), 3)

    def test_hull_member(self):
        rho = (Fraction(3, 2), Fraction(2))
        self.assertTrue(checks.hull_member(B2_ROOTS, B2_GRAM, rho))
        self.assertFalse(checks.hull_member(B2_ROOTS, B2_GRAM, [2 * x for x in rho]))
        self.assertTrue(checks.hull_member(B2_ROOTS, B2_GRAM, [-x for x in rho]))


class QuadratureCheckers(unittest.TestCase):
    # at xi = 0, eta = -3/2 the degree is 1 and the value is cosh 2Y
    def test_sl2_reference(self):
        self.assertIsNone(checks.check_sl2(0.0, -1.5, 1.0, math.cosh(2.0)))
        self.assertIsNotNone(checks.check_sl2(0.0, -1.5, 1.0, math.cosh(2.0) + 1e-8))

    def test_sl2_series(self):
        # the term-by-term sum agrees with the degree-1 closed form and with legenp
        self.assertAlmostEqual(complex(checks._conical_series(1 + 0j, mpmath.mpf(1))),
                               math.cosh(2.0), places=12)
        nu, y = complex(-0.2, 40.0), mpmath.mpf(1.3)
        self.assertAlmostEqual(complex(checks._conical_series(nu, y)),
                               complex(mpmath.legenp(nu, 0, mpmath.cosh(2 * y), type=3)), places=12)
        # legenp and hyp2f1 both give up at this point; the series still rejects a wrong value
        self.assertIsNotNone(checks.check_sl2(1168.5037071708923, 0.0, 0.9571843558889237, 0.0102))

    def test_sl2_modulus(self):
        self.assertIsNone(checks.check_sl2_modulus(40.0, 0.2, 1.0, 0.01))
        self.assertIsNotNone(checks.check_sl2_modulus(40.0, 0.2, 1.0, 2.0))

    def test_derivative_reference(self):
        self.assertIsNone(checks.check_sl2_derivative(0.0, -1.5, 1.0, 1, 2 * math.sinh(2.0)))
        self.assertIsNotNone(checks.check_sl2_derivative(0.0, -1.5, 1.0, 1, 2 * math.sinh(2.0) * (1 + 1e-6)))

    def test_compact(self):
        self.assertIsNone(checks.check_compact(2, 1.0, 1.5 * math.cos(1.0) ** 2 - 0.5))
        self.assertIsNotNone(checks.check_compact(2, 1.0, 1.5 * math.cos(1.0) ** 2 - 0.4))

    def test_properties(self):
        self.assertIsNone(checks.check_slope("fit", -0.52))
        self.assertIsNotNone(checks.check_slope("fit", -0.6))
        self.assertIsNone(checks.check_holder_verdicts("bounded", "growing"))
        self.assertIsNotNone(checks.check_holder_verdicts("bounded", "bounded"))
        self.assertIsNone(checks.check_error_decreases("s", [1e-3, 2e-4, 5e-4, 1e-5, 3e-5, 1e-6]))
        self.assertIsNotNone(checks.check_error_decreases("s", [1e-3, 2e-4, 5e-4, 1e-5, 3e-4, 1e-6]))
        self.assertIsNone(checks.check_weyl_symmetric("sl3", 0.5, 0.01, 0.52, 0.01))
        self.assertIsNotNone(checks.check_weyl_symmetric("sl3", 0.5, 0.01, 0.7, 0.01))
        self.assertIsNone(checks.check_blowup([1, 2, 8], 8.0, 1.5))
        self.assertIsNotNone(checks.check_blowup([1, 3, 2], 2.0, 1.5))


class CliCheckers(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.round = clirun.make_round(7, 0, self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    def invocation(self, verb):
        return next(inv for inv in self.round if inv["verb"] == verb)

    def test_bc_closed_form_matches_catalog_rows(self):
        # SU(2,3) and Sp(1,2) as BC systems
        self.assertEqual(clirun.bc_kappa(2, short=2, medium=2, long=1), Fraction(7, 2))
        self.assertEqual(clirun.bc_kappa(1, short=4, medium=4, long=3), Fraction(7, 2))

    def test_kappa(self):
        inv = self.invocation("kappa")
        self.assertEqual(clirun.check_output(inv, f"{inv['expect']}\n", checks), [])
        self.assertNotEqual(clirun.check_output(inv, f"{inv['expect'] + 1}\n", checks), [])

    def test_unreadable_output_is_rejected(self):
        self.assertNotEqual(clirun.check_output(self.invocation("kappa"), "garbage\n", checks), [])
        self.assertNotEqual(clirun.check_output(self.invocation("kak"), "k1 =\n", checks), [])

    def test_expsum(self):
        inv = self.invocation("expsum")
        good = checks.cesaro_mean(*inv["sums"])
        self.assertEqual(clirun.check_output(inv, f"{good!r}\n", checks), [])
        self.assertNotEqual(clirun.check_output(inv, f"{good * 1.001!r}\n", checks), [])

    def test_iwasawa(self):
        inv = self.invocation("iwasawa")
        q, r = np.linalg.qr(clirun._unimodular(inv["matrix"]))
        signs = np.sign(np.diag(r))
        q, r = q * signs, r * signs[:, None]
        h = np.log(np.diag(r))

        def text(h_printed):
            rows = lambda m: "\n".join(" ".join(repr(float(x)) for x in row) for row in m)  # noqa: E731
            return (f"k =\n{rows(q)}\nh = " + " ".join(repr(float(x)) for x in h_printed)
                    + f"\nnu =\n{rows(r / np.diag(r)[:, None])}\n")

        self.assertEqual(clirun.check_output(inv, text(h), checks), [])
        self.assertNotEqual(clirun.check_output(inv, text(h + 1e-3), checks), [])


if __name__ == "__main__":
    unittest.main()
