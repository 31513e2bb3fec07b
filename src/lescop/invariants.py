"""Classical invariants computed from surgery-presentation data.

The Alexander polynomial of a null-homologous knot in a rational homology
sphere of order h is

    h * det(t^(1/2) V - t^(-1/2) V^T)

for a Seifert matrix V; it is symmetric under t -> t^(-1) and evaluates to
h at t = 1.  For a Seifert matrix of size n, knot_alexander and
alexander read its n + 1 coefficients off the digits of one packed
integer determinant, det(X dV - dV^T) at X = 2^K for a K that a
coefficient bound fixes, while the n K bits of X^n stay at most
_PACKED_BITS.  Above that, a form in a symplectic basis, where
dV - dV^T = a Pi for a signed permutation Pi, takes them from one
characteristic polynomial of Pi^T dV modulo the first prime p > 2^K of
a fixed table, _PRIMES, while K is at most _MODULAR_BITS_PER_ROW bits
per row and the table lasts; p / 2 exceeds every |c_i|, so each is
lifted from its residue exactly.  That Hessenberg reduction mod p is the
package's second kernel, and only _coefficients runs it.  Every other
matrix takes floor(n/2) + 1 integer determinants and interpolates:
transposing shows that the other half of the coefficients repeat the
first, up to the sign (-1)^n.  Each determinant, and the solve for the
free coefficients, is a ring._bareiss elimination of int rows built
here; no elimination runs over the half-Laurent ring.
The coefficients are ints, c_0 .. c_n of det(t dV - dV^T), and each
Component keeps its tuple of them (_kept_coefficients): alexander
and every check of floer.cross_checks read that one tuple, and the
blown-down polynomial of its z^3 check comes from the same form plus
(cE)(cE)^T, also as ints (_blown_down_coefficients), which _z3_structure
compares with it by three int sums.  The other
invariants need only its second derivative at 1 and how that jumps
under blow-down, and read them off the jet of the determinant at t = 1
instead.  With
S = V - V^T (integral, det S = 1, so S^-1 is an integer matrix) and
B = V + V^T, expanding log det to second order in u = log t^(1/2) gives

    Delta''(1) = h * (2g - tr((S^-1 B)^2)) / 4,

which drives the Casson surgery ledger and the b1 = 1 Lescop invariant.
Blowing down a curve linked by E adds E E^T to V and leaves S alone, so
with x = S^-1 E the jump of Delta''(1) is 2 h x^T V x: the Sato-Levine
number is s = x^T V x, and a third component linked by E3 gives
mu = E3^T x.

All of this runs on ints.  Each Component keeps its integral form from
presentation.integral_form, the one place that scales rational data: V
and the linking vectors become dV = c^2 V and cE for their common
denominator c, so d (V + E E^T) = dV + (cE)(cE)^T stays integral under
blow-down.  S^-1 comes from presentation.skew_form on that form, which
validation already ran and the Component keeps: S^T on a symplectic
basis, and otherwise one integer Gauss-Jordan.  The jet, s and mu are
int products and bilinear forms, divided by a power of d once at the
end.  The jet's one matrix product,
the int tr((S^-1 dB)^2) with dB = dV + dV^T, is presentation._jet_trace
(O(g^2) on a symplectic basis, O(g^3) for a dense S^-1), which each
Component takes once and keeps as its jet_trace: delta2 and _case (for
b1 = 1) read that, as the triangle route of floer does.  alexander
reads the kept coefficients, casson scales each chain step once and
takes its trace once, and knot_alexander scales each bare matrix it is
given.

The first Betti number b1 of the presented manifold is the number of
components, and the case formulas of lescop and of floer.chi_closed_form
read one quantity per b1: Delta''(1) of the first component for b1 = 1,
s for b1 = 2, mu^2 for b1 = 3 and 0 for b1 >= 4.  _case picks it once
per presentation, which keeps it (ring._kept), for lescop, sato_levine,
milnor_mu_squared and the closed form alike; each caller applies its own
formula.  sato_levine and milnor_mu_squared return the derived s and
mu^2; normalized(x, h) gives a value in both normalization modes, since
the paper-literal reading is h times the derived one.

Every public function checks its presentation by reading
p.violations, which validate fills on first use and the presentation
keeps; so one function can call another and the presentation is still
validated once.  Surgery keeps the data valid, since adding the symmetric
E E^T to a Seifert matrix V leaves V - V^T unchanged.
"""

from fractions import Fraction
from math import isqrt
from operator import mul, sub

from .presentation import InvalidSpecError, _jet_trace, _valid_form, exact_matrix, integral_form
from .ring import HalfLaurent, _Record, _bareiss, _kept, exact

# _coefficients packs the Alexander determinant into one integer determinant
# while n K, the bits of 2^(K n), is at most _PACKED_BITS.  Above that, a
# symplectic-basis form whose K is at most _MODULAR_BITS_PER_ROW bits per row
# takes one characteristic polynomial modulo a prime of _PRIMES, and every
# other matrix the nodes: the fastest path on each side, by measurement (see
# knot_alexander).
_PACKED_BITS = 1200
_MODULAR_BITS_PER_ROW = 20

# The moduli of the modular path, increasing: Mersenne primes 2^q - 1, the
# FIPS 186-4 primes P-192, P-224, P-256 and P-384, and between 2^607 - 1 and
# 2^1279 - 1, where no Mersenne prime lies, Proth primes 2^q - 2^s + 1 with
# s >= q/2, so that p keeps near the K + 1 bits it needs (tests/test_invariants.py
# checks each prime).
_PRIMES = (
    2**31 - 1, 2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1,
    2**192 - 2**64 - 1,
    2**224 - 2**96 + 1,
    2**256 - 2**224 + 2**192 + 2**96 - 1,
    2**384 - 2**128 - 2**96 + 2**32 - 1,
    2**521 - 1, 2**607 - 1,
    2**672 - 2**560 + 1, 2**768 - 2**684 + 1, 2**896 - 2**842 + 1,
    2**1024 - 2**880 + 1, 2**1152 - 2**830 + 1,
    2**1279 - 1, 2**2203 - 1,
)


class InvalidPresentationError(Exception):
    """The presentation fails validation; .violations lists the reasons."""

    def __init__(self, violations):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


class WrongComponentCountError(Exception):
    pass


DERIVED = "derived"
PAPER_LITERAL = "paper-literal"
NORMALIZATION_MODES = (DERIVED, PAPER_LITERAL)


class SurgeryChain(_Record):
    """A sequence of +-1 surgeries on knots, starting from S^3.

    Each step records the Seifert matrix of the surgery curve as a knot in
    the manifold reached so far; when the knots interact, the caller is
    responsible for supplying post-surgery matrices (compose with
    blow_down).
    """

    __match_args__ = ("steps",)

    def __init__(self, steps):
        # (seifert matrix, sign) pairs, their numbers checked by ring.exact
        vars(self)["steps"] = tuple((exact_matrix(v), exact(sign)) for v, sign in steps)


def _require_valid(p):
    if p.violations:
        raise InvalidPresentationError(p.violations)


def _require_exactly(p, count, name):
    _require_valid(p)
    if len(p.components) != count:
        raise WrongComponentCountError(
            f"{name} needs exactly {count} components, got {len(p.components)}"
        )


def knot_alexander(seifert, base_order=1):
    """h * det(t^(1/2) V - t^(-1/2) V^T) for a bare Seifert matrix.

    Any square matrix is accepted, of odd size, singular or fractional.
    With (d, dV) the int form of V from presentation.integral_form and n
    the size of V,
    P(t) = det(t dV - dV^T) = d^n t^(n/2) det(t^(1/2) V - t^(-1/2) V^T)
    is an integer polynomial of degree <= n, and the coefficient c_i of
    t^i becomes the term t^((2i - n)/2).  Transposing gives
    t^n P(1/t) = det(dV - t dV^T) = det((dV - t dV^T)^T) = (-1)^n P(t),
    so c_(n-i) = (-1)^n c_i.  _coefficients finds the c_i on one of three
    exact paths, picked from n, K, where 2^(K - 1) bounds every |c_i|,
    and the shape of dV - dV^T:

    - packed, for n K <= _PACKED_BITS (1200): one integer determinant,
      P(2^K), whose balanced base-2^K digits are c_0 .. c_n.  K comes
      from Cauchy's estimate and Hadamard's inequality:
      |c_i| <= max over |z| = 1 of |P(z)|
            <= prod over rows r of sqrt(sum_j (|dV[r][j]| + |dV[j][r]|)^2);
    - modular, above it, when dV - dV^T = a Pi for a signed permutation
      Pi (each row one nonzero, all of one absolute value a: every
      Seifert matrix in a symplectic basis, as d times S) and
      K <= _MODULAR_BITS_PER_ROW n (20 n): one characteristic polynomial
      of the n x n int matrix Pi^T dV modulo the first prime p > 2^K of
      _PRIMES, then its change of variable to t, each c_i lifted from
      (-p/2, p/2);
    - nodes, for every other matrix above the cutoff: floor(n/2) + 1
      integer determinants at as many integer nodes and one
      fraction-free Gauss-Jordan for the free coefficients, the others
      by the symmetry.

    Timed by timeit on random integer matrices of sizes 2 to 18 with
    entries up to 10^12, the packed path was 1.01x to 2.7x as fast as
    the nodes on all 106 with n K <= 1200, and 0.32x to 1.35x as fast on
    the 70 with n K from 1200 to 4000, where it no longer runs; on a
    16 x 16 matrix of 100-digit entries it was 0.06x as fast.  The
    modular path was timed against the nodes on an interleaved grid:
    one symplectic-basis form (tests/conftest.py random_seifert) per
    genus 5, 7, 9, 12, 16 and 20 and per entry bound 3, 30, 10^3, 10^5,
    10^8 and 10^12 with n K > 1200, each path the best of 2 alternating
    rounds of 3 to 5 runs.  Where K <= 20 n it was 0.99x to 3.05x as fast
    on the 12 forms up to genus 12, and 1.36x to 5.5x on 7 of the 8 at
    genus 16 and 20; on the eighth, at genus 16 and K/n = 19.3, 0.86x
    while p jumped from 2^607 - 1 to 2^1279 - 1.  With the Proth primes
    between them, p has 672 bits there, and three such forms (entries up
    to 10^5, K = 619 to 621) took 38.6 to 39.2 ms against 87 to 95 ms on
    the nodes, best of 2 runs each.  Where K > 20 n it was 0.57x to 1.40x up
    to genus 12 and 0.84x to 2.17x above.  The genus-40 knot of
    `python tests/conftest.py 40` took 0.42 s against 3.7 s on the
    nodes.  Every path gives the same polynomial; the packed and modular
    ones compute its symmetry rather than imposing it.  alexander reads
    the coefficients that a component keeps (_kept_coefficients).

    >>> print(knot_alexander([[-1, 1], [0, -1]]))
    t - 1 + t^-1
    """
    d, dv, _ = integral_form(exact_matrix(seifert))
    return _alexander(d, _coefficients(dv)[0], base_order)


def _alexander(d, coeffs, h):
    """h * det(t^(1/2) V - t^(-1/2) V^T) from the int coefficients
    c_0 .. c_n of P(t) = det(t dV - dV^T), for the int form (d, dV) of V:
    c_i becomes the coefficient h c_i / d^n of t^((2i - n)/2)."""
    n = len(coeffs) - 1
    scale = d**n
    if scale == 1:  # an integral V: the coefficients are the ints c h
        return HalfLaurent({2 * i - n: c * h for i, c in enumerate(coeffs)})
    return HalfLaurent({2 * i - n: Fraction(c * h, scale) for i, c in enumerate(coeffs)})


def _coefficients(dv):
    """(c_0 .. c_n, path): the int coefficients of P(t) = det(t dV - dV^T),
    by whichever of the three exact paths of knot_alexander is the
    fastest for this matrix, and the name of that path: "packed",
    "modular" or "nodes".

    The packed path reads them all off one determinant, P(X) at X = 2^K
    (Kronecker substitution; von zur Gathen and Gerhard, Modern Computer
    Algebra), once K is large enough that every |c_i| < X / 2.  The bound
    that K comes from:

    - |c_i| <= max over |z| = 1 of |P(z)|, by Cauchy's estimate: c_i is
      the mean of P(z) z^-i over the unit circle;
    - |P(z)| is at most the product over the rows r of the Euclidean
      norms of the rows of z dV - dV^T, by Hadamard's inequality, and
      |z a - b| <= |a| + |b| on |z| = 1, so each row's norm is at most
      sqrt(sum_j (|dV[r][j]| + |dV[j][r]|)^2) < isqrt(that sum) + 1;
    - so |c_i| < B = the product over r of those isqrt(...) + 1, and
      K = B.bit_length() + 1 gives X / 2 = 2^(K - 1) > B.

    See _digit_bits.  Since every c_i is then a balanced base-X digit,
    in [-X/2, X/2), they are read off from c_0 up: c = v & (X - 1),
    minus X when c >= X/2, then v = (v - c) >> K.

    The modular path (_modular) finds every c_i modulo the first prime
    p of _PRIMES above 2^K, and p / 2 > 2^(K - 1) > |c_i| by the same
    bound, so the residue lifted into (-p/2, p/2) is c_i itself.  It
    lifts the t-coefficients, not the characteristic polynomial's, which
    is why p needs K + 1 bits and not K + n + 1.  It runs only for a form
    that _skew_permutation accepts, dV - dV^T = a Pi for a signed
    permutation Pi (a symplectic basis), and K at most
    _MODULAR_BITS_PER_ROW n bits; past the last prime of the table the
    nodes run.  Neither the packed nor the modular path imposes the
    symmetry c_(n-i) = (-1)^n c_i, so a check of it can fail on both.

    The node path (_nodes) interpolates the floor(n/2) + 1 free
    coefficients from as many smaller determinants, and imposes the
    symmetry; _spare_node_agrees is the check that can fail there.  One
    determinant of long entries costs more than several of short ones
    once P(X) grows long, so the choice is made on n K,
    the bits of X^n that P(X) spans, not on n alone: the packed path
    runs when n K is at most _PACKED_BITS, below which it was the faster
    on every matrix timed (see knot_alexander).  On the tests' random
    genus-g Seifert forms, entries up to 3, it runs up to genus 8, and
    the modular path above.
    """
    n = len(dv)
    dvt = tuple(zip(*dv))
    k = _digit_bits(dv, dvt)
    if n * k <= _PACKED_BITS:
        return tuple(_packed(dv, dvt, k)), "packed"
    p = _modulus(k) if k <= _MODULAR_BITS_PER_ROW * n else None
    form = p and _skew_permutation(dv, dvt)
    if form:
        half = p >> 1
        return tuple(c - p if c > half else c for c in _modular(*form, p)), "modular"
    return tuple(_nodes(dv, dvt)), "nodes"


def _digit_bits(dv, dvt):
    """K with |c_i| < 2^(K - 1) for every coefficient c_i of
    det(t dV - dV^T), by the bound that _coefficients proves."""
    bound = 1
    for row, col in zip(dv, dvt):
        bound *= isqrt(sum((abs(a) + abs(b)) ** 2 for a, b in zip(row, col))) + 1
    return bound.bit_length() + 1


def _packed(dv, dvt, k):
    """c_0 .. c_n of P(t) = det(t dV - dV^T) as the balanced base-2^k
    digits of P(2^k), which _value_at takes."""
    n = len(dv)
    v = _value_at(dv, dvt, 1 << k)
    mask, half, x = (1 << k) - 1, 1 << (k - 1), 1 << k
    coeffs = []
    for _ in range(n + 1):
        c = v & mask
        if c >= half:
            c -= x
        coeffs.append(c)
        v = (v - c) >> k
    return coeffs


def _value_at(dv, dvt, x):
    """P(x) = det(x dV - dV^T) for an int x: the sign times the last
    pivot of ring._bareiss on the int rows x dV - dV^T built here."""
    rows = [[x * a - b for a, b in zip(row, col)] for row, col in zip(dv, dvt)]
    sign, last = _bareiss(rows, len(dv), False)
    return sign * last


def _modulus(k):
    """The first prime of _PRIMES above 2^k, or None past the table."""
    return next((p for p in _PRIMES if p.bit_length() > k), None)


def _skew_permutation(dv, dvt):
    """(a, N) when dV - dV^T = a Pi for an int a > 0 and a signed
    permutation matrix Pi, with N = Pi^T dV as int rows; otherwise None.

    Each row of dV - dV^T then holds one nonzero, +-a, at column j(r).
    That matrix is skew, so j is an involution with no fixed point, Pi is
    skew too, Pi^-1 = Pi^T = -Pi and det Pi = Pf(Pi)^2 = 1; and row r of
    Pi^T dV is row j(r) of dV times the sign of Pi[j(r)][r] = -Pi[r][j(r)].
    Nothing is eliminated, and presentation.skew_form is not read.
    """
    a = None
    rows = []
    for row, col in zip(dv, dvt):
        nonzero = [j for j, (x, y) in enumerate(zip(row, col)) if x != y]
        if len(nonzero) != 1:
            return None
        j = nonzero[0]
        s = row[j] - col[j]
        if a is None:
            a = abs(s)
        elif abs(s) != a:
            return None
        rows.append(dv[j] if s < 0 else [-x for x in dv[j]])
    return a, rows


def _modular(a, rows, p):
    """c_0 .. c_n of P(t) = det(t dV - dV^T) modulo the prime p, each in
    [0, p), from the (a, N) of _skew_permutation.

    With dV^T = dV - a Pi, t dV - dV^T = a Pi + (t - 1) dV
    = Pi (a I + (t - 1) N), and det Pi = 1, so P(t) = det(a I + (t - 1) N).
    For det(x I - N) = sum b_k x^k (_charpoly) and n even,
    det(a I + u N) = u^n det(-(a/u) I - N) = sum_k (-a)^k b_k u^(n - k),
    and Horner's rule in u = t - 1, from b_0 up, gives the c_i.  They
    stay below 2^n p^2 in size until the one reduction at the end.
    """
    b = _charpoly(rows, p)
    c = [b[0]]
    x = 1
    for bk in b[1:]:
        x = x * -a % p
        c = [x * bk - c[0], *map(sub, c, c[1:]), c[-1]]  # c (t - 1) + (-a)^k b_k
    return [y % p for y in c]


def _charpoly(m, p):
    """b_0 .. b_n, in [0, p), of det(x I - M) = sum b_k x^k modulo the
    prime p for the int rows m of an n x n matrix M.

    A Hessenberg reduction mod p, then the Hessenberg recurrence (Cohen,
    A Course in Computational Algebraic Number Theory, Algorithm 2.2.9).
    Step k moves a nonzero of column k - 1, at or below row k, to row k
    by one row and one column swap, then clears the rest of that column
    by the similarity H -> L H L^-1 with L = I - sum_i u_i e_i e_k^T:
    one comprehension per row i > k, row_i - u_i row_k, then column k
    plus sum_i u_i column_i, as one dot product per row.  For the
    Hessenberg H the characteristic polynomials p_m of its leading m x m
    blocks satisfy p_0 = 1 and
    p_m = (x - h_mm) p_(m-1) - sum_(i < m) h_(m-i,m) prod_(j < i) h_(m-j,m-j-1) p_(m-i-1),
    1-based; the product is a running one, and the sum stops at its
    first zero factor.  p is prime, so every nonzero pivot is invertible.
    """
    h = [[x % p for x in row] for row in m]
    n = len(h)
    for k in range(1, n - 1):
        pivot = next((i for i in range(k, n) if h[i][k - 1]), None)
        if pivot is None:
            continue
        if pivot != k:
            h[k], h[pivot] = h[pivot], h[k]
            for row in h:
                row[k], row[pivot] = row[pivot], row[k]
        hk = h[k]
        inverse = pow(hk[k - 1], -1, p)
        us = [h[i][k - 1] * inverse % p for i in range(k + 1, n)]
        for i, u in enumerate(us, k + 1):
            if u:
                h[i] = [(x - u * y) % p for x, y in zip(h[i], hk)]
        for row in h:
            row[k] = (row[k] + sum(map(mul, us, row[k + 1:]))) % p
    polys = [[1]]
    for m in range(1, n + 1):
        prev = polys[-1]
        new = [0, *prev]  # x p_(m-1), then minus h_mm p_(m-1)
        new[:m] = [x - h[m - 1][m - 1] * y for x, y in zip(new, prev)]
        t = 1
        for i in range(1, m):
            t = t * h[m - i][m - i - 1] % p
            if not t:
                break
            f = t * h[m - i - 1][m - 1] % p
            if f:
                q = polys[m - i - 1]
                new[: len(q)] = [x - f * y for x, y in zip(new, q)]
        polys.append([x % p for x in new])
    return polys[-1]


def _node_list(count):
    """The first count interpolation nodes, 0, -1, 2, -2, 3, -3, ..."""
    return (0, -1, *(s * k for k in range(2, count // 2 + 2) for s in (1, -1)))[:count]


def _nodes(dv, dvt):
    """c_0 .. c_n of P(t) = det(t dV - dV^T), interpolated from
    floor(n/2) + 1 integer determinants.

    P is sum c_i b_i over i <= m = n // 2, with b_i = t^i + (-1)^n t^(n-i)
    for i < n/2 and b_(n/2) = t^(n/2).  At each node x, P(x) is
    _value_at(dv, dvt, x).  Appended to the row b_0(x) .. b_m(x), it
    gives one equation of an (m + 1) x (m + 2) system, and one
    fraction-free Gauss-Jordan (Bareiss, Math. Comp. 22, 1968) leaves D c
    in the last column, D the last pivot; c = that column // D, exactly,
    since c is integral.  The nodes of _node_list, 0, -1, 2, -2, 3, ...,
    make the system invertible: x = 0 gives c_0, and x + 1/x is distinct
    on the others.  t = 1 is avoided, where every b_i vanishes when n is
    odd.
    """
    n = len(dv)
    m = n // 2
    sign = (-1) ** n
    system = []
    for x in _node_list(m + 1):
        system.append([x**i + sign * x**(n - i) if 2 * i < n else x**i for i in range(m + 1)]
                      + [_value_at(dv, dvt, x)])
    pivot = _bareiss(system, m + 1, True)[1]
    half = [row[-1] // pivot for row in system]  # exact: the c_i are ints
    return half + [sign * c for c in reversed(half[: n - m])]  # c_(n-i) = (-1)^n c_i


def _delta2_jet(n, d, trace, h):
    """Delta''(1) = h (2g - tr((S^-1 B)^2)) / 4 for a Seifert matrix of size
    n = 2g, from the int trace tr((S^-1 dB)^2) with dB = dV + dV^T in
    place of B; d^2 is divided out once at the end."""
    return Fraction(h * (n * d * d - trace), 4 * d * d)


def _form(u, m, v):
    """The int bilinear form u^T M v."""
    return sum(map(mul, u, (sum(map(mul, row, v)) for row in m)))


def alexander(p, comp):
    """Alexander polynomial of the named component inside the base manifold.

    Only the component's own Seifert matrix and the homology order enter;
    the other components are 0-framed and do not affect it.  It is built
    from the int coefficients that the component keeps (see
    _kept_coefficients).
    """
    _require_valid(p)
    c = p.component(comp)
    return _alexander(c.integral_form[0], _kept_coefficients(c)[0], p.base_order)


@_kept
def _kept_coefficients(c):
    """_coefficients of the component c's kept integral form, computed on
    first use and kept on c (ring._kept), with the name of the path that
    found them: alexander and every check of floer.cross_checks share
    one computation."""
    return _coefficients(c.integral_form[1])


def _blown_down_coefficients(c, other):
    """The kept coefficients of the component c after (-1)-surgery on the
    component named other: the int coefficients of det(t dV' - dV'^T) for
    dV' = dV + (cE)(cE)^T, cE being c's kept linking vector against
    other.  The form keeps its d, since d (V + E E^T) = dV + (cE)(cE)^T,
    so knot_alexander of the blown-down Seifert matrix V + E E^T is
    h t^(-n/2) P'(t) / d^n for these coefficients of P'."""
    _, dv, ce = c.integral_form
    e = ce[other]
    return _coefficients([[x + a * b for x, b in zip(row, e)] for row, a in zip(dv, e)])[0]


def _spare_node_agrees(c):
    """Whether the component c's kept coefficients agree with
    P(x) = det(x dV - dV^T) at a node that their interpolation did not use.

    On the packed path (n K at most _PACKED_BITS) and on the modular one
    (a symplectic-basis form with K at most _MODULAR_BITS_PER_ROW n)
    nothing is imposed on the coefficients, and a comparison of them with
    their mirror can fail, so this returns True with no determinant.  On
    the node path, which imposes c_(n-i) = (-1)^n c_i, it takes one more
    determinant, P(x) at the first node of _node_list that _nodes does
    not use, and compares it with sum c_i x^i: a polynomial interpolated
    from wrong values, or one whose true coefficients are not symmetric,
    misses it.
    """
    coeffs, path = _kept_coefficients(c)
    if path != "nodes":
        return True
    dv = c.integral_form[1]
    x = _node_list(len(dv) // 2 + 2)[-1]
    return _value_at(dv, tuple(zip(*dv)), x) == sum(a * x**i for i, a in enumerate(coeffs))


def _z3_structure(before, after, s):
    """Whether z^3 divides Delta_after - (1 + s z^2) Delta_before, from the
    int coefficients P = before and P' = after of det(t dV - dV^T) for a
    component's kept form and for its blown-down form dV + (cE)(cE)^T,
    and s = a/b in lowest terms.

    Both forms have the same d and size n, so with z^2 = (t - 1)^2 / t and
    the unit u = h t^(-n/2) / d^n the residue is u (P' - (1 + s z^2) P),
    and multiplying it by the further unit b t leaves
    Q = t (b P' - (b + a z^2) P) = b t (P' - P) - a (t - 1)^2 P,
    an int polynomial in t.  Units change no divisibility, and
    z^3 = t^(-3/2) (t - 1)^3, so z^3 divides the residue exactly when
    (t - 1)^3 divides Q (the roots t^(1/2) = +-1 of z^3 both map to
    t = 1, each with its multiplicity), that is when
    Q(1) = Q'(1) = Q''(1) = 0.  With D = P' - P, and (t - 1)^2 P
    contributing only 2 P(1) to Q''(1), these are

        Q(1) = b D(1),  Q'(1) = b (D(1) + D'(1)),
        Q''(1) = b (2 D'(1) + D''(1)) - 2 a P(1),

    three int sums over the coefficients: the verdict of
    ring.divides_z_power(residue, 3) with no HalfLaurent or Fraction.
    """
    a, b = s.numerator, s.denominator
    diff = [x - y for x, y in zip(after, before)]
    d0 = sum(diff)
    d1 = sum(i * x for i, x in enumerate(diff))
    d2 = sum(i * (i - 1) * x for i, x in enumerate(diff))
    return b * d0 == b * (d0 + d1) == b * (2 * d1 + d2) - 2 * a * sum(before) == 0


def delta2(p, comp):
    """Second derivative of the Alexander polynomial at t = 1, by the jet formula.

    Half of this value is the knot's surgery weight in the Casson ledger
    (the framing-change term of the Lescop surgery formula).
    """
    _require_valid(p)
    c = p.component(comp)
    d, dv, _ = c.integral_form
    return _delta2_jet(len(dv), d, c.jet_trace, p.base_order)


def casson(chain):
    """Casson invariant of the integral homology sphere a chain presents.

    lambda(S^3) = 0, and surgery with sign sigma on a knot with Seifert
    matrix V adds sigma * Delta''(1) / 2, so (-1)-surgery subtracts half
    the second derivative.  Every manifold of the chain is an integral
    homology sphere, so each V must be an integer matrix with
    det(V - V^T) = 1; any other step raises InvalidSpecError.

    Matrices are taken at face value; no attempt is made to re-derive them
    after earlier steps.  When a later surgery curve links an earlier one,
    compute its post-surgery matrix first, e.g. for a curve k with linking
    vector E against an earlier (-1)-framed component, feed this chain the
    updated matrix from blow_down (V_k + E E^T) rather than V_k:

    >>> from lescop.presentation import TREFOIL
    >>> casson(SurgeryChain(((TREFOIL, -1), (TREFOIL, -1))))
    Fraction(-2, 1)
    """
    if not isinstance(chain, SurgeryChain):
        chain = SurgeryChain(tuple(chain))
    total = Fraction(0)
    for i, (v, sign) in enumerate(chain.steps):
        if sign not in (-1, 1):
            raise InvalidSpecError(f"step {i}: surgery sign must be +1 or -1, got {sign}")
        d, dv, s_inv = _valid_form(v, f"step {i}")
        if d != 1:
            raise InvalidSpecError(
                f"step {i}: non-integer entries require base_order > 1, "
                "and a chain starts from S^3"
            )
        total += sign * _delta2_jet(len(dv), d, _jet_trace(s_inv, dv), 1) / 2
    return total


def normalized(x, h):
    """A derived Sato-Levine-type number x read in each normalization mode.

    The jump of Delta''(1) under blow-down is 2 x Delta(1) = 2 x h.
    Dividing it by 2h (DERIVED, what sato_levine and milnor_mu_squared
    return) gives x; dividing it by 2 (PAPER_LITERAL) gives h x, which
    reads the case formulas with the Alexander normalization dropped.
    The modes coincide when h = 1.

    >>> normalized(Fraction(1, 2), 3)
    {'derived': Fraction(1, 2), 'paper-literal': Fraction(3, 2)}
    """
    return {DERIVED: x, PAPER_LITERAL: h * x}


@_kept
def _case(p):
    """(b1, x) for the quantity the b1 case formulas read: Delta''(1) of
    the first component for b1 = 1, s for b1 = 2, mu^2 for b1 = 3 and 0
    for b1 >= 4.  p is valid and has at least one component.

    Computed on first use and kept on p (ring._kept), so sato_levine,
    milnor_mu_squared, lescop and floer.chi_closed_form, and every check
    of floer.cross_checks that reads one of them, share one computation."""
    b1 = len(p.components)
    first = p.components[0]
    d, dv, ce = first.integral_form
    if b1 == 1:
        return b1, _delta2_jet(len(dv), d, first.jet_trace, p.base_order)
    s_inv = first.skew_form[0]
    if b1 == 2:
        x = [sum(map(mul, row, ce[p.components[1].name])) for row in s_inv]  # c S^-1 E
        return b1, Fraction(_form(x, dv, x), d * d)
    if b1 == 3:
        mu = Fraction(_form(ce[p.components[2].name], s_inv, ce[p.components[1].name]), d)
        return b1, mu * mu
    return b1, Fraction(0)


def sato_levine(p):
    """Sato-Levine invariant s of a two-component presentation.

    Computed as s = x^T V x with x = S^-1 E (see the module docstring).
    The jump of Delta''(1) of the first component under (-1)-surgery on
    the second is 2 s Delta(1) = 2 s h, so s is that jump divided by 2h;
    normalized(s, h) also gives the paper-literal reading h s.
    """
    _require_exactly(p, 2, "sato_levine")
    return _case(p)[1]


def milnor_mu_squared(p):
    """Square of the triple linking number of a three-component presentation.

    Equal to the jump of the Sato-Levine invariant of the first two
    components under (-1)-surgery on the third, which is mu^2 for
    mu = E3^T S^-1 E2 (see the module docstring).  That bilinear form
    carries the sign of mu, but only mu^2 is reported until the
    orientation convention that fixes the sign is pinned down.  mu is an
    integer when the linking vectors are.  normalized(mu^2, h) also
    gives h mu^2, as for sato_levine.
    """
    _require_exactly(p, 3, "milnor_mu_squared")
    return _case(p)[1]


def lescop(p):
    """Lescop invariant of the presented manifold, by first Betti number.

    With x from _case: b1 = 1: x/2 - h/12 for x = Delta''(1);
    b1 >= 2: (-1)^(b1+1) h x, that is -h s for b1 = 2, h mu^2 for
    b1 = 3 and 0 for b1 >= 4.  Here h = base_order is the torsion order
    of the presented manifold.  b1 = 0 (no components) is out of scope;
    use casson() for integral homology spheres.
    """
    _require_valid(p)
    if not p.components:
        raise WrongComponentCountError(
            "lescop needs at least one component; for integral homology "
            "spheres use casson()"
        )
    b1, x = _case(p)
    h = p.base_order
    if b1 == 1:
        return x / 2 - Fraction(h, 12)
    return (-1) ** (b1 + 1) * h * x
