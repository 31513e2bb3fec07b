"""Exact arithmetic in the ring of Laurent polynomials in t^(1/2).

Everything here is exact: coefficients are rational numbers, exponents
are half-integers stored by their numerator over the fixed denominator 2,
and no floating point is allowed anywhere.  The ring houses the element
``z = t^(1/2) - t^(-1/2)`` and its powers.

``exact`` is the package's one rule for a number a caller passes in: an
int stays an int, an integral ``fractions.Fraction`` becomes an int,
and anything else, a float, a string or a Decimal, raises TypeError.
Ring coefficients, Seifert and linking entries and the scalar arguments
of the conversions all pass through it.  ``HalfLaurent.__init__`` is the
one place that applies it to a coefficient and drops the zero terms, so
no arithmetic of HalfLaurent drops a zero term itself.

``_bareiss`` is the package's exact elimination over the integers, a
fraction-free Bareiss step over int rows, and its docstring states its
contract.  Each elimination job has one function: ``determinant`` checks
the rows a caller passes in, ``_scaled_inverse`` is the Gauss-Jordan of
[M | I] on int rows the package builds, and ``invariants._coefficients``
runs ``_bareiss`` on its own int rows: once, on the rows of
det(t dV - dV^T) at t = 2^K, whose digits are the Alexander
coefficients, or, off a symplectic basis or for long entries, once per
interpolation node and once for the solve.  The package's second kernel,
a Hessenberg reduction modulo a prime (``invariants._charpoly``), is
not here: only ``invariants`` runs it, for the Alexander coefficients of
a symplectic-basis form above the packed cutoff.  No elimination runs
over the ring itself.

The ring's only polynomial division is by z, in ``z_power_quotient``.  With
u = t^(1/2), p = z * q means q_(e-1) = p_e + q_(e+1) on the coefficients
of u^e, so each coefficient of q is a running sum of p's coefficients of
one exponent parity, from the top exponent down, and z divides p exactly
when both parity sums end at 0.

>>> print(Z * Z)
t - 2 + t^-1
>>> HalfLaurent({2: 1, 0: -1, -2: 1}).eval_at_one()
Fraction(1, 1)
"""

from __future__ import annotations

from fractions import Fraction


class NonSquareError(ValueError):
    """Determinant of a non-square matrix was requested."""


def exact(value):
    """The value as an exact number: an int, or a Fraction that is not integral.

    >>> exact(Fraction(4, 2)), exact(Fraction(1, 2)), exact(True)
    (2, Fraction(1, 2), 1)
    >>> exact(0.5)
    Traceback (most recent call last):
    ...
    TypeError: exact number expected (int or Fraction), got float
    """
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    if isinstance(value, int):  # bool and int subclasses
        return int(value)
    raise TypeError(f"exact number expected (int or Fraction), got {type(value).__name__}")


class _Record:
    """Base of the package's immutable records, such as presentation.Component.

    A subclass names its fields, in order, in __match_args__ (as a
    dataclass does, so pattern matching works too) and its own __init__
    writes them into the instance dict, vars(self), where a _kept method
    also keeps its value.  _trusted(**fields) writes them there as given,
    bypassing __init__ and any check it makes: documents builds a parsed
    Component and SurgeryChain so, from values it has checked already.
    Equality, hashing and repr read those fields only, in that order;
    equality holds only between instances of one class, and no attribute
    can be assigned or deleted.  The package
    avoids dataclasses, which would load inspect on every start-up, and
    keeps this base here because every module with a record imports ring.
    """

    @classmethod
    def _trusted(cls, **fields):
        """A record of these field values, each named by its field and
        stored as given with no check: the caller has made them what
        __init__ would store."""
        self = cls.__new__(cls)
        vars(self).update(fields)
        return self

    def _values(self):
        return tuple(getattr(self, f) for f in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class _kept:
    """A method read as an attribute, computed on first read and kept in the
    instance dict: functools.cached_property without the lock that makes
    each first read of one about twice as slow on CPython 3.11.

    A module function of one record can be kept the same way: decorated,
    it is called as before, f(obj), and keeps its value in obj's instance
    dict under the function's name.  This is how a module keeps a value
    on a record whose class it cannot name without an import cycle, such
    as invariants._case on a presentation."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = vars(obj)[self.name] = self.func(obj)
        return value

    def __call__(self, obj):
        kept = vars(obj)
        return kept[self.name] if self.name in kept else self.__get__(obj)


class HalfLaurent:
    """A Laurent polynomial in t with half-integer exponents.

    Terms are stored as a map from the exponent numerator k (meaning
    t^(k/2)) to a nonzero rational coefficient.  Two values are equal
    iff their term maps are equal; the zero polynomial is the empty map.

    >>> p = HalfLaurent({1: 1, -1: -1})   # t^(1/2) - t^(-1/2)
    >>> p == Z
    True
    >>> p.eval_at_one()
    Fraction(0, 1)
    >>> p.derivative().eval_at_one()
    Fraction(1, 1)
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for k, c in terms.items():
                if type(k) is not int:
                    raise TypeError("exponent numerators must be int")
                c = exact(c)
                if c:
                    clean[k] = c
        # kept in descending exponent order so printing and serialization
        # are deterministic
        self._terms = {k: clean[k] for k in sorted(clean, reverse=True)}

    @property
    def terms(self):
        return dict(self._terms)

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = HalfLaurent({0: other})
        if not isinstance(other, HalfLaurent):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        # a constant equals its number, so it hashes as that number
        if self._terms.keys() <= {0}:
            return hash(self._terms.get(0, 0))
        return hash(frozenset(self._terms.items()))

    def __neg__(self):
        return HalfLaurent({k: -c for k, c in self._terms.items()})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = HalfLaurent({0: other})
        if not isinstance(other, HalfLaurent):
            return NotImplemented
        out = dict(self._terms)
        for k, c in other._terms.items():
            out[k] = out.get(k, 0) + c
        return HalfLaurent(out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = HalfLaurent({0: other})
        if not isinstance(other, HalfLaurent):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return HalfLaurent({k: v * other for k, v in self._terms.items()})
        if not isinstance(other, HalfLaurent):
            return NotImplemented
        out = {}
        for ka, ca in self._terms.items():
            for kb, cb in other._terms.items():
                out[ka + kb] = out.get(ka + kb, 0) + ca * cb
        return HalfLaurent(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if type(n) is not int or n < 0:
            raise ValueError("only non-negative integer powers are defined")
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def eval_at_one(self):
        """Sum of all coefficients, since t^(k/2) = 1 at t = 1."""
        return Fraction(sum(self._terms.values()))

    def derivative(self):
        """Formal d/dt: c * t^(k/2) maps to c*(k/2) * t^(k/2 - 1)."""
        return HalfLaurent({k - 2: c * Fraction(k, 2) for k, c in self._terms.items()})

    def second_derivative_at_one(self):
        """Sum of c * (k/2) * (k/2 - 1) over all terms, as one sum of c * k (k - 2) over 4."""
        return Fraction(sum(c * (k * (k - 2)) for k, c in self._terms.items()), 4)

    def involution(self):
        """The substitution t -> t^(-1), negating every exponent."""
        return HalfLaurent({-k: c for k, c in self._terms.items()})

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for k, c in self._terms.items():
            neg = c < 0
            mag = -c if neg else c
            if k == 0:
                body = str(mag)
            else:
                power = "t" if k == 2 else f"t^{exponent_str(k)}"
                body = power if mag == 1 else f"{mag}*{power}"
            if not parts:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"HalfLaurent({self._terms!r})"


def exponent_str(k):
    """Render the exponent k/2 in lowest terms ('2', '-1', '3/2', ...)."""
    return str(k // 2) if k % 2 == 0 else f"{k}/2"


ZERO = HalfLaurent()
ONE = HalfLaurent({0: 1})
T = HalfLaurent({2: 1})
Z = HalfLaurent({1: 1, -1: -1})  # t^(1/2) - t^(-1/2)


def _over_z(p):
    """p / z for a nonzero p, or None when z does not divide p.

    q_(e-1) = p_e + q_(e+1), a running sum over the exponents e of one
    parity from the top down (see the module docstring).
    """
    terms = p._terms
    sums = [0, 0]
    quo = {}
    for e in range(max(terms), min(terms) - 1, -1):
        sums[e & 1] += terms.get(e, 0)
        quo[e - 1] = sums[e & 1]
    return None if sums[0] or sums[1] else HalfLaurent(quo)


def z_power_quotient(p, k):
    """The exact q with p = z^k * q, or None when z^k does not divide p.

    The ring's only polynomial division: k divisions by z, each a running
    sum of coefficients that is exact when, for each exponent parity, the
    coefficients of its dividend sum to 0.  No coefficient is ever
    divided, so int and Fraction coefficients take the same path.
    """
    if type(k) is not int or k < 0:
        raise ValueError("k must be a non-negative integer")
    while p and k:
        p = _over_z(p)
        k -= 1
    return p


def divides_z_power(p, k):
    """Whether p lies in the ideal generated by z^k.

    >>> divides_z_power(Z**3 * (T + 3), 3)
    True
    >>> divides_z_power(HalfLaurent({2: 1, 0: -1, -2: 1}), 1)
    False
    """
    return z_power_quotient(p, k) is not None


def _bareiss(a, n, jordan):
    """Fraction-free elimination of the first n columns of the rows a, in place.

    The package's one exact elimination (Bareiss, Math. Comp. 22, 1968).
    a holds at least n int rows, each at least n long, and is changed, so
    the caller passes rows of its own.  Step k clears column k below the
    pivot p, or in every other row when jordan is true, and updates only
    the columns after k; columns before it are left stale.  Each update
    x -> (p x - q y) // prev, for the row's multiplier q = a[i][k] and the
    pivot row's entry y, divides the previous pivot out with //, exact by
    Sylvester's identity.  This keeps coefficient growth polynomial
    instead of exponential.

    Returns (sign, last pivot).  Their product is the determinant of the
    first n columns: sign is that of the row swaps, and the pair is
    (1, 1) when n is 0 and (0, 0) when a column has no pivot, that is
    when those columns are singular.  Row operations keep L M = D I,
    so a Gauss-Jordan of [M | I] ends with D M^-1 in the columns after n
    for its last pivot D = +-det M, and no caller treats any size apart.
    """
    sign = 1
    prev = 1
    for k in range(n):
        if not a[k][k]:
            pivot = next((i for i in range(k + 1, n) if a[i][k]), None)
            if pivot is None:
                return 0, 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        pk = a[k]
        p = pk[k]
        width = len(pk)
        for i in range(0 if jordan else k + 1, n):
            if i == k:
                continue
            ai = a[i]
            q = ai[k]
            for j in range(k + 1, width):
                ai[j] = (p * ai[j] - q * pk[j]) // prev
        prev = p
    return sign, prev


def determinant(rows):
    """Exact determinant of a square matrix of int entries, by _bareiss.

    rows is a sequence of equal-length rows; it is copied, never changed.
    A row of another length raises NonSquareError, and any entry that is
    not an int, a Fraction or a HalfLaurent included, raises TypeError.
    The 0x0 matrix has determinant 1 by the empty-product convention.

    >>> determinant([[0, 1, 2], [3, 4, 5], [6, 7, 9]])
    -3
    >>> determinant([])
    1
    """
    a = [list(r) for r in rows]
    n = len(a)
    for r in a:
        if len(r) != n:
            raise NonSquareError(f"matrix has {n} rows and a row of length {len(r)}")
        for x in r:
            if type(x) is not int:
                raise TypeError(f"entries must be int, got {type(x).__name__}")
    sign, last = _bareiss(a, n, jordan=False)
    return sign * last


def _scaled_inverse(a):
    """(d, d * M^-1) for the int rows a of a square matrix M, unchecked.

    a must be a fresh list of int lists, which it extends in place to
    [M | I] and eliminates by _bareiss as a Gauss-Jordan.  d is the last
    pivot, +-det M; it is 0 when M is singular, and d * M^-1 is then
    meaningless.

    >>> _scaled_inverse([[2, 1], [1, 3]])
    (5, [[3, -1], [-1, 2]])
    """
    n = len(a)
    for i, r in enumerate(a):
        r += [0] * n
        r[n + i] = 1
    d = _bareiss(a, n, True)[1]
    return d, [r[n:] for r in a]
