"""Exact-arithmetic core: multivariate rational polynomials, square
matrices, banded operators on an integer-indexed basis, truncated series in
t = y, and the Gaussian pairing of polynomials in x.

All values in this module are immutable after construction.  Polynomials
and pairings are exact; a ``Matrix`` computes in its entries' own
arithmetic, and exactness is enforced where a value is made exact
(``_as_fraction``) and where a residual is read (``suites._Recorder.exact``).

A ``Polynomial`` stores integer numerators over one shared positive
denominator that has no factor common to all of them, so its arithmetic runs
on plain ints with one gcd per result instead of one per coefficient
operation (Knuth, TAOCP vol. 2, 4.5.1 and 4.6.4).  Rational values leave the
module as ``fractions.Fraction``: ``Polynomial.terms`` and Gaussian
pairings.  The one exception is ``Polynomial.z_line``, which hands out
ints: the restriction of a polynomial to the line (x0, y0, z), as
the numerators of its coefficients in z over one denominator, so a caller
that evaluates one line at many z (``contraction_residual``) builds no
Fraction per point.  Applying a vector field and bracketing two
(``contraction``) is likewise one pass in ints, ``_add_lie``, with one
normalization, not a sum of products of partial derivatives.

Every polynomial ``liegen`` builds lives in one ring, Q[x, y, z], so a
``Polynomial`` has one storage form: its numerators are keyed by exponent
triples (a, b, c) for x^a y^b z^c, whichever variables it uses.  Sums and
products then need no alignment of variable lists: a product adds the
exponent triples termwise.  By a one-term polynomial that is a shift of the
other factor's exponents, which makes no two keys meet, so such a product is
one comprehension over d_p d_q, with no pair list and no lcm;
``differentiate`` lowers one exponent the same way, one comprehension per
axis.  The public constructor validates its input and embeds it into
triples; arithmetic on polynomials, whose operands are already valid, builds
its results through one internal constructor that only drops zero
numerators and divides out the common factor.  The form is
canonical, so a difference of two operands with equal storage (the
lhs - rhs of every passing exact check) is the zero polynomial with no pass
over the terms.  The variables a polynomial uses are read off its terms
when asked for, so no result is scanned for them.  A ``Matrix`` result is
likewise built by an internal constructor, ``Matrix._make``, from the
square tuple of tuples that the arithmetic already made: no copy and no
check of its shape.

A series in t is a polynomial in y, truncated where a caller says: a
product through t^order (``_series_product``) forms no pair of terms above
it.  ``series_exp`` runs the ODE recurrence a_n = (1/n) sum_j j s_j a_{n-j}
over the nonzero s_j with every a_n held as integers over one running
denominator, n! d^n for s over d: each order is one pass in ints, with no
lcm and no normalization, and the whole series is normalized once.
``weighted_overlaps``, the Gaussian pairing of one p with many q, builds
p's row of Gaussian moments once, in ints, and reads each overlap off it as
one dot product.
A power ``p ** n`` is repeated squaring, about log2(n) products instead of
n - 1.

A ladder representation of a Lie algebra acts on its basis with a few
shifts, e_n -> sum_s c_s(n) e_{n+s}: the H3 number basis and the E(2) basis
J_n(r) e^{i n phi} both do.  A ``BandedOp`` stores exactly that, each c_s a
function of n.  Sums, products and brackets compose the functions, so a
column read at any n is exact: there is no window, and no edge where a
truncated dense product would be wrong.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Union

Scalar = Union[int, Fraction]

#: Variable names a Polynomial may use, in canonical display/storage order.
CANONICAL_VARS = ("x", "y", "z")
#: The exponent triple of the constant monomial.
_CONSTANT = (0, 0, 0)
#: The exponent triple of x, y and z: what d/dv takes off a monomial.
_UNIT = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _is_int(value) -> bool:
    """Whether ``value`` is an int other than a bool: a bool is an int to
    isinstance, but True is no exact scalar, exponent, count or order."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_order(value, least: int | None = 0, name: str = "order") -> None:
    """The one check of an integer argument in ``liegen``: an order, a
    degree, an exponent, a count, a seed or a dimension.  ``TypeError`` for
    a ``value`` that is not an int (a bool included), ``ValueError`` below
    ``least`` (``None``: any int), each naming ``name`` in its message."""
    if not _is_int(value):
        raise TypeError(f"{name} must be an int, not a {type(value).__name__}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}")


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if _is_int(value):
        return Fraction(value)
    raise TypeError(f"expected an exact scalar, got {type(value).__name__}")


def _as_complex(value) -> complex:
    """``value``, a number, as a complex.  ``TypeError`` for anything else,
    a str or a bool included, which ``complex`` would parse or read as 0
    or 1 (numpy's bool is no ``numbers.Number``).  A float or a complex,
    by its exact type, skips the checks."""
    kind = type(value)
    if kind is float or kind is complex:
        return complex(value)
    if not isinstance(value, numbers.Number) or isinstance(value, bool):
        raise TypeError(f"expected a number, got {type(value).__name__}")
    return complex(value)


def _worst(*values):
    """Largest of the values, NaN if any is NaN, inf if there are none:
    plain ``max`` keeps a number over a NaN met later, so a NaN residual
    would pass its gate, and a gate that saw nothing must not pass."""
    if any(v != v for v in values):
        return math.nan
    return max(values, default=math.inf)


def _scaled_powers(value, top: int) -> tuple[list, int]:
    """([p^k q^(top - k) for k = 0..top], q^top) for value = p/q: the powers
    of value up to ``top`` over their common denominator q^top.  ``value``
    is not read when ``top`` is 0."""
    if not top:
        return [1], 1
    value = _as_fraction(value)
    p, q = value.numerator, value.denominator
    return [p ** k * q ** (top - k) for k in range(top + 1)], q ** top


def _over_lcm(polys) -> tuple[list, int]:
    """The polynomials as numerators over L, the lcm of their denominators:
    ([[(exponent triple, int), ...] per polynomial], L)."""
    polys = tuple(polys)
    lcm = math.lcm(*(p._den for p in polys))
    return [[(e, n * scale) for e, n in p._nums.items()]
            for p in polys for scale in (lcm // p._den,)], lcm


def _add_lie(nums: dict, f: dict, field, sign: int) -> dict:
    """nums += sign * sum_v c_v df/dv in ints, where ``f`` and each c_v of
    ``field`` are numerator dicts keyed by exponent triples; returns nums."""
    get = nums.get
    for axis, coeff in enumerate(field):
        if not coeff:
            continue
        # d/dv lowers the exponent on this axis by one
        u0, u1, u2 = _UNIT[axis]
        coeff = coeff.items()
        for exps, n in f.items():
            k = exps[axis]
            if not k:
                continue
            a0, a1, a2 = exps
            a0, a1, a2, nk = a0 - u0, a1 - u1, a2 - u2, sign * n * k
            for (b0, b1, b2), m in coeff:
                key = (a0 + b0, a1 + b1, a2 + b2)
                nums[key] = get(key, 0) + nk * m
    return nums


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class Polynomial:
    """Polynomial in x, y, z with exact rational coefficients.

    Every instance is stored over all of :data:`CANONICAL_VARS`: the
    monomial x^a y^b z^c has the coefficient ``_nums[(a, b, c)] / _den``.
    The storage is in one canonical form, so equal polynomials have equal
    storage:

    * ``_den > 0`` and ``gcd(_den, *_nums.values()) == 1``;
    * no numerator is zero (so the zero polynomial is ``{}`` over 1).

    :attr:`variables` lists the variables some term uses, in canonical
    order, and :attr:`terms` gives the coefficients as a read-only mapping
    from exponent tuples aligned with :attr:`variables` to nonzero
    Fractions.  Instances are immutable; every operation returns a new
    polynomial.
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, variables: Iterable[str], terms: Mapping[tuple, Scalar]):
        variables = tuple(variables)
        for name in variables:
            if name not in CANONICAL_VARS:
                raise ValueError(f"unknown variable {name!r}")
        if list(variables) != sorted(variables, key=CANONICAL_VARS.index):
            raise ValueError("variables must be in canonical order")
        positions = [CANONICAL_VARS.index(v) for v in variables]
        cleaned = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != len(variables):
                raise ValueError("exponent tuple does not match variables")
            for e in exps:
                _check_order(e, name="an exponent")
            coeff = _as_fraction(coeff)
            if coeff != 0:
                key = [0] * len(CANONICAL_VARS)
                for pos, e in zip(positions, exps):
                    key[pos] = e
                key = tuple(key)
                cleaned[key] = cleaned.get(key, _ZERO) + coeff
        den = math.lcm(*(c.denominator for c in cleaned.values()))
        self._settle({e: c.numerator * (den // c.denominator)
                      for e, c in cleaned.items()}, den)

    def _settle(self, nums: dict, den: int) -> None:
        """Store ``nums / den`` (``den > 0``) in canonical form: zero
        numerators dropped and the common factor of ``den`` and the
        numerators divided out."""
        if 0 in nums.values():
            nums = {e: n for e, n in nums.items() if n}
        g = math.gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {e: n // g for e, n in nums.items()}
        object.__setattr__(self, "_nums", nums)
        object.__setattr__(self, "_den", den)

    @classmethod
    def _make(cls, nums: dict, den: int) -> "Polynomial":
        """Internal constructor for arithmetic results: every key is an
        exponent triple, every numerator an int and ``den`` a positive int,
        so only the normalization runs."""
        poly = object.__new__(cls)
        poly._settle(nums, den)
        return poly

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        """The zero polynomial: one shared instance, as polynomials are
        immutable."""
        return _ZERO_POLY

    @classmethod
    def constant(cls, value: Scalar) -> "Polynomial":
        value = _as_fraction(value)
        return cls._make({_CONSTANT: value.numerator}, value.denominator)

    @classmethod
    def variable(cls, name: str) -> "Polynomial":
        return cls((name,), {(1,): _ONE})

    # -- structure ---------------------------------------------------------

    def _used(self) -> list:
        """Positions in :data:`CANONICAL_VARS` of the variables some term
        uses."""
        return [i for i, column in enumerate(zip(*self._nums)) if any(column)]

    @property
    def variables(self) -> tuple:
        """The variables some term uses, in canonical order."""
        return tuple(CANONICAL_VARS[i] for i in self._used())

    @property
    def terms(self) -> Mapping[tuple, Fraction]:
        """Exponent tuple aligned with :attr:`variables` -> nonzero Fraction
        coefficient, built from the integer numerators on each access."""
        den, used = self._den, self._used()
        return MappingProxyType(
            {tuple(e[i] for i in used): Fraction(n, den)
             for e, n in self._nums.items()})

    @property
    def is_zero(self) -> bool:
        return not self._nums

    def degree(self) -> int:
        """Total degree; zero polynomial reports -1."""
        return max(map(sum, self._nums), default=-1)

    # -- arithmetic --------------------------------------------------------
    # Operands are valid polynomials, so results go through _make.

    def _plus(self, other: "Polynomial", sign: int) -> "Polynomial":
        """self + sign * other, both sides brought to the lcm of the two
        denominators."""
        if not other._nums:
            return self
        if not self._nums:
            return other if sign == 1 else -other
        # storage is canonical: equal storage is an equal value, so a
        # passing check's lhs - rhs needs no pass
        if sign < 0 and self._den == other._den and self._nums == other._nums:
            return _ZERO_POLY
        da, db = self._den, other._den
        den = math.lcm(da, db)
        sa, sb = den // da, sign * (den // db)
        mine = self._nums
        nums = dict(mine) if sa == 1 else {e: n * sa for e, n in mine.items()}
        get = nums.get
        for e, n in other._nums.items():
            nums[e] = get(e, 0) + n * sb
        return Polynomial._make(nums, den)

    def __add__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other)
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._make(
            {e: -n for e, n in self._nums.items()}, self._den)

    def __sub__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other)
        return self._plus(other, -1)

    def __rsub__(self, other) -> "Polynomial":
        return Polynomial.constant(other)._plus(self, -1)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            if not (_is_int(other) or isinstance(other, Fraction)):
                return NotImplemented
            p, q = other.numerator, other.denominator
            return Polynomial._make(
                {e: n * p for e, n in self._nums.items()}, self._den * q)
        # by one term the product is a shift of the exponents: no two keys
        # meet and no numerator is zero, so one comprehension, over d_p d_q
        one, many = (other, self) if len(other._nums) == 1 else (self, other)
        if len(one._nums) == 1:
            ((b0, b1, b2), m), = one._nums.items()
            return Polynomial._make(
                {(a0 + b0, a1 + b1, a2 + b2): n * m
                 for (a0, a1, a2), n in many._nums.items()},
                self._den * other._den)
        return _sum_of_products([(self, other)])

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Polynomial":
        scalar = _as_fraction(scalar)
        return self * (Fraction(1) / scalar)

    def __pow__(self, n: int) -> "Polynomial":
        """self^n by repeated squaring: one squaring per bit of n below the
        top one and one product per further set bit, so x^12 takes 4
        products, not 11 (Knuth, TAOCP vol. 2, 4.6.3).  The products are
        exact and every result is in canonical form, so the order in which
        they run does not show in the power."""
        _check_order(n, name="the exponent")
        out, base = None, self
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return Polynomial.constant(1) if out is None else out

    # -- calculus and evaluation -------------------------------------------

    def differentiate(self, var: str) -> "Polynomial":
        if var not in CANONICAL_VARS:
            raise ValueError(f"unknown variable {var!r}")
        # d/dv lowers one exponent: distinct keys stay distinct, and n * k
        # is no zero
        terms = self._nums.items()
        if var == "x":
            nums = {(a - 1, b, c): n * a for (a, b, c), n in terms if a}
        elif var == "y":
            nums = {(a, b - 1, c): n * b for (a, b, c), n in terms if b}
        else:
            nums = {(a, b, c - 1): n * c for (a, b, c), n in terms if c}
        return Polynomial._make(nums, self._den)

    def z_line(self, x0: Scalar, y0: Scalar) -> tuple[list, int]:
        """The restriction to the line (x0, y0, z) as ``(nums, den)``: the
        coefficient of z^c there is ``nums[c] / den``, for c from 0 to the
        degree in z (``nums`` is ``[0]`` for the zero polynomial).

        With x0 = p/q, y0 = r/s and D_x, D_y the degrees in x and y,

            nums[c] = sum_{a, b} num_(a, b, c) p^a q^(D_x - a) r^b s^(D_y - b),
            den = _den * q^D_x * s^D_y,

        one pass over the terms in ints, with no gcd.  A coordinate whose
        variable no term uses is never read.
        """
        if not self._nums:
            return [0], 1
        top_x, top_y, top_z = map(max, zip(*self._nums))
        den = self._den
        x_pows, q = _scaled_powers(x0, top_x)
        den *= q
        y_pows, q = _scaled_powers(y0, top_y)
        den *= q
        line = [0] * (top_z + 1)
        for (a, b, c), n in self._nums.items():
            line[c] += n * x_pows[a] * y_pows[b]
        return line, den

    def substitute(self, mapping: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Replace variables by polynomials (unlisted variables are kept)."""
        for v in mapping:
            if v not in CANONICAL_VARS:
                raise ValueError(f"unknown variable {v!r}")
        out = Polynomial.zero()
        for exps, coeff in self.terms.items():
            term = Polynomial.constant(coeff)
            for v, e in zip(self.variables, exps):
                if e:
                    base = mapping.get(v, Polynomial.variable(v))
                    term = term * base ** e
            out = out + term
        return out

    # -- comparison / display ----------------------------------------------

    def __eq__(self, other) -> bool:
        # a bool is no exact scalar: NotImplemented, so X == True is False
        if _is_int(other) or isinstance(other, Fraction):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self):
        # a constant equals its scalar, so must hash alike
        if self._nums.keys() <= {_CONSTANT}:
            return hash(Fraction(self._nums.get(_CONSTANT, 0), self._den))
        return hash((self._den, frozenset(self._nums.items())))

    def __repr__(self):
        if not self._nums:
            return "0"
        terms = self.terms
        parts = []
        for exps in sorted(terms, key=lambda e: (sum(e), e), reverse=True):
            coeff = terms[exps]
            factors = [f"{v}^{e}" if e > 1 else v
                       for v, e in zip(self.variables, exps) if e]
            body = "*".join(factors)
            if not body:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(body)
            elif coeff == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{coeff}*{body}")
        text = " + ".join(parts)
        return text.replace("+ -", "- ")


_ZERO_POLY = Polynomial._make({}, 1)
X = Polynomial.variable("x")
Y = Polynomial.variable("y")
Z = Polynomial.variable("z")


# ---------------------------------------------------------------------------
# square matrices
# ---------------------------------------------------------------------------

class Matrix:
    """Immutable square matrix of its entries as given (ints and Fractions
    give exact arithmetic); operations need matching sizes (``ValueError``)."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable]):
        rows = tuple(map(tuple, rows))
        if any(len(r) != len(rows) for r in rows):
            raise ValueError("matrix must be square")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _make(cls, rows: tuple) -> "Matrix":
        """Internal constructor for results: ``rows`` is already a square
        tuple of tuples, so nothing is copied or checked."""
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "rows", rows)
        return matrix

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Matrix is immutable")

    def __getitem__(self, idx: tuple):
        i, j = idx
        return self.rows[i][j]

    # a strict zip raises ValueError on a size mismatch, where a plain one
    # would cut the larger matrix down to the smaller
    def __add__(self, other: "Matrix") -> "Matrix":
        return Matrix._make(tuple(
            tuple(a + b for a, b in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows, strict=True)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        return Matrix._make(tuple(
            tuple(a - b for a, b in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows, strict=True)))

    def __mul__(self, other) -> "Matrix":
        if not isinstance(other, Matrix):
            return Matrix._make(tuple(tuple(e * other for e in r)
                                      for r in self.rows))
        if len(other.rows) != len(self.rows):
            raise ValueError("matrix sizes differ")
        # visit only products of two nonzero entries, k ascending per (i, j)
        other_rows = [[(j, b) for j, b in enumerate(row) if b]
                      for row in other.rows]
        rows = []
        for row in self.rows:
            out = [0] * len(row)
            for k, a in enumerate(row):
                if a:
                    for j, b in other_rows[k]:
                        out[j] = out[j] + a * b
            rows.append(tuple(out))
        return Matrix._make(tuple(rows))

    def apply(self, vec) -> tuple:
        return tuple(sum(a * v for a, v in zip(row, vec, strict=True))
                     for row in self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows

    def __repr__(self):
        return "Matrix(" + ", ".join(str(list(r)) for r in self.rows) + ")"


# ---------------------------------------------------------------------------
# banded operators
# ---------------------------------------------------------------------------

class BandedOp:
    """Immutable operator on a basis e_n indexed by the integers,
    e_n -> sum_s c_s(n) e_{n+s}: ``bands`` maps each shift s to c_s, a
    function of n that returns an exact scalar.  Sums, differences and
    products build new coefficient functions and evaluate nothing; a column
    reads them at one n, so every result is exact at every index, with no
    truncated edge."""

    __slots__ = ("bands",)

    def __init__(self, bands: Mapping[int, Callable[[int], Scalar]]):
        object.__setattr__(self, "bands", MappingProxyType(dict(bands)))

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("BandedOp is immutable")

    def column(self, n: int) -> dict:
        """{m: coefficient of e_m in the image of e_n}, without the exact
        zeros; an inexact zero stays, so an exact record reading the column
        sees it.  ``n`` is checked by :func:`_check_order`."""
        _check_order(n, None, "n")
        return {n + s: v for s, c in self.bands.items()
                if (v := c(n)) or not isinstance(v, (int, Fraction))}

    def __add__(self, other: "BandedOp") -> "BandedOp":
        bands: dict = {}
        for op in (self, other):
            for s, c in op.bands.items():
                bands.setdefault(s, []).append(c)
        return BandedOp({s: lambda n, cs=cs: sum(c(n) for c in cs)
                         for s, cs in bands.items()})

    def __sub__(self, other: "BandedOp") -> "BandedOp":
        return self + other * -1

    def __mul__(self, other) -> "BandedOp":
        """The product with an operator (``self`` applied second) or with a
        scalar: (A B) e_n = sum_t b_t(n) sum_s a_s(n+t) e_{n+t+s}."""
        if not isinstance(other, BandedOp):
            return BandedOp({s: lambda n, c=c: c(n) * other
                             for s, c in self.bands.items()})
        terms: dict = {}
        for t, b in other.bands.items():
            for s, a in self.bands.items():
                terms.setdefault(s + t, []).append((a, t, b))
        return BandedOp({u: lambda n, p=p: sum(a(n + t) * b(n)
                                               for a, t, b in p)
                         for u, p in terms.items()})

    def bracket(self, other: "BandedOp") -> "BandedOp":
        """The commutator [self, other] = self other - other self."""
        return self * other - other * self


# ---------------------------------------------------------------------------
# series in t = y
# ---------------------------------------------------------------------------

def _series_product(p: Polynomial, q: Polynomial, order: int) -> Polynomial:
    """p * q through t^order, t = y, forming no pair of terms above it: the
    terms of q are sorted by their power of y once, so the inner loop stops
    at the first one that would take the product above t^order."""
    right = sorted(q._nums.items(), key=lambda item: item[0][1])
    nums: dict = {}
    get = nums.get
    for (a0, a1, a2), na in p._nums.items():
        for (b0, b1, b2), nb in right:
            if a1 + b1 > order:
                break
            key = (a0 + b0, a1 + b1, a2 + b2)
            nums[key] = get(key, 0) + na * nb
    return Polynomial._make(nums, p._den * q._den)


def series_exp(s: Polynomial, order: int) -> Polynomial:
    """exp(s) through t^order, t = y, for s with no t^0 term (``ValueError``
    otherwise); ``order`` is checked by :func:`_check_order`.

    With s = sum_j s_j t^j, a = exp(s) solves a' = s' a, which on
    coefficients is the recurrence

        a_0 = 1,    a_n = (1/n) * sum_{j=1..n} j s_j a_{n-j}

    (Brent & Kung 1978; Knuth, TAOCP vol. 2, 4.7).  Only the nonzero s_j
    take part, so the cost is O(order * nonzero s_j) coefficient products
    instead of O(order) full series products.

    Every a_n is held over one running denominator: with s_j = S_j / d,
    d = ``s._den``, the numerators A_n = a_n n! d^n are integers, and

        A_n = sum_j (j S_j) A_{n-j} (n-1)! / (n-j)! d^(j-1),

    so each order is one pass in ints, with no lcm and no normalization.
    s is split by powers of y once; each part keeps its t^j, so A_n comes
    out as A_n t^n.  At the end every order is brought to order! d^order
    and the sum is normalized once.
    """
    _check_order(order)
    parts: dict = {}
    for (a0, j, a2), n in s._nums.items():
        if not j:
            raise ValueError("series_exp requires a zero constant term")
        parts.setdefault(j, []).append(((a0, j, a2), j * n))
    weighted = sorted(parts.items())
    d = s._den
    a = [{_CONSTANT: 1}]
    for n in range(1, order + 1):
        nums: dict = {}
        get = nums.get
        for j, part in weighted:
            if j > n:
                break
            weight = math.perm(n - 1, j - 1) * d ** (j - 1)
            prev = a[n - j].items()
            for (b0, b1, b2), m in part:
                m *= weight
                for (c0, c1, c2), num in prev:
                    key = (b0 + c0, b1 + c1, b2 + c2)
                    nums[key] = get(key, 0) + m * num
        a.append(nums)
    # A_n t^n over n! d^n has no term in common with another order: scaled
    # by order! d^order / (n! d^n), the sum is one dict
    out, scale = {}, 1
    for n in range(order, -1, -1):
        out.update({e: m * scale for e, m in a[n].items()})
        scale *= n * d
    return Polynomial._make(out, math.factorial(order) * d ** order)


def _sum_of_products(pairs: list, div: int = 1) -> Polynomial:
    """(sum of a * b over the ``(a, b)`` polynomial pairs) / ``div``.

    Each product is brought to the lcm L of the d_a * d_b by the cofactor
    L / (d_a * d_b) into one dict of ints, and one ``_make`` normalizes
    the sum: no product or partial sum is built.
    """
    den = math.lcm(*(a._den * b._den for a, b in pairs))
    nums: dict = {}
    get = nums.get
    for a, b in pairs:
        scale = den // (a._den * b._den)
        for (a0, a1, a2), na in a._nums.items():
            na *= scale
            for (b0, b1, b2), nb in b._nums.items():
                key = (a0 + b0, a1 + b1, a2 + b2)
                nums[key] = get(key, 0) + na * nb
    return Polynomial._make(nums, den * div)


# ---------------------------------------------------------------------------
# the Gaussian pairing
# ---------------------------------------------------------------------------

def weighted_overlaps(p: Polynomial, qs: Iterable[Polynomial]) -> list:
    """[integral (p w)(q w) dx over the real line for q in ``qs``], w =
    exp(-x^2/2), each a Fraction in units of sqrt(pi), for p and every q in
    x only (``ValueError`` for a term in y or z).

    exp(-x^2) has the moments (2j-1)!!/2^j at x^(2j) and 0 at odd powers.
    With p = sum n_a x^a / d_p, q = sum m_b x^b / d_q, 2h the top even power
    of p times the qs and w_j = (2j-1)!! 2^(h-j), the overlap with q is
    sum_b m_b v_b over d_p d_q 2^h, where

        v_b = sum_a n_a w_((a+b)/2)    over a + b even

    is p's moment row.  The row is built once, in ints, for every b up to
    the top degree of the qs, so each overlap is one dot product with no
    product p q built: the orthonormality record, p = H_n against H_m for
    every m <= n, does O(N^3) term products over n <= N instead of O(N^4).
    a + b is even exactly when a and b have the same parity, so v_b reads
    only p's terms of b's parity; the pairs left out are exactly those
    whose moment is 0.
    """
    qs = tuple(qs)
    if any(e[1] or e[2] for poly in (p, *qs) for e in poly._nums):
        raise ValueError("the Gaussian pairing takes polynomials in x only")
    top = max((q.degree() for q in qs), default=-1)
    h = max(p.degree() + top, 0) // 2
    weights = [1 << h]
    for j in range(1, h + 1):
        weights.append(weights[-1] * (2 * j - 1) >> 1)
    by_parity = ([], [])
    for (a, _, _), n in p._nums.items():
        by_parity[a & 1].append((a, n))
    row = [sum(n * weights[(a + b) >> 1] for a, n in by_parity[b & 1])
           for b in range(top + 1)]
    den = p._den << h
    return [Fraction(sum(m * row[b] for (b, _, _), m in q._nums.items()),
                     den * q._den)
            for q in qs]
