"""Exact arithmetic over rational linear combinations of square roots.

A value is a finite sum ``c_0 + c_1*sqrt(r_1) + c_2*sqrt(r_2) + ...`` with
rational coefficients and squarefree positive integer radicands (radicand 1
is the rational part).  Square roots of distinct squarefree integers are
linearly independent over the rationals, so equality is a coefficient
comparison, the zero test is exact, and the field is closed under the four
ring operations, inversion and the sign/ReLU activations used by the engines.

A value is stored as integer numerators keyed by radicand over one common
positive denominator, in lowest terms, so each addition, subtraction or
multiplication works on plain integers and reduces once, by a single
multi-argument gcd, instead of once per term.  ``ExactScalar(x)`` is the
one coercion: it takes an ExactScalar (returned as it is), an int (bool
included) or a Fraction, and refuses any other type with TypeError, so no
value silently takes a float's binary expansion or a text grammar other
than ``parse_scalar``'s.  One combine step adds (denominator, numerators)
parts over the lcm of their denominators and reduces the sum by a single
gcd; ``exact_sum`` of three or more values, ``exact_dot``, ``normalize``
and ``parse_scalar`` all end in it.  Its last step, ``from_numerators``,
drops zero numerators and takes that gcd; ``mpnn`` reads values with
``numerators`` and makes its unreduced rows values with it, one gcd per
entry.  ``exact_dot`` adds each product's integer numerators into an
accumulator keyed by its raw denominator
x_den*y_den, so products over equal denominators need no rescaling, and
combines the accumulators.  Multiplication and ``exact_dot`` share one loop
over radicand products; a product by exactly 1 returns the other factor,
and ``reciprocal`` and ``inv_sqrt`` build 1/k and (n/d)**(-1/2) straight
from the integers.  ``to_text`` takes one gcd per term (integers past the
interpreter's int/str digit limit are converted in halves split at a power
of ten, as ``parse_scalar`` reads them back), and ``canonical_key`` keys a
value by its integers alone.  ``ExactScalar.terms`` presents the
coefficients as one reduced ``Fraction`` per radicand, and ``hash`` is that
of the ``Fraction`` of a rational value, else of its sorted terms.

A value whose numerators all have one sign has that sign, since a sum of
positive multiples of positive square roots is positive.  The sign of any
other nonzero value comes from certified dyadic interval enclosures of
each square root, scaled to integers, doubling the working precision until
the enclosure excludes zero.  The same integer bounds order many values at
once: ``exact_max``, ``exact_min`` and ``exact_order`` enclose each value
once at 64 bits, with each square root taken once per call, and subtract
two values exactly only when their enclosures overlap.  ``floor_exact``
doubles the precision of those bounds until both have the same floor, so
no decision goes through a float.

``invert`` takes a value of k primes down the tower of quadratic
subfields: multiplying it by its sign-flip conjugate in one prime p removes
p, so k such steps, each applied to a running numerator too, reach the
rational norm in 2k products of shrinking values.

``residues`` maps values into the integers modulo a fixed 66-bit prime in
which every prime up to 47 has a square root, a ring map that linear
algebra uses to prove full rank without exact elimination.

``InputError`` is the one class of refused outside input: every module
raises it, or a subclass, where a value, name or file it was given is at
fault.  A value past a fixed size limit of the program, such as one whose
radicands span more than 12 primes, which bounds the term growth of an
inverse, or whose sign is still undecided at 2**22 bits, raises its
subclass ``LimitError``.
"""
from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from functools import cmp_to_key
from typing import Collection, Iterable, Sequence, Union

_SIGN_START_BITS = 64
_FLOOR_START_BITS = 16  # isqrt(r << 32) of a radicand below 2**32 fits a machine word
_ORDER_BITS = 64
_SIGN_MAX_BITS = 1 << 22
_MAX_CONJUGATE_PRIMES = 12
_UNIT = {1: 1}  # the numerators of 1, over the denominator 1

Coercible = Union["ExactScalar", int, Fraction]


class InputError(ValueError):
    """Outside input is at fault: a malformed or unknown value, name or
    file, or one that drives a computation past a limit."""


class LimitError(InputError):
    """A value outgrew a fixed size limit of the program, such as the 12
    primes of its radicands that ``invert`` accepts (the numerator of an
    inverse can have a term for each of the 2**k products of k primes), or
    ``wl.ENCODING_GUARD``, which no irrational label entry's index fits."""


# A parsed radicand or degree factor may have no prime factor above this
# bound, so splitting it trial-divides by at most 2**15 numbers, and so does
# factoring a product of such radicands later.  The radicands the program
# emits on graphs of up to 65,536 vertices stay inside it: degree factors
# such as 1/sqrt(1 + d) have primes up to the largest degree plus 1.
MAX_RADICAND_PRIME = 1 << 16


def _squarefree_split(radicand: int) -> tuple[int, int]:
    """Write radicand = square**2 * free with free squarefree.  A radicand
    with a prime factor above MAX_RADICAND_PRIME raises LimitError, after
    trial division up to that bound only."""
    if radicand <= 0:
        raise ValueError(f"radicand must be a positive integer, got {radicand}")
    square, free = 1, 1
    r = radicand
    p = 2
    while p * p <= r and p <= MAX_RADICAND_PRIME:
        if r % p == 0:
            r, exp = _strip_prime(r, p)
            square *= p ** (exp // 2)
            if exp % 2:
                free *= p
        p += 1 if p == 2 else 2
    if r > MAX_RADICAND_PRIME:  # every prime up to the bound is divided out of r
        shown = _int_text(radicand) if radicand.bit_length() <= 256 else f"of {radicand.bit_length()} bits"
        raise LimitError(f"radicand {shown} has a prime factor above MAX_RADICAND_PRIME = {MAX_RADICAND_PRIME}")
    return square, free * r


def _strip_prime(r: int, p: int) -> tuple[int, int]:
    """(r / p**e, e) for the multiplicity e of the prime p in r.

    Dividing by p, p**2, p**4, ... while each divides and then by the same
    powers in reverse takes O(log e) divisions, where dividing by p one
    factor at a time would take e, each of a number as long as r.
    """
    exp = 0
    powers = []
    q = p
    while True:
        quotient, rest = divmod(r, q)
        if rest:
            break
        r = quotient
        exp += 1 << len(powers)
        powers.append(q)
        q *= q
    # what is left of the multiplicity is below 2**len(powers): its bits
    for k in range(len(powers) - 1, -1, -1):
        quotient, rest = divmod(r, powers[k])
        if not rest:
            r = quotient
            exp += 1 << k
    return r, exp


def _prime_factors(squarefree: int) -> tuple[int, ...]:
    out = []
    r = squarefree
    p = 2
    while p * p <= r:
        if r % p == 0:
            out.append(p)
            r //= p
        p += 1 if p == 2 else 2
    if r > 1:
        out.append(r)
    return tuple(out)


def _radicand_primes(num: dict[int, int]) -> list[int]:
    """The primes of the radicands of num, ascending; more than 12 raise
    LimitError."""
    primes = sorted({p for r in num if r != 1 for p in _prime_factors(r)})
    if len(primes) > _MAX_CONJUGATE_PRIMES:
        raise LimitError(f"radicands span {len(primes)} primes; the conjugate limit is {_MAX_CONJUGATE_PRIMES}")
    return primes


class ExactScalar:
    """Immutable element of the multi-quadratic field described above.

    ``_num`` maps each squarefree radicand to a nonzero integer numerator
    and ``_den`` is the one positive denominator they share, in lowest
    terms: ``gcd(_den, *_num.values()) == 1``.  Zero is ``({}, 1)``.  The
    form is canonical, so equality compares the two fields directly.
    """

    __slots__ = ("_num", "_den", "_hash", "_sign")

    def __new__(cls, value: Coercible = 0):
        """The value of an ExactScalar (itself), an int (bool included) or a
        Fraction; any other type, float and str included, raises TypeError."""
        if isinstance(value, ExactScalar):
            return value
        if isinstance(value, int):
            return _make({1: int(value)} if value else {}, 1)
        if isinstance(value, Fraction):
            return _make({1: value.numerator} if value else {}, value.denominator)
        raise TypeError(f"an exact scalar is an ExactScalar, int or Fraction, not {type(value).__name__}")

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("ExactScalar is immutable")

    @classmethod
    def sqrt(cls, radicand: int, coeff: Coercible = 1) -> "ExactScalar":
        """The value coeff*sqrt(radicand); radicand need not be squarefree."""
        return cls.normalize([(radicand, coeff)])

    @classmethod
    def normalize(cls, raw_terms: Iterable[tuple[int, Coercible]]) -> "ExactScalar":
        """Canonicalize a raw (radicand, coefficient) list.

        Each coefficient is a rational exact scalar or coerces to one, and
        each radicand an int (``operator.index``).  Radicands are reduced to
        squarefree form (sqrt(12) -> 2*sqrt(3)), like radicands merged and
        zero coefficients dropped; as in ``parse_scalar``, a radicand with a
        prime factor above MAX_RADICAND_PRIME raises LimitError.
        """
        parts = []
        for radicand, coeff in raw_terms:
            coeff = ExactScalar(coeff)
            if not coeff.is_rational:
                raise ValueError(f"{coeff} is irrational")
            square, free = _squarefree_split(operator.index(radicand))
            parts.append((coeff._den, {free: coeff._num.get(1, 0) * square}))
        return _combine(parts)

    # -- inspection -------------------------------------------------------

    @property
    def terms(self) -> dict[int, Fraction]:
        den = self._den
        return {r: Fraction(c, den) for r, c in self._num.items()}

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def is_rational(self) -> bool:
        num = self._num
        return not num or (len(num) == 1 and 1 in num)

    @property
    def rational_part(self) -> Fraction:
        return Fraction(self._num.get(1, 0), self._den)

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.rational_part

    def as_int(self) -> int:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        if self._den != 1:
            raise ValueError(f"{self} is not an integer")
        return self._num.get(1, 0)

    # -- ring operations --------------------------------------------------

    @staticmethod
    def _coerce(value) -> "ExactScalar | None":
        try:
            return ExactScalar(value)
        except TypeError:
            return None

    def __add__(self, other):
        if type(other) is not ExactScalar:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return _add(self, other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _make({r: -c for r, c in self._num.items()}, self._den)

    def __sub__(self, other):
        if type(other) is not ExactScalar:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return _add(self, other, -1)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _add(other, self, -1)

    def __mul__(self, other):
        if type(other) is not ExactScalar:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        n1, n2 = self._num, other._num
        if not n1 or not n2:
            return ZERO
        if other._den == 1 and n2 == _UNIT:
            return self
        if self._den == 1 and n1 == _UNIT:
            return other
        if len(n2) == 1 and 1 in n2:
            k = n2[1]
            out = {r: c * k for r, c in n1.items()}
        elif len(n1) == 1 and 1 in n1:
            k = n1[1]
            out = {r: c * k for r, c in n2.items()}
        else:
            out = {}
            _mul_into(out, n1, n2)
        # reduced inline, not by a helper: a call per product is measurable on the engine runs
        den = self._den * other._den
        if den != 1:
            g = math.gcd(den, *out.values())
            if g != 1:
                out = {r: c // g for r, c in out.items()}
                den //= g
        return _make(out, den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        out = ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def invert(self) -> "ExactScalar":
        """Multiplicative inverse.  A single term c*sqrt(r) inverts to
        sqrt(r)/(c*r).  A longer sum goes down the tower of quadratic
        subfields: for each prime p of its radicands in turn, y (at first
        self) and a running numerator are both multiplied by y with the
        sign of every p-term flipped, which removes p from y and keeps
        self * numerator == y.  After at most k steps for k primes, y is
        the rational norm N and the inverse is numerator / N.

        The radicands of self may span at most 12 distinct primes, which
        bounds the term growth of the numerator (LimitError past it).
        """
        num = self._num
        if not num:
            raise ZeroDivisionError("division by zero in the surd field")
        if len(num) == 1:
            ((r, c),) = num.items()
            # (c/den)*sqrt(r) inverts to den*sqrt(r)/(c*r), and gcd(den, c) == 1
            n, d = (self._den, c * r) if c > 0 else (-self._den, -c * r)
            g = math.gcd(n, d)
            return _make({r: n // g}, d // g)
        y, numerator = self, ONE
        for p in _radicand_primes(num):
            y_num = y._num
            if not any(r % p == 0 for r in y_num):
                continue  # an earlier step took p out of y
            flipped = _make({r: -c if r % p == 0 else c for r, c in y_num.items()}, y._den)
            y = y * flipped
            numerator = numerator * flipped
        if not y.is_rational or y.is_zero:
            raise ArithmeticError(f"norm of {self} is not a nonzero rational: {y}")
        return numerator * ExactScalar(Fraction(1) / y.rational_part)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.invert()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.invert()

    # -- equality, ordering, sign -----------------------------------------

    def __eq__(self, other):
        if type(other) is not ExactScalar:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        """hash(q) for a rational q, else the hash of the sorted (radicand,
        Fraction) pairs of ``terms``."""
        h = self._hash
        if h is None:
            h = hash(self.rational_part) if self.is_rational else hash(tuple(sorted(self.terms.items())))
            _set_hash(self, h)
        return h

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}."""
        s = self._sign
        if s is None:
            s = self._compute_sign()
            _set_sign(self, s)
        return s

    def _compute_sign(self) -> int:
        """Sign of sum(c*sqrt(r)), the numerator over the positive denominator:
        its integer bounds at b bits (``_numerator_bounds``) decide the sign
        once they do not straddle zero, doubling b until they do not.
        """
        num = self._num
        if not num:
            return 0
        # a sum of positive multiples of positive square roots is positive
        if min(num.values()) > 0:
            return 1
        if max(num.values()) < 0:
            return -1
        bits = _SIGN_START_BITS
        while bits <= _SIGN_MAX_BITS:
            lo, hi = _numerator_bounds(num, bits, {})
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            bits <<= 1
        raise LimitError(f"sign of {self} undecided at {_SIGN_MAX_BITS} bits")

    def _compare(self, other):
        """The sign of self - other, or NotImplemented for a foreign type."""
        if type(other) is not ExactScalar:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return _add(self, other, -1).sign()

    def __lt__(self, other):
        s = self._compare(other)
        return s if s is NotImplemented else s < 0

    def __le__(self, other):
        s = self._compare(other)
        return s if s is NotImplemented else s <= 0

    def __gt__(self, other):
        s = self._compare(other)
        return s if s is NotImplemented else s > 0

    def __ge__(self, other):
        s = self._compare(other)
        return s if s is NotImplemented else s >= 0

    # -- conversion / text --------------------------------------------------

    def __float__(self) -> float:
        den = self._den
        return float(sum((c / den) * math.sqrt(r) for r, c in self._num.items()))

    def __bool__(self) -> bool:
        return bool(self._num)

    def to_text(self) -> str:
        """Canonical text form: terms by radicand ascending, rational part first."""
        num, den = self._num, self._den
        if not num:
            return "0"
        gcd = math.gcd
        parts: list[str] = []
        for r in sorted(num):
            c = num[r]
            mag = -c if c < 0 else c
            g = gcd(mag, den)
            a, b = mag // g, den // g
            try:
                text = str(a) if b == 1 else f"{a}/{b}"
            except ValueError:  # past the interpreter's int/str digit limit
                text = _int_text(a) if b == 1 else f"{_int_text(a)}/{_int_text(b)}"
            if r == 1:
                body = text
            elif a == b:
                body = f"sqrt({r})"
            else:
                body = f"{text}*sqrt({r})"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    __str__ = to_text

    def __repr__(self):
        return f"ExactScalar({self.to_text()!r})"


_new = object.__new__
_set_num = ExactScalar._num.__set__
_set_den = ExactScalar._den.__set__
_set_hash = ExactScalar._hash.__set__
_set_sign = ExactScalar._sign.__set__


def _int_text(k: int) -> str:
    """Decimal text of a non-negative integer of any length.

    ``str`` refuses integers longer than ``sys.get_int_max_str_digits()``
    digits; those are split at a power of ten into halves, whose texts
    joined (the low half zero-padded) are the same digits.
    """
    try:
        return str(k)
    except ValueError:
        half = k.bit_length() * 3 // 20  # about half the digit count
        high, low = divmod(k, 10**half)
        return _int_text(high) + _int_text(low).zfill(half)


def _int_of_text(digits: str) -> int:
    """The integer of a decimal digit string of any length (see ``_int_text``)."""
    try:
        return int(digits)
    except ValueError:
        half = len(digits) // 2
        return _int_of_text(digits[:-half]) * 10**half + _int_of_text(digits[-half:])


def _make(num: dict[int, int], den: int) -> ExactScalar:
    """Trusted constructor: radicands squarefree, numerators nonzero, lowest terms."""
    out = _new(ExactScalar)
    _set_num(out, num)
    _set_den(out, den)
    _set_hash(out, None)
    _set_sign(out, None)
    return out


def _mul_into(acc: dict[int, int], n1: dict[int, int], n2: dict[int, int]) -> None:
    """Add the products of the numerator terms of n1 and n2 into acc, by
    radicand: sqrt(r1)*sqrt(r2) = g*sqrt(r1*r2/g**2) for g = gcd(r1, r2).
    Sums that reach zero are removed, so acc keeps only nonzero numerators."""
    gcd = math.gcd
    get = acc.get
    pairs = n2.items()
    for r1, c1 in n1.items():
        if r1 == 1:
            for r, c2 in pairs:
                newc = get(r, 0) + c1 * c2
                if newc:
                    acc[r] = newc
                else:
                    del acc[r]
            continue
        for r2, c2 in pairs:
            if r2 == 1:
                r, c = r1, c1 * c2
            elif r1 == r2:
                r, c = 1, c1 * c2 * r1
            else:
                g = gcd(r1, r2)
                r = (r1 // g) * (r2 // g)
                c = c1 * c2 * g
            newc = get(r, 0) + c
            if newc:
                acc[r] = newc
            else:
                del acc[r]


def _add(x: ExactScalar, y: ExactScalar, sign: int) -> ExactScalar:
    """x + y for sign 1, x - y for sign -1, over den = d1*d2/gcd(d1, d2)."""
    n2 = y._num
    if not n2:
        return x
    n1 = x._num
    if not n1:
        return y if sign > 0 else -y
    d1, d2 = x._den, y._den
    if d1 == d2:
        g, s1, s2, den = d1, 1, sign, d1
    else:
        g = math.gcd(d1, d2)
        s1, s2 = d2 // g, sign * (d1 // g)
        den = d1 * s1
    out = {r: c * s1 for r, c in n1.items()} if s1 != 1 else dict(n1)
    get = out.get
    for r, c in n2.items():
        newc = get(r, 0) + c * s2
        if newc:
            out[r] = newc
        else:
            del out[r]
    # every common factor of the numerators and den divides g
    if g != 1:
        g = math.gcd(g, *out.values())
        if g != 1:
            out = {r: c // g for r, c in out.items()}
            den //= g
    return _make(out, den)


def _combine(parts: Collection[tuple[int, dict[int, int]]]) -> ExactScalar:
    """The sum over the (den, num) parts of the numerators num over den, by
    radicand: added over the lcm of the denominators, zero sums dropped and
    reduced by one gcd, so a part need not be in lowest terms."""
    if len(parts) == 1:
        ((den, out),) = parts
    else:
        den = math.lcm(*[d for d, _ in parts])
        out = {}
        get = out.get
        for d, num in parts:
            scale = den // d
            for r, c in num.items():
                out[r] = get(r, 0) + c * scale
    return from_numerators(den, out)


def numerators(x: ExactScalar) -> tuple[int, dict[int, int]]:
    """x's denominator and its numerators by radicand, in the canonical form
    of ``ExactScalar``; the dict is x's own and is only to be read."""
    return x._den, x._num


def from_numerators(den: int, num: dict[int, int]) -> ExactScalar:
    """The value of the integer numerators num, by squarefree radicand, over
    the positive den: zero numerators dropped and the rest reduced with den
    by one gcd, so neither need be in lowest terms.  The value may keep num
    as its own, so it is not to be changed afterwards."""
    if not all(num.values()):
        num = {r: c for r, c in num.items() if c}
    if not num:
        return ZERO
    if den != 1:
        g = math.gcd(den, *num.values())
        if g != 1:
            num = {r: c // g for r, c in num.items()}
            den //= g
    return _make(num, den)


def exact_sum(values: Iterable[ExactScalar]) -> ExactScalar:
    """The sum of the given scalars, over the lcm of their denominators,
    reduced once by one gcd instead of once per pairwise addition."""
    values = [x for x in values if x._num]
    if len(values) > 2:
        return _combine([(x._den, x._num) for x in values])
    if len(values) == 2:  # one pairwise addition also reduces once
        return _add(values[0], values[1], 1)
    return values[0] if values else ZERO


def exact_dot(pairs: Iterable[tuple[ExactScalar, ExactScalar]]) -> ExactScalar:
    """The sum of x*y over the pairs, reduced once by one gcd instead of
    once per product and once per pairwise addition.

    Each product's integer numerators go into an accumulator keyed by its
    raw denominator x._den * y._den, so products over equal denominators
    need no rescaling; the accumulators are combined over the lcm of those
    denominators only when there are several.
    """
    by_den: dict[int, dict[int, int]] = {}
    for x, y in pairs:
        n1, n2 = x._num, y._num
        if n1 and n2:
            den = x._den * y._den
            acc = by_den.get(den)
            if acc is None:
                acc = by_den[den] = {}
            _mul_into(acc, n1, n2)
    return _combine(by_den.items())


def canonical_key(x: Coercible) -> tuple[int, frozenset[tuple[int, int]]]:
    """A hashable key of a value's canonical integers: its denominator with
    the frozen set of its (radicand, numerator) pairs, any other type keyed
    as ``ExactScalar(x)``, which takes only an int or a Fraction.  Two
    values share a key exactly when they are equal, and building one hashes
    only integers, so it costs less than the first ``hash`` of a value with
    several terms.  An int, as graph labels are usually written, is keyed
    without making the scalar."""
    if type(x) is not ExactScalar:
        if type(x) is int:
            return 1, frozenset(((1, x),) if x else ())
        x = ExactScalar(x)
    return x._den, frozenset(x._num.items())


# -- certified order -------------------------------------------------------------


def _numerator_bounds(num: dict[int, int], bits: int, roots: dict[int, int]) -> tuple[int, int]:
    """Integers lo <= 2**bits * sum(c*sqrt(r)) <= hi over the numerators num.

    Each sqrt(r) lies in [root, root + 1] / 2**bits for root = isqrt(r <<
    2*bits), so c*sqrt(r) adds c*root to one bound and c*root + c to the
    other.  roots caches root by radicand for callers that bound several
    values at the same bits.
    """
    lo = hi = num.get(1, 0) << bits
    for r, c in num.items():
        if r == 1:
            continue
        root = roots.get(r)
        if root is None:
            root = roots[r] = math.isqrt(r << (2 * bits))
        t = c * root
        if c > 0:
            lo += t
            hi += t + c
        else:
            lo += t + c
            hi += t
    return lo, hi


def enclosure(x: ExactScalar, bits: int, roots: dict[int, int]) -> tuple[int, int]:
    """Integers lo <= x * 2**bits <= hi: the numerator bounds of x divided
    by its denominator, rounded outward; roots is ``_numerator_bounds``'s
    cache.  Both are exact, lo = hi, when x * 2**bits is an integer, and
    lo < x * 2**bits < hi otherwise."""
    lo, hi = _numerator_bounds(x._num, bits, roots)
    den = x._den
    return (lo, hi) if den == 1 else (lo // den, -(-hi // den))


def _enclosures(values: list[ExactScalar]) -> list[tuple[int, int]]:
    """The enclosures of values at _ORDER_BITS."""
    roots: dict[int, int] = {}
    return [enclosure(x, _ORDER_BITS, roots) for x in values]


def _order(values: list[ExactScalar], bounds: list[tuple[int, int]], i: int, j: int) -> int:
    """The sign of values[i] - values[j]: from their enclosures when those
    are disjoint, else by an equality test and an exact subtraction."""
    lo_i, hi_i = bounds[i]
    lo_j, hi_j = bounds[j]
    if hi_i < lo_j:
        return -1
    if hi_j < lo_i:
        return 1
    x, y = values[i], values[j]
    if x == y:
        return 0
    return _add(x, y, -1).sign()


def _extreme(values: Iterable[ExactScalar], want: int) -> ExactScalar:
    """The first largest value for want = 1, the first smallest for want = -1.
    A value whose enclosure lies wholly on the wrong side of another value's
    enclosure is out without an exact comparison."""
    values = list(values)
    if not values:
        raise ValueError("no extreme of an empty sequence")
    bounds = _enclosures(values)
    if want > 0:
        cut = max(lo for lo, _ in bounds)
        live = [i for i, (_, hi) in enumerate(bounds) if hi >= cut]
    else:
        cut = min(hi for _, hi in bounds)
        live = [i for i, (lo, _) in enumerate(bounds) if lo <= cut]
    best = live[0]
    for i in live[1:]:
        if _order(values, bounds, i, best) == want:
            best = i
    return values[best]


def exact_max(values: Iterable[ExactScalar]) -> ExactScalar:
    """max(values), each order fact decided by certified enclosures first."""
    return _extreme(values, 1)


def exact_min(values: Iterable[ExactScalar]) -> ExactScalar:
    """min(values), each order fact decided by certified enclosures first."""
    return _extreme(values, -1)


def exact_order(values: Sequence[ExactScalar], reverse: bool = False) -> list[int]:
    """sorted(range(len(values)), key=values.__getitem__, reverse=reverse):
    the positions of values in ascending (descending) order, equal values in
    their given order.  Two values are compared exactly only when their
    enclosures overlap, and equal values compare as equal, so the sort
    stays stable."""
    values = list(values)
    bounds = _enclosures(values)
    return sorted(
        range(len(values)), key=cmp_to_key(lambda i, j: _order(values, bounds, i, j)), reverse=reverse
    )


def reciprocal(k: int) -> ExactScalar:
    """1/k for a nonzero integer k, built in lowest terms without a Fraction."""
    if not k:
        raise ZeroDivisionError("division by zero in the surd field")
    return _make({1: 1 if k > 0 else -1}, k if k > 0 else -k)


def inv_sqrt(num: int, den: int = 1) -> ExactScalar:
    """(num/den)**(-1/2) = sqrt(num*den)/num for positive integers num and
    den, which need not be coprime: one squarefree split and one gcd.  As
    in ``parse_scalar``, num*den with a prime factor above
    MAX_RADICAND_PRIME raises LimitError after bounded trial division."""
    if num <= 0 or den <= 0:
        raise ValueError(f"cannot take an inverse square root of {num}/{den}")
    square, free = _squarefree_split(num * den)
    g = math.gcd(square, num)
    return _make({free: square // g}, num // g)


# The prime 1 + 224 * (3 * 5 * 7 * ... * 47): it is 1 mod 8 and 1 mod every
# odd prime up to 47, so by quadratic reciprocity each of those primes has a
# square root modulo it.  RESIDUE_ROOTS[p] is the smaller of p's two roots.
RESIDUE_PRIME = 68867655649911037921
RESIDUE_ROOTS = {
    2: 25353342886637605229,
    3: 24762701388415705430,
    5: 31543580755814360925,
    7: 27471826746723784876,
    11: 9785045452894158718,
    13: 16335954450684994801,
    17: 1125357044494037664,
    19: 24638734003796759822,
    23: 25703388845628571281,
    29: 19412364301946382570,
    31: 22851419726432893090,
    37: 26336979156519924952,
    41: 21238997167964289045,
    43: 7307345024393973811,
    47: 7454689065207130730,
}


def residues(values: Iterable[ExactScalar]) -> list[int] | None:
    """The images of values in the integers modulo RESIDUE_PRIME, or None.

    sqrt(p) maps to RESIDUE_ROOTS[p] and sqrt(r) to the product of the roots
    of r's primes.  This is a ring map on the values whose denominators are
    prime to RESIDUE_PRIME and whose radicands have no prime above 47; None
    when some value lies outside that ring.
    """
    ell = RESIDUE_PRIME
    roots = {1: 1}
    out = []
    for x in values:
        acc = 0
        for r, c in x._num.items():
            root = roots.get(r)
            if root is None:
                root, rest = 1, r
                for p, s in RESIDUE_ROOTS.items():
                    if rest % p == 0:
                        root = root * s % ell
                        rest //= p
                if rest != 1:
                    return None
                roots[r] = root
            acc += c * root
        den = x._den
        if den != 1:
            den %= ell
            if not den:
                return None
            acc *= pow(den, -1, ell)
        out.append(acc % ell)
    return out


def floor_exact(x: ExactScalar) -> int:
    """The exact floor of x, from integers alone.

    x = N/den lies between the numerator bounds of N at b bits
    (``_numerator_bounds``) over den * 2**b, so once the two bounds have the
    same floor, that is x's floor; b doubles from 16 until they do.  A
    rational's bounds are equal, and an irrational x is no integer, so its
    bounds close in on the floor.
    """
    num, den = x._num, x._den
    bits = _FLOOR_START_BITS
    while bits <= _SIGN_MAX_BITS:
        lo, hi = _numerator_bounds(num, bits, {})
        scale = den << bits
        floor = lo // scale
        if floor == hi // scale:
            return floor
        bits <<= 1
    raise LimitError(f"floor of {x} undecided at {_SIGN_MAX_BITS} bits")


_TERM_RE = re.compile(r"^(?P<sign>-)?(?:(?P<coeff>\d+(?:/\d+)?)\*?)?(?:sqrt\((?P<radicand>\d+)\))?$")


def parse_scalar(text: str) -> ExactScalar:
    """Parse the scalar text syntax; whitespace is insignificant.

    Accepted terms: ``a``, ``a/b``, ``a/b*sqrt(r)``, ``sqrt(r)`` with
    optional signs, e.g. ``1/2 + 1/4*sqrt(2)``.  Non-squarefree radicands
    are reduced, so printing the result re-canonicalizes the input.  Text
    that is not a scalar raises InputError, and a radicand with a prime
    factor above MAX_RADICAND_PRIME its subclass LimitError.
    """
    compact = "".join(text.split())
    if not compact:
        raise InputError("empty scalar")
    chunks: list[str] = []
    depth = 0
    start = 0
    for i, ch in enumerate(compact):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise InputError(f"unbalanced parentheses in scalar {text!r}")
        elif ch in "+-" and depth == 0 and i > start:
            chunks.append(compact[start:i])
            start = i + 1 if ch == "+" else i
    if depth != 0:
        raise InputError(f"unbalanced parentheses in scalar {text!r}")
    chunks.append(compact[start:])
    parts: list[tuple[int, dict[int, int]]] = []
    for chunk in chunks:
        if chunk in ("", "+", "-"):
            raise InputError(f"malformed term in scalar {text!r}")
        m = _TERM_RE.match(chunk)
        if not m or (m.group("coeff") is None and m.group("radicand") is None):
            raise InputError(f"malformed term {chunk!r} in scalar {text!r}")
        num, den = 1, 1
        if m.group("coeff"):
            top, _, bottom = m.group("coeff").partition("/")
            num, den = _int_of_text(top), _int_of_text(bottom) if bottom else 1
            if den == 0:
                raise InputError(f"zero denominator in term {chunk!r} of scalar {text!r}")
        if m.group("sign"):
            num = -num
        radicand = _int_of_text(m.group("radicand")) if m.group("radicand") else 1
        if radicand == 0:
            raise InputError(f"zero radicand in term {chunk!r} of scalar {text!r}")
        square, free = _squarefree_split(radicand)
        parts.append((den, {free: num * square}))
    return _combine(parts)


def activate(value: ExactScalar, sigma: str) -> ExactScalar:
    """Apply an activation: ``relu`` keeps positive values, ``sign`` maps to -1/0/+1."""
    if sigma == "relu":
        return value if value.sign() > 0 else ZERO
    if sigma == "sign":
        return (ZERO, ONE, MINUS_ONE)[value.sign()]  # index -1 is the last
    if sigma == "none":
        return value
    raise ValueError(f"unknown activation {sigma!r}")


ZERO = ExactScalar(0)
ONE = ExactScalar(1)
MINUS_ONE = ExactScalar(-1)
