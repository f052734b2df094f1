"""Integer groundwork for n-types: the enumeration cap, `TypeVector`, pmfs and the cells of A^k.

No module imports `fractions`.  A pmf is one record, integer numerators a
over their least common denominator D: `pmf_numerators` is the one reader
that validates a pmf and returns (a, D), and every law, witness and weight
vector the package builds is such a pair; `parse_rational` reads rational
text into integers.  `power_numerators` gives Q^k from a, and every entropy,
divergence and max-deviation the command line prints comes from integer
numerators by one rule (`divergence_of_numerators`), one per block
histogram where a law is constant on them (`types_core.cell_index`).  This
module is the one reader of the cap (`check_count`) and the home of
`TypeVector`, `count_types`, `all_strings` and `occurrence_matrix`.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple
from functools import lru_cache
from itertools import product

DEFAULT_ENUMERATION_CAP = 2**26
DIGIT_LIMIT = 4300  # str(int)'s default: no count is written, nor exponent read, past it


class CapacityError(RuntimeError):
    """An enumeration would exceed the configured cap."""


def resolve_cap() -> int:
    """The one enumeration cap: FINETTI_CAP, else the default, read at every check."""
    env = os.environ.get("FINETTI_CAP")
    if env is None:
        return DEFAULT_ENUMERATION_CAP
    try:
        return int(env)
    except ValueError as exc:
        raise ValueError(f"FINETTI_CAP must be an integer, got {env!r}") from exc


def check_count(total: int, what: str) -> None:
    """Raise CapacityError "<total> <what> exceeds cap <cap>", a long total as "at least 2^b"."""
    limit = resolve_cap()
    if total > limit:
        text = total if total < 10**DIGIT_LIMIT else f"at least 2^{total.bit_length() - 1}"
        raise CapacityError(f"{text} {what} exceeds cap {limit}")


def check_power(m: int, k: int) -> int:
    """m^k, unless 2^k passes both the cap and DIGIT_LIMIT digits: then CapacityError, unbuilt."""
    if m > 1 and k > max(resolve_cap().bit_length(), DIGIT_LIMIT / math.log10(2)):
        raise CapacityError(f"{m}^{k} cells at (m={m}, k={k}) exceeds cap {resolve_cap()}")
    return m**k


def _alphabet_size(alphabet: int) -> int:
    m = int(alphabet)
    if m < 1:
        raise ValueError(f"alphabet size must be >= 1, got {m}")
    return m


class TypeVector(namedtuple("TypeVector", "counts")):
    """Histogram of an n-string: counts[a] occurrences of symbol a, sum = n."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates too

    def __new__(cls, counts) -> "TypeVector":
        counts = tuple(map(int, counts))
        if not counts:
            raise ValueError("a type needs at least one symbol cell")
        if min(counts) < 0:
            raise ValueError(f"negative count in {counts}")
        if sum(counts) < 1:
            raise ValueError("a type must describe a nonempty string")
        return tuple.__new__(cls, (counts,))

    @property
    def n(self) -> int:
        return sum(self.counts)

    @property
    def m(self) -> int:
        return len(self.counts)


def _ratio_text(num: int, den: int) -> str:
    """num/den in lowest terms as `str` of a `Fraction` writes it: "5/6", or "2" when whole."""
    g = math.gcd(num, den)
    return f"{num // g}" if den == g else f"{num // g}/{den // g}"


Ratio = namedtuple("Ratio", "numerator denominator")  # _exact_numerators reads it as a Fraction
_D = r"\d+(?:_\d+)*"  # Python 3.11's `Fraction(str)` grammar follows; `re` compiles it once
_RATIONAL = rf"\s*([-+]?)(?=\d|\.\d)(\d*(?:_\d+)*)(?:/({_D})|(?:\.({_D})?)?(?:[eE]([-+]?{_D}))?)\s*"


def parse_rational(text: str) -> Ratio:
    """(num, den), den > 0, as Python 3.11's `Fraction(text)` reads it; |exponent| <= DIGIT_LIMIT."""
    import re  # argparse has loaded it
    match = re.fullmatch(_RATIONAL, text)
    if match is None or match[3] and not int(match[3]):  # no rational, or a zero denominator
        raise ValueError(f"cannot read {text!r} as a rational")
    sign, whole, den, frac, exp = match.groups()
    if exp and (len(exp) > DIGIT_LIMIT or abs(int(exp)) > DIGIT_LIMIT):  # refused before 10**e
        raise ValueError(f"the exponent of {text!r} exceeds {DIGIT_LIMIT} in absolute value")
    scale, e = 10 ** len((frac or "").replace("_", "")), int(exp or 0)
    num = (int(whole or 0) * scale + int(frac or 0)) * 10 ** max(e, 0)
    den = int(den or 1) * scale * 10 ** max(-e, 0)
    g = math.gcd(num, den)
    return Ratio((-num if sign == "-" else num) // g, den // g)


def _exact_numerators(values) -> tuple[tuple[int, ...], int]:
    """(a, D) with values = a / D over their least common denominator D.

    Each value must be exact: an int, or a rational with int numerator and
    denominator, such as a `Ratio` or a `Fraction`.  A float is refused.
    """
    for p in values:
        if not all(isinstance(getattr(p, part, None), int) for part in ("numerator", "denominator")):
            raise ValueError(f"pmf entries and weights must be exact rationals, got {p!r}")
    den = math.lcm(*(p.denominator for p in values))
    return tuple(p.numerator * (den // p.denominator) for p in values), den


def pmf_numerators(q) -> tuple[tuple[int, ...], int]:
    """(a, D) with q = a / D over the least common denominator D: the one reader of a pmf.

    An n-type gives its counts over n.  Any other q is a sequence of exact
    rationals (`_exact_numerators`; a `Ratio` need not be in lowest terms),
    nonnegative and summing to 1.  a and D come divided by their gcd.
    """
    if isinstance(q, TypeVector):
        q = [Ratio(c, q.n) for c in q.counts]
    a, den = _exact_numerators(tuple(q))
    if not a:
        raise ValueError("empty probability vector")
    if min(a) < 0:
        raise ValueError("negative probability")
    if sum(a) != den:
        raise ValueError(f"pmf sums to {_ratio_text(sum(a), den)}, not 1")
    g = math.gcd(*a)  # divides den = sum(a); 1 when every entry is in lowest terms
    return tuple(x // g for x in a), den // g


def count_types(alphabet: int, n: int) -> int:
    """Number of histograms of n-strings: C(n + m - 1, m - 1)."""
    m = _alphabet_size(alphabet)
    if n < 1:
        raise ValueError(f"string length must be >= 1, got {n}")
    return math.comb(n + m - 1, m - 1)


def check_cap(m: int, n: int) -> None:
    """Raise CapacityError when the n-histograms over m symbols outnumber the cap."""
    check_count(count_types(m, n), f"types at (m={m}, n={n})")


def check_cells(m: int, k: int) -> None:
    """Raise CapacityError when the m^k cells of A^k outnumber the cap.

    Every caller that lists a law, a witness or a count per cell of A^k
    checks this first.
    """
    check_count(check_power(m, k), f"cells at (m={m}, k={k})")


# largest exponent whose math.exp is finite: a log bound above it reads as inf
_EXP_MAX = 709.0

# Type caches keyed by (m, n), shared by laws and the urn kernel; each
# keeps this many entries and drops the least recently used.
TYPE_CACHE_SIZE = 32


def all_strings(m: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All k-strings over 0..m-1 in index order."""
    if m < 1 or k < 1:
        raise ValueError(f"need m >= 1 and k >= 1, got m={m}, k={k}")
    return tuple(product(range(m), repeat=k))


@lru_cache(maxsize=TYPE_CACHE_SIZE)
def occurrence_matrix(m: int, k: int) -> tuple[tuple[int, ...], ...]:
    """occ[b][a]: multiplicity of symbol a in the b-th block of A^k, its histogram."""
    return tuple(tuple(map(s.count, range(m))) for s in all_strings(m, k))


def power_numerators(a, k: int) -> list[int]:
    """T_b = prod_s a_s^{u_s} per cell b of A^k in index order, u the histogram of b.

    For q = a / D these are the numerators of Q^k over D^k.
    """
    occ = occurrence_matrix(len(a), k)
    power = {u: math.prod(map(pow, a, u)) for u in set(occ)}
    return [power[u] for u in occ]


def lemma1_constant(ell: int, k: int) -> float:
    """Lemma 1's deviation budget M = sqrt(2/l + 4k/l + 2*sqrt(k/l)) for l blocks of k.

    It lives here, and `finetti.lemma1` binds it, so dbound reads it without lemma 1.
    """
    if not 1 <= k < ell:
        raise ValueError(f"need l > k >= 1, got l={ell}, k={k}")
    return math.sqrt(2.0 / ell + 4.0 * k / ell + 2.0 * math.sqrt(k / ell))


def entropy_of_numerators(nums, den: int) -> float:
    """H(nums / den) in nats, with the bits of a sum of -p*log(p) over the `Fraction`s nums / den.

    H is minus the divergence from one per entry, term by term, and IEEE
    negation is exact, so the rule of `divergence_of_numerators` gives the
    bits of a sum of -p*log(p); 0.0 - D keeps a zero entropy positive.
    """
    return 0.0 - divergence_of_numerators(nums, den, [1] * len(nums), 1, range(len(nums)))


def divergence_of_numerators(xs, p_den: int, ys, q_den: int, index) -> float:
    """D(x/P || y/Q) in nats, +inf if some x > 0 has y = 0, correctly rounded term by term.

    xs and ys hold one numerator per class of cells (a k-histogram, or one
    cell), and index[b] is the class of cell b.  Each class's term is taken
    once: x/P, int/int true division and so correctly rounded as float() of
    the `Fraction` is, times log(num/g) - log(den/g) for x*Q / (y*P) = num/den
    reduced by g = gcd(num, den), as `Fraction` reduces it.  The terms are
    summed cell by cell in cell order.
    """
    terms = [0.0] * len(xs)
    for i, (x, y) in enumerate(zip(xs, ys)):
        if x:
            if not y:
                return math.inf
            g = math.gcd(x * q_den, y * p_den)
            terms[i] = x / p_den * (math.log(x * q_den // g) - math.log(y * p_den // g))
    total = 0.0
    for i in index:
        total += terms[i]
    return total


def max_deviation_of_numerators(xs, p_den: int, ys, q_den: int) -> float:
    """max |x/P - y/Q| over the classes: max |x*Q - y*P| / (P*Q), correctly rounded."""
    return max(abs(x * q_den - y * p_den) for x, y in zip(xs, ys)) / (p_den * q_den)
