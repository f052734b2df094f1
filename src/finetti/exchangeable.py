"""Exchangeable laws on A^n in their canonical histogram-weight form.

An exchangeable law is determined by the distribution of the histogram of the
n draws: within a histogram class the law is uniform.  Laws here store that
weight vector as exact rationals, indexed by the shared enumeration order of
`type_list`, which makes mixing, marginalisation, and restriction exact
rational linear algebra.

Distributions over k-blocks (elements of A^k) are indexed by base-m encoding
with the most significant symbol first, i.e. in the order produced by
itertools.product(range(m), repeat=k).  The k-block marginal and the i.i.d.
mixture both depend on a block only through its histogram, so they are
evaluated once per block histogram and then spread over the m^k blocks.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from fractions import Fraction
from itertools import product
from typing import Sequence

from .types_core import (
    Pmf,
    TypeVector,
    class_numerators,
    count_types,
    integer_numerators,
    type_class_size,
    type_index_map,
    type_list,
)

__all__ = [
    "ExchangeableLaw",
    "MixingMeasure",
    "all_strings",
    "conditional_given_type",
    "delta_type_law",
    "empirical_type_law",
    "from_mixing_measure",
    "iid_law",
    "law_from_json",
    "law_from_type_weights",
    "law_to_json",
    "marginal",
    "mixture_iid",
    "polya_urn_law",
    "power_pmf",
    "random_type_weight_law",
    "restrict_law",
    "string_index",
]


def all_strings(m: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All k-strings over 0..m-1 in index order."""
    if m < 1 or k < 1:
        raise ValueError(f"need m >= 1 and k >= 1, got m={m}, k={k}")
    return tuple(product(range(m), repeat=k))


def string_index(s: Sequence[int], m: int) -> int:
    idx = 0
    for a in s:
        if not 0 <= a < m:
            raise ValueError(f"symbol {a!r} outside alphabet of size {m}")
        idx = idx * m + a
    return idx


def power_pmf(q: Pmf, k: int) -> Pmf:
    """Law of k i.i.d. draws from q, as a pmf over A^k in index order."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    m = len(q)
    one = Fraction(1) if q.exact else 1.0
    entries = []
    for s in all_strings(m, k):
        prob = one
        for a in s:
            prob = prob * q[a]
        entries.append(prob)
    return Pmf(tuple(entries), exact=q.exact)


class ExchangeableLaw(namedtuple("ExchangeableLaw", "m n type_weights")):
    """Exchangeable law on A^n, stored as its histogram weight vector.

    `type_weights[i]` is the probability of the i-th histogram in the shared
    enumeration order.  Zero-weight histograms keep their slot so that laws
    with the same (m, n) live in the same index space.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates too

    def __new__(cls, m: int, n: int, type_weights: Pmf) -> "ExchangeableLaw":
        expected = count_types(m, n)
        if len(type_weights) != expected:
            raise ValueError(
                f"weight vector has {len(type_weights)} entries, "
                f"(m={m}, n={n}) has {expected} types"
            )
        if not type_weights.exact:
            raise ValueError("histogram weights must be exact rationals")
        return tuple.__new__(cls, (m, n, type_weights))

    @property
    def types(self) -> tuple[TypeVector, ...]:
        return type_list(self.m, self.n)


class MixingMeasure(namedtuple("MixingMeasure", "atoms")):
    """Finitely supported measure on the simplex: ((pmf, weight), ...)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates too

    def __new__(cls, atoms: tuple[tuple[Pmf, object], ...]) -> "MixingMeasure":
        if not atoms:
            raise ValueError("mixing measure needs at least one atom")
        m = len(atoms[0][0])
        if any(len(q) != m for q, _ in atoms):
            raise ValueError("all atoms must share one alphabet")
        if not all(q.exact and isinstance(w, (int, Fraction)) for q, w in atoms):
            raise ValueError("mixing atoms and weights must be exact rationals")
        if any(w < 0 for _, w in atoms):
            raise ValueError("negative mixing weight")
        total = sum(w for _, w in atoms)
        if total != 1:
            raise ValueError(f"mixing weights sum to {total}, not 1")
        return tuple.__new__(cls, (atoms,))

    @property
    def m(self) -> int:
        return len(self.atoms[0][0])


def law_from_type_weights(m: int, n: int, weights) -> ExchangeableLaw:
    pmf = weights if isinstance(weights, Pmf) else Pmf(tuple(weights))
    return ExchangeableLaw(m, n, pmf)


def empirical_type_law(law: ExchangeableLaw) -> Pmf:
    """Distribution of the histogram of the n draws (the mixing weights)."""
    return law.type_weights


def conditional_given_type(t: TypeVector, prefix: Sequence[int]) -> Fraction:
    """P(first len(prefix) draws equal prefix | histogram of all n draws is t).

    Sampling without replacement from the multiset t: a falling-factorial
    product, exactly rational, zero when the prefix needs more of a symbol
    than t holds.
    """
    n = t.n
    if len(prefix) > n:
        raise ValueError(f"prefix of length {len(prefix)} exceeds n={n}")
    used = [0] * t.m
    prob = Fraction(1)
    for i, a in enumerate(prefix):
        if not 0 <= a < t.m:
            raise ValueError(f"symbol {a!r} outside alphabet of size {t.m}")
        avail = t.counts[a] - used[a]
        if avail <= 0:
            return Fraction(0)
        prob *= Fraction(avail, n - i)
        used[a] += 1
    return prob


def _block_law(urns, k: int, replace: bool) -> Pmf:
    """Law over A^k of the first k draws from a weighted mixture of urns.

    Each pair (t, w) in `urns` is an urn holding t.counts[a] balls of symbol
    a, chosen with probability w; all urns hold the same number n of balls.
    Drawing without replacement gives the marginal P_k, with replacement the
    i.i.d. mixture M_k.  Both depend on a block only through its histogram u,
    so each u in type_list(m, k) is evaluated once, as an integer numerator
    over the common denominator lcm(weight denominators) * (n)_k, or
    lcm(weight denominators) * n^k with replacement.
    """
    urns = [(t.counts, w) for t, w in urns if w]
    m, n = len(urns[0][0]), sum(urns[0][0])
    blocks = [u.counts for u in type_list(m, k)]
    scale = math.lcm(*(w.denominator for _, w in urns))
    draws: dict[int, list[int]] = {}  # c -> ordered ways to draw j = 0..k of c balls
    numerators = [0] * len(blocks)
    for counts, w in urns:
        for c in counts:
            if c not in draws:
                row = [1]
                for j in range(k):
                    row.append(row[-1] * (c if replace else c - j))
                draws[c] = row
        rows = [draws[c] for c in counts]
        weight = w.numerator * (scale // w.denominator)
        for i, u in enumerate(blocks):
            term = weight
            for row, j in zip(rows, u):
                term *= row[j]
            numerators[i] += term
    denominator = scale * (n**k if replace else math.perm(n, k))
    values = [Fraction(x, denominator) for x in numerators]
    index = type_index_map(m, k)
    return Pmf(
        tuple(values[index[tuple(map(s.count, range(m)))]] for s in all_strings(m, k))
    )


def marginal(law: ExchangeableLaw, k: int) -> Pmf:
    """Law of the first k coordinates, as a pmf over A^k in index order."""
    if not 1 <= k <= law.n:
        raise ValueError(f"k must lie in 1..{law.n}, got {k}")
    return _block_law(zip(law.types, law.type_weights), k, replace=False)


def mixture_iid(source, k: int) -> Pmf:
    """Mixture of i.i.d. k-block laws.

    `source` is a MixingMeasure, or an ExchangeableLaw whose histogram weights
    are read as a mixing measure over the empirical pmfs t/n.  The atoms of a
    MixingMeasure are read as urns over their common denominator.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if isinstance(source, ExchangeableLaw):
        return _block_law(zip(source.types, source.type_weights), k, replace=True)
    return _block_law(_atom_urns(source), k, replace=True)


def _atom_urns(mix: MixingMeasure) -> list[tuple[TypeVector, Fraction]]:
    """The atoms as (urn, weight): integer numerators over one common denominator."""
    m = mix.m
    nums, _ = integer_numerators([p for q, _ in mix.atoms for p in q])
    return [(TypeVector(nums[j * m : j * m + m]), w) for j, (_, w) in enumerate(mix.atoms)]


def from_mixing_measure(mix: MixingMeasure, n: int) -> ExchangeableLaw:
    """Exchangeable law of n i.i.d.-given-theta draws under the mixing measure.

    With atoms a_j / D and weights w_j / W over common denominators, the
    class of t has weight |T_t| * sum_j w_j * prod_i a_j[i]^t[i] / (W * D^n):
    one integer numerator per type, reduced once.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    urns = _atom_urns(mix)
    ws, scale = integer_numerators([w for _, w in urns])
    classes = class_numerators([(x, t.counts) for x, (t, _) in zip(ws, urns) if x], n)
    den = scale * urns[0][0].n ** n
    return ExchangeableLaw(mix.m, n, Pmf(tuple(Fraction(s * x, den) for _, s, x in classes)))


def iid_law(q: Pmf, n: int) -> ExchangeableLaw:
    return from_mixing_measure(MixingMeasure(((q, Fraction(1)),)), n)


def delta_type_law(t: TypeVector) -> ExchangeableLaw:
    """Law that is uniform on one histogram class."""
    index = type_index_map(t.m, t.n)[t.counts]
    return ExchangeableLaw(t.m, t.n, Pmf.point_mass(count_types(t.m, t.n), index))


def _rising(a: int, c: int) -> int:
    out = 1
    for i in range(c):
        out *= a + i
    return out


def polya_urn_law(initial: Sequence[int], n: int) -> ExchangeableLaw:
    """Law of n draws from a Polya urn with the given initial composition.

    Closed form through rising factorials; initial counts must be >= 1.
    """
    initial = tuple(int(a) for a in initial)
    if len(initial) < 1 or any(a < 1 for a in initial):
        raise ValueError(f"initial composition must be positive integers, got {initial}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    m = len(initial)
    total = sum(initial)
    denom = _rising(total, n)
    weights = []
    for t in type_list(m, n):
        num = type_class_size(t)
        for a, c in zip(initial, t.counts):
            num *= _rising(a, c)
        weights.append(Fraction(num, denom))
    return ExchangeableLaw(m, n, Pmf(tuple(weights)))


def random_type_weight_law(m: int, n: int, seed: int, max_weight: int = 2**30) -> ExchangeableLaw:
    """Seeded random histogram weights: positive integers, then normalised."""
    if seed is None:
        raise ValueError("seed is required; the construction is randomized")
    import random  # only the seeded families need it, so the CLI start skips it
    rng = random.Random(seed)
    raw = [rng.randrange(1, max_weight) for _ in range(count_types(m, n))]
    return ExchangeableLaw(m, n, Pmf.from_weights(raw))


def restrict_law(law: ExchangeableLaw, n_sub: int) -> ExchangeableLaw:
    """Law of the first n_sub coordinates, again in histogram-weight form.

    The histogram of a prefix given the full histogram is multivariate
    hypergeometric, so the restricted weights are exact rational sums; they
    are accumulated as integer numerators over lcm(weight denominators) *
    C(n, n - n_sub) and reduced once per output histogram.
    """
    if not 1 <= n_sub <= law.n:
        raise ValueError(f"n_sub must lie in 1..{law.n}, got {n_sub}")
    if n_sub == law.n:
        return law
    drop = law.n - n_sub
    idx = type_index_map(law.m, n_sub)
    scale = math.lcm(*(w.denominator for w in law.type_weights))
    out = [0] * count_types(law.m, n_sub)
    for t, w in zip(law.types, law.type_weights):
        if not w:
            continue
        num = w.numerator * (scale // w.denominator)
        for removal in _bounded_compositions(drop, t.counts):
            ways = num
            for c, r in zip(t.counts, removal):
                ways *= math.comb(c, r)
            kept = tuple(c - r for c, r in zip(t.counts, removal))
            out[idx[kept]] += ways
    denom = scale * math.comb(law.n, drop)
    weights = tuple(Fraction(x, denom) for x in out)
    return ExchangeableLaw(law.m, n_sub, Pmf(weights))


def _bounded_compositions(total: int, bounds: Sequence[int]):
    """Integer vectors 0 <= r <= bounds with sum(r) = total."""
    if len(bounds) == 1:
        if total <= bounds[0]:
            yield (total,)
        return
    for first in range(min(total, bounds[0]) + 1):
        for rest in _bounded_compositions(total - first, bounds[1:]):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# law files
# ---------------------------------------------------------------------------


def _parse_rational(value) -> Fraction:
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise ValueError(f"rationals must be integers or strings like '3/4', got {value!r}")


def _format_rational(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)


def law_to_json(law: ExchangeableLaw) -> dict:
    """Serialisable form: nonzero histogram weights as 'p/q' strings."""
    entries = [
        {"counts": list(t.counts), "w": _format_rational(w)}
        for t, w in zip(law.types, law.type_weights)
        if w
    ]
    return {"m": law.m, "n": law.n, "typeWeights": entries}


def law_from_json(obj, n: int | None = None) -> ExchangeableLaw:
    """Read a law file: either histogram weights or a mixing measure.

    A typeWeights file fixes (m, n) itself.  A mixing file needs n, from the
    file or from the caller; the caller wins only when the file has no n.
    """
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict):
        raise ValueError("law file must be a JSON object")
    if "typeWeights" in obj:
        m, file_n = int(obj["m"]), int(obj["n"])
        if n is not None and n != file_n:
            raise ValueError(f"law file has n={file_n}, caller asked for n={n}")
        weights = [Fraction(0)] * count_types(m, file_n)
        idx = type_index_map(m, file_n)
        for entry in obj["typeWeights"]:
            counts = tuple(int(c) for c in entry["counts"])
            if counts not in idx:
                raise ValueError(f"counts {counts} are not a histogram at (m={m}, n={file_n})")
            weights[idx[counts]] += _parse_rational(entry["w"])
        return ExchangeableLaw(m, file_n, Pmf(tuple(weights)))
    if "mixing" in obj:
        atoms = []
        for entry in obj["mixing"]:
            q = Pmf(tuple(_parse_rational(v) for v in entry["pmf"]))
            atoms.append((q, _parse_rational(entry["w"])))
        mix = MixingMeasure(tuple(atoms))
        use_n = int(obj["n"]) if "n" in obj else n
        if use_n is None:
            raise ValueError("mixing law file needs n (in the file or from the caller)")
        return from_mixing_measure(mix, use_n)
    raise ValueError("law file needs a 'typeWeights' or 'mixing' key")
