"""Exchangeable laws on A^n in their canonical histogram-weight form.

An exchangeable law is determined by the distribution of the histogram of the
n draws: within a histogram class the law is uniform.  Laws here store that
weight vector as exact rationals, indexed by the shared enumeration order of
`type_list`, which makes mixing and marginalisation exact rational linear
algebra.

Every law here draws from a mixture of urns that take back each drawn ball
with `step` more of its symbol: -1 draws without replacement (the marginal
P_k), 0 with replacement (Q^k, i.i.d. and mixing laws), +1 is the Polya urn.
A draw sequence's probability is a product of draw counts that depends only
on its histogram, so one kernel, `urn_numerators`, gives every k-block law
and class law once per histogram, as integer numerators over one
denominator, then spread over A^k in base-m index order (itertools.product
order).  The mixture M_k of an exchangeable law is a linear function of its
P_k (`block_laws`), so it needs no pass of its own.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, product
from operator import getitem, mul
from typing import Sequence

from .types_core import (
    TYPE_CACHE_SIZE,
    Pmf,
    TypeVector,
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
    "block_laws",
    "delta_type_law",
    "from_mixing_measure",
    "iid_law",
    "law_from_json",
    "law_to_json",
    "marginal",
    "mixture_iid",
    "polya_urn_law",
    "power_pmf",
    "random_type_weight_law",
    "urn_numerators",
]


def all_strings(m: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All k-strings over 0..m-1 in index order."""
    if m < 1 or k < 1:
        raise ValueError(f"need m >= 1 and k >= 1, got m={m}, k={k}")
    return tuple(product(range(m), repeat=k))


@lru_cache(maxsize=TYPE_CACHE_SIZE)
def _occurrence_matrix(m: int, k: int) -> tuple[tuple[int, ...], ...]:
    """occ[b][a]: multiplicity of symbol a in the b-th block of A^k, its histogram."""
    return tuple(tuple(map(s.count, range(m))) for s in all_strings(m, k))


def urn_numerators(urns, k: int, step: int, cap: int | None = None) -> tuple[list[int], int]:
    """First k draws from a mixture of urns: (numerator per histogram, denominator).

    Each (counts, w) in `urns` holds counts[a] balls of symbol a and has
    integer weight w; all urns hold n balls, and a drawn ball goes back with
    `step` more of its symbol.  A draw sequence with histogram u, the i-th of
    type_list(m, k, cap), has probability numerators[i] / denominator, with
    numerators[i] = sum_w w * prod_a row(counts[a], u[a]) and denominator =
    sum_w w * prod_{j<k} (n + j*step); row(c, j) = c*(c+step)*...*(c+(j-1)*step).
    """
    urns = [(counts, w) for counts, w in urns if w]
    m, n = len(urns[0][0]), sum(urns[0][0])
    blocks = type_list(m, k, cap)
    held = {c for counts, _ in urns for c in counts}
    rows = {c: list(accumulate((c + j * step for j in range(k)), mul, initial=1)) for c in held}
    numerators = [0] * len(blocks)
    for counts, w in urns:
        draws = [rows[c] for c in counts]
        for i, u in enumerate(blocks):
            numerators[i] += w * math.prod(map(getitem, draws, u.counts))
    return numerators, sum(w for _, w in urns) * math.prod(n + j * step for j in range(k))


def _spread(m: int, k: int, numerators: Sequence[int], den: int) -> Pmf:
    """One numerator per k-histogram, spread over A^k in index order."""
    index = type_index_map(m, k)
    return Pmf.from_numerators([numerators[index[row]] for row in _occurrence_matrix(m, k)], den)


def _block_pmf(m: int, k: int, urns, step: int) -> Pmf:
    """The kernel's k-block law spread over A^k in index order."""
    return _spread(m, k, *urn_numerators(urns, k, step))


def _class_law(m: int, n: int, urns, step: int) -> ExchangeableLaw:
    """The kernel's law of all n draws: each class numerator times |T_t|."""
    numerators, den = urn_numerators(urns, n, step)
    classes = [type_class_size(t) * x for t, x in zip(type_list(m, n), numerators)]
    return ExchangeableLaw(m, n, Pmf.from_numerators(classes, den))


def power_pmf(q: Pmf, k: int) -> Pmf:
    """Law of k i.i.d. draws from q = a / D, the urn a drawn with replacement."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    a, _ = integer_numerators(q)
    return _block_pmf(len(a), k, ((a, 1),), 0)


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
        if not isinstance(type_weights, Pmf):
            raise ValueError("histogram weights must be a Pmf of exact rationals")
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
        if not all(isinstance(q, Pmf) and isinstance(w, (int, Fraction)) for q, w in atoms):
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


def marginal(law: ExchangeableLaw, k: int) -> Pmf:
    """Law of the first k coordinates, as a pmf over A^k in index order."""
    if not 1 <= k <= law.n:
        raise ValueError(f"k must lie in 1..{law.n}, got {k}")
    return _block_pmf(law.m, k, _law_urns(law), -1)


def mixture_iid(source, k: int) -> Pmf:
    """Mixture of i.i.d. k-block laws.

    `source` is a MixingMeasure, or an ExchangeableLaw whose histogram weights
    are read as a mixing measure over the empirical pmfs t/n (then
    1 <= k <= n, and M_k comes from P_k by `block_laws`).  The atoms of a
    MixingMeasure are read as urns over their common denominator.
    """
    if isinstance(source, ExchangeableLaw):
        return block_laws(source, k, source.n)[1]
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return _block_pmf(source.m, k, _atom_urns(source), 0)


@lru_cache(maxsize=None)
def _stirling2(c: int, i: int) -> int:
    """Stirling number of the second kind: partitions of c items into i blocks."""
    if c == 0 or i == 0:
        return int(c == i)
    return i * _stirling2(c - 1, i) + _stirling2(c - 1, i - 1)


def block_laws(law: ExchangeableLaw, k: int, n: int) -> tuple[Pmf, Pmf]:
    """(P_k, M_k), M_k mixing i.i.d. blocks over the pmf T/n of the first n draws.

    Needs 1 <= k <= n <= law.n.  One kernel pass without replacement gives P_k
    as numerators over D.  The probability of one j-string with histogram i is
    a margin of P_k, p_j(i) = A_j(i) / D with A_j(i) = sum_a A_{j+1}(i + e_a).
    With t^u = sum_{i<=u} prod_a S(u_a, i_a) (t_a)_{i_a}, S the Stirling
    numbers of the second kind, and E[prod_a (T_a)_{i_a}] = (n)_{|i|} p_{|i|}(i),
    M_k has numerators sum_{i<=u} prod_a S(u_a, i_a) (n)_{|i|} A_{|i|}(i) over
    D * n^k (Diaconis & Freedman 1980); no law of the first n draws is built.
    """
    if not 1 <= k <= n <= law.n:
        raise ValueError(f"need 1 <= k <= n <= {law.n}, got k={k}, n={n}")
    numerators, den = urn_numerators(_law_urns(law), k, -1)
    blocks = [u.counts for u in type_list(law.m, k)]
    margin = dict(zip(blocks, numerators))
    for j in range(k - 1, 0, -1):
        for i in (t.counts for t in type_list(law.m, j)):
            margin[i] = sum(margin[i[:a] + (c + 1,) + i[a + 1 :]] for a, c in enumerate(i))
    falling = list(accumulate((n - j for j in range(k)), mul, initial=1))
    mixed = [
        sum(
            math.prod(map(_stirling2, u, i)) * falling[sum(i)] * margin[i]
            for i in product(*(range(1 if c else 0, c + 1) for c in u))
        )
        for u in blocks
    ]
    return _spread(law.m, k, numerators, den), _spread(law.m, k, mixed, den * n**k)


def _law_urns(law: ExchangeableLaw) -> list[tuple[tuple[int, ...], int]]:
    """The histograms as urns, weighted by integer numerators over one denominator."""
    weights, _ = integer_numerators(law.type_weights)
    return [(t.counts, w) for t, w in zip(law.types, weights)]


def _atom_urns(mix: MixingMeasure) -> list[tuple[tuple[int, ...], int]]:
    """The atoms as urns: integer numerators over common denominators D and W."""
    m = mix.m
    nums, _ = integer_numerators([p for q, _ in mix.atoms for p in q])
    weights, _ = integer_numerators([w for _, w in mix.atoms])
    return [(nums[j * m : j * m + m], w) for j, w in enumerate(weights)]


def from_mixing_measure(mix: MixingMeasure, n: int) -> ExchangeableLaw:
    """Exchangeable law of n i.i.d.-given-theta draws under the mixing measure.

    With atoms a_j / D and weights w_j / W over common denominators, the
    class of t has weight |T_t| * sum_j w_j * prod_i a_j[i]^t[i] / (W * D^n),
    n draws with replacement from the atoms as urns.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _class_law(mix.m, n, _atom_urns(mix), 0)


def iid_law(q: Pmf, n: int) -> ExchangeableLaw:
    return from_mixing_measure(MixingMeasure(((q, Fraction(1)),)), n)


def delta_type_law(t: TypeVector) -> ExchangeableLaw:
    """Law that is uniform on one histogram class."""
    index = type_index_map(t.m, t.n)[t.counts]
    return ExchangeableLaw(t.m, t.n, Pmf.point_mass(count_types(t.m, t.n), index))


def polya_urn_law(initial: Sequence[int], n: int) -> ExchangeableLaw:
    """Law of n draws from a Polya urn with the given initial composition.

    Each drawn ball goes back with one more of its symbol (the urn kernel at
    step +1); initial counts must be >= 1.
    """
    initial = tuple(int(a) for a in initial)
    if len(initial) < 1 or any(a < 1 for a in initial):
        raise ValueError(f"initial composition must be positive integers, got {initial}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _class_law(len(initial), n, ((initial, 1),), 1)


RANDOM_WEIGHT_LIMIT = 2**30  # random histogram weights lie in 1..RANDOM_WEIGHT_LIMIT - 1


def random_type_weight_law(m: int, n: int, seed: int) -> ExchangeableLaw:
    """Seeded random histogram weights: positive integers, then normalised."""
    if seed is None:
        raise ValueError("seed is required; the construction is randomized")
    import random  # only the seeded families need it, so the CLI start skips it
    rng = random.Random(seed)
    raw = [rng.randrange(1, RANDOM_WEIGHT_LIMIT) for _ in range(count_types(m, n))]
    return ExchangeableLaw(m, n, Pmf.from_weights(raw))


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
    file or from the caller.  When both give n they must agree, for either
    kind of file.
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
        if n is not None and n != use_n:
            raise ValueError(f"law file has n={use_n}, caller asked for n={n}")
        return from_mixing_measure(mix, use_n)
    raise ValueError("law file needs a 'typeWeights' or 'mixing' key")
