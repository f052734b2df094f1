"""Exchangeable laws on A^n, each kept as a weighted mixture of urns.

n exchangeable draws are a mixture of urns (Diaconis & Freedman 1980): each
urn holds balls of the m symbols, and a drawn ball goes back with `step`
more of its symbol.  -1 draws without replacement (a typeWeights law file
is its n-histograms at -1, a delta-type law one of them), 0 with
replacement (i.i.d. laws and a mixing file's atoms), +1 is the Polya urn.
`UrnLaw(m, n, urns, step)` is the one law record, and `read_law` reads
either kind of law file straight into one.  The urn kernel
(`types_core.urn_numerators`) gives its k-block law P_k from the urns at a
cost in m and k, not in n.  P_j for j < k is a margin of P_k, and the
mixture M_k is a linear function of P_k (`block_laws`), so one pass at the
largest k of a grid serves every k; all come as one integer numerator per
k-histogram, never spread over the m^k strings.
`histogram_law` builds a law out to its n-histogram weights.  A pmf, an
atom or a weight vector is read once, into integer numerators over a common
denominator (`counts.pmf_numerators`); a law file's rational strings are
read into integers by `counts.parse_rational`.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from itertools import accumulate, product
from operator import mul

from .counts import Ratio, TypeVector, _exact_numerators, _ratio_text, check_cap
from .counts import parse_rational, pmf_numerators
from .types_core import type_class_size, type_index_map, type_list, urn_numerators

__all__ = [
    "UrnLaw",
    "block_laws",
    "delta_type_law",
    "histogram_law",
    "iid_law",
    "polya_urn_law",
    "random_type_weight_law",
    "read_law",
]


class UrnLaw(namedtuple("UrnLaw", "m n urns step")):
    """Law of n >= 1 draws from a weighted mixture of urns, kept as its urns.

    Each (counts, w) in `urns` holds counts[a] balls of symbol a and has
    integer weight w; all urns hold the same number of balls, and a drawn
    ball goes back with `step` more of its symbol (-1, 0 or +1).  Its k-block
    laws cost one kernel pass at k, whatever n is.  The record still checks
    the number of n-histograms against the enumeration cap, as building its
    level-n law would.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates too

    def __new__(cls, m: int, n: int, urns, step: int) -> "UrnLaw":
        urns = tuple((tuple(counts), w) for counts, w in urns)
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if step not in (-1, 0, 1):
            raise ValueError(f"step must be -1, 0 or 1, got {step}")
        if not urns or any(len(counts) != m or min(counts) < 0 for counts, _ in urns):
            raise ValueError(f"urns must hold nonnegative counts of {m} symbols")
        if len({sum(counts) for counts, _ in urns}) != 1:
            raise ValueError("all urns must hold the same number of balls")
        if not all(isinstance(w, int) and w >= 0 for _, w in urns) or not any(w for _, w in urns):
            raise ValueError("urn weights must be nonnegative integers, not all zero")
        size = sum(urns[0][0])
        if size < (n if step < 0 else 1):
            raise ValueError(f"urns of {size} balls cannot give {n} draws at step {step}")
        check_cap(m, n)
        return tuple.__new__(cls, (m, n, urns, step))


@lru_cache(maxsize=None)
def _stirling2(c: int, i: int) -> int:
    """Stirling number of the second kind: partitions of c items into i blocks."""
    if c == 0 or i == 0:
        return int(c == i)
    return i * _stirling2(c - 1, i) + _stirling2(c - 1, i - 1)


def block_laws(law: UrnLaw, cells) -> list[tuple[tuple[list[int], int], tuple[list[int], int]]]:
    """Per (k, n) of `cells`: ((P_k numerators, D), (M_k numerators, D * n^k)).

    M_k mixes i.i.d. blocks over the pmf T/n of the first n draws.  Both laws
    are constant on k-histogram classes, so each gives one numerator per
    histogram, in type_list(m, k) order.  1 <= k <= n <= law.n.  One kernel
    pass over the law's urns at the largest k, K, gives P_K as numerators
    over D.  The probability of one j-string with histogram i is a margin of
    P_K, p_j(i) = A_j(i) / D with A_j(i) = sum_a A_{j+1}(i + e_a), so every
    P_k of the cells is read off that pass.
    With t^u = sum_{i<=u} prod_a S(u_a, i_a) (t_a)_{i_a}, S the Stirling
    numbers of the second kind, and E[prod_a (T_a)_{i_a}] = (n)_{|i|} p_{|i|}(i),
    M_k has numerators sum_{i<=u} prod_a S(u_a, i_a) (n)_{|i|} A_{|i|}(i) over
    D * n^k (Diaconis & Freedman 1980); no law of the first n draws is built.
    """
    for k, n in cells:
        if not 1 <= k <= n <= law.n:
            raise ValueError(f"need 1 <= k <= n <= {law.n}, got k={k}, n={n}")
    top = max(k for k, _ in cells)
    numerators, den = urn_numerators(law.urns, top, law.step)
    margin = dict(zip((u.counts for u in type_list(law.m, top)), numerators))
    for j in range(top - 1, 0, -1):
        for i in (t.counts for t in type_list(law.m, j)):
            margin[i] = sum(margin[i[:a] + (c + 1,) + i[a + 1 :]] for a, c in enumerate(i))
    laws = []
    for k, n in cells:
        blocks = [u.counts for u in type_list(law.m, k)]
        falling = list(accumulate((n - j for j in range(k)), mul, initial=1))
        mixed = [
            sum(
                math.prod(map(_stirling2, u, i)) * falling[sum(i)] * margin[i]
                for i in product(*(range(1 if c else 0, c + 1) for c in u))
            )
            for u in blocks
        ]
        laws.append((([margin[u] for u in blocks], den), (mixed, den * n**k)))
    return laws


def histogram_law(law: UrnLaw) -> tuple[list[int], int]:
    """The law's n-histogram weights over type_list(m, n), as (numerators, denominator).

    At step -1, n draws empty an urn of n balls, so that urn's n-histogram
    is its own counts, and the weights are the urns' weights summed per
    counts, one pass over the urns.  Otherwise one kernel pass at n: the
    class of t has weight |T_t| times the probability of one n-string with
    histogram t.
    """
    if law.step < 0 and sum(law.urns[0][0]) == law.n:
        weights = [0] * len(type_list(law.m, law.n))
        index = type_index_map(law.m, law.n)
        for counts, w in law.urns:
            weights[index[counts]] += w
        return weights, sum(weights)
    numerators, den = urn_numerators(law.urns, law.n, law.step)
    types = type_list(law.m, law.n)
    classes = [type_class_size(t) * x if x else 0 for t, x in zip(types, numerators)]
    return classes, den


def iid_law(q, n: int) -> UrnLaw:
    """n i.i.d. draws from the pmf or n-type q = a / D: the one urn a at 0."""
    a, _ = pmf_numerators(q)
    return UrnLaw(len(a), n, ((a, 1),), 0)


def delta_type_law(t: TypeVector) -> UrnLaw:
    """Uniform on the class of t: every ball of the urn t, drawn without replacement."""
    return UrnLaw(t.m, t.n, ((t.counts, 1),), -1)


def polya_urn_law(initial: Sequence[int], n: int) -> UrnLaw:
    """n draws from a Polya urn: each drawn ball goes back with one more of its symbol.

    The initial counts must be >= 1.
    """
    initial = tuple(int(a) for a in initial)
    if len(initial) < 1 or any(a < 1 for a in initial):
        raise ValueError(f"initial composition must be positive integers, got {initial}")
    return UrnLaw(len(initial), n, ((initial, 1),), 1)


RANDOM_WEIGHT_LIMIT = 2**30  # random histogram weights lie in 1..RANDOM_WEIGHT_LIMIT - 1


def random_type_weight_law(m: int, n: int, seed: int) -> UrnLaw:
    """Seeded random positive integer weights on the n-histograms, in type order, at -1."""
    if seed is None:
        raise ValueError("seed is required; the construction is randomized")
    types = type_list(m, n)  # checks the cap before any weight is drawn
    import random  # only the seeded families need it, so the CLI start skips it

    rng = random.Random(seed)
    return UrnLaw(m, n, [(t.counts, rng.randrange(1, RANDOM_WEIGHT_LIMIT)) for t in types], -1)


# ---------------------------------------------------------------------------
# law files
# ---------------------------------------------------------------------------


def _law_rational(value):
    """A law file's integer or rational string as an exact rational: the one check of its tokens."""
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(getattr(value, "denominator", None), int) and not isinstance(value, bool):
        return value  # an int, or a Fraction in a dict given by the caller
    raise ValueError(f"rationals must be integers or strings like '3/4', got {value!r}")


def _checked(value, kind, field: str):
    """`value` when its type is `kind` (list, dict or int, so not a bool), else a ValueError."""
    if type(value) is not kind:
        name = {list: "array", dict: "object", int: "integer"}[kind]
        raise ValueError(f"law file {field} must be a JSON {name}, got {value!r}")
    return value


def read_law(obj, n: int | None = None) -> UrnLaw:
    """Read a law file, JSON text or its parsed dict, into an `UrnLaw`: the one check of a file.

    A typeWeights file gives the weights of n-histograms, which become those
    urns at -1; it fixes (m, n) itself.  A mixing file gives a finite mixture
    of i.i.d. laws, its atoms as urns at 0, and needs n, from the file or
    from the caller.  When both give n they must agree, for either kind of
    file.  m, n and counts are integers; weights and pmf entries are integers
    or rational strings.
    """
    if isinstance(obj, str):
        import json  # only a law file's start parses JSON

        try:
            obj = json.loads(obj)
        except RecursionError:  # a file nested past the interpreter's recursion limit
            raise ValueError("law file nests its JSON too deeply to read") from None
    if not isinstance(obj, dict):
        raise ValueError("law file must be a JSON object")
    if "typeWeights" in obj:
        m, file_n = _checked(obj["m"], int, "'m'"), _checked(obj["n"], int, "'n'")
        if n is not None and n != file_n:
            raise ValueError(f"law file has n={file_n}, caller asked for n={n}")
        check_cap(m, file_n)  # before any entry is read
        given = {}  # counts -> the sum of the weights given to that histogram, in integers
        for entry in _checked(obj["typeWeights"], list, "'typeWeights'"):
            entry = _checked(entry, dict, "'typeWeights' entry")
            counts = _checked(entry["counts"], list, "'counts'")
            counts = tuple(_checked(c, int, "'counts' entry") for c in counts)
            if len(counts) != m or min(counts) < 0 or sum(counts) != file_n:
                raise ValueError(f"counts {counts} are not a histogram at (m={m}, n={file_n})")
            a, d = _exact_numerators((given.get(counts, 0), _law_rational(entry["w"])))
            given[counts] = Ratio(sum(a), d)
        cells = sorted(given)  # type order, the lexicographic order of the counts
        nums, _ = pmf_numerators(map(given.get, cells))
        return UrnLaw(m, file_n, [(counts, w) for counts, w in zip(cells, nums) if w], -1)
    if "mixing" in obj:
        atoms = []  # ((a, D), w): each pmf is read before the next token is parsed
        for entry in _checked(obj["mixing"], list, "'mixing'"):
            pmf = _checked(_checked(entry, dict, "'mixing' entry")["pmf"], list, "'pmf'")
            q = pmf_numerators([_law_rational(v) for v in pmf])
            atoms.append((q, _law_rational(entry["w"])))
        if not atoms:
            raise ValueError("mixing measure needs at least one atom")
        if len({len(a) for (a, _), _ in atoms}) > 1:
            raise ValueError("all atoms must share one alphabet")
        weights, total = _exact_numerators([w for _, w in atoms])
        if min(weights) < 0:
            raise ValueError("negative mixing weight")
        if sum(weights) != total:
            raise ValueError(f"mixing weights sum to {_ratio_text(sum(weights), total)}, not 1")
        use_n = _checked(obj["n"], int, "'n'") if "n" in obj else n
        if use_n is None:
            raise ValueError("mixing law file needs n (in the file or from the caller)")
        if n is not None and n != use_n:
            raise ValueError(f"law file has n={use_n}, caller asked for n={n}")
        # atom j is a_j / D_j and has weight w_j / W: urn j holds a_j scaled to lcm(D) balls
        den = math.lcm(*(d for (_, d), _ in atoms))
        scaled = [[x * (den // d) for x in a] for (a, d), _ in atoms]
        return UrnLaw(len(scaled[0]), use_n, zip(scaled, weights), 0)
    raise ValueError("law file needs a 'typeWeights' or 'mixing' key")
