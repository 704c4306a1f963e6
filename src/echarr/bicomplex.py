"""Bicomplex of words over the atomic complex, modulo signed shuffles.

Words are tuples of positive-degree generators; a word of weight n and
internal degree q (sum of letter degrees) sits in column -(n-1) and total
degree q - (n - 1).  Per bidegree the word span is divided by the span of all
signed shuffle products, and two anticommuting differentials act: a letterwise
extension of the generator differential, and merging of adjacent letters by
the product.

Sign conventions use desuspended letter degrees (degree minus one) in every
Koszul factor; on two-letter words the merge reduces to (-1)^{|a|} (ab).  The
build asserts d_W^2 = 0, d_mu^2 = 0, anticommutation, and stability of the
shuffle span, and refuses to hand back a complex that fails any of them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .atomic_complex import AtomicComplex
from .errors import ResourceLimitError
from .linalg import QuotientSpace, Vec

Word = tuple[int, ...]  # letter masks
WordVec = dict[Word, int]  # integer coefficients; exactness needs no Fractions here


@dataclass(frozen=True)
class BicomplexConfig:
    max_total_degree: int = 8
    max_weight: int = 8
    max_words: int = 300_000
    validate: bool = True
    containment_dim_limit: int = 120


DEFAULT_BICOMPLEX_CONFIG = BicomplexConfig()


def _wv_add(acc: WordVec, word: Word, coeff: int) -> None:
    v = acc.get(word, 0) + coeff
    if v:
        acc[word] = v
    else:
        acc.pop(word, None)


def word_dW(cx: AtomicComplex, vec: WordVec) -> WordVec:
    """Letterwise generator differential with desuspended Koszul signs."""
    out: WordVec = {}
    for word, coeff in vec.items():
        shifted = 0
        for i, letter in enumerate(word):
            sign = -1 if shifted & 1 else 1
            for s, m2 in cx.diff_mask(letter):
                _wv_add(out, word[:i] + (m2,) + word[i + 1 :], coeff * sign * s)
            shifted += cx.degree[letter] - 1
    return out


def word_dMu(cx: AtomicComplex, vec: WordVec) -> WordVec:
    """Merge adjacent letters; the leading pair contributes (-1)^{|a|}(ab)."""
    out: WordVec = {}
    for word, coeff in vec.items():
        shifted = 0
        for i in range(len(word) - 1):
            a, b = word[i], word[i + 1]
            exponent = shifted + cx.degree[a]
            p = cx.product_masks(a, b)
            if p is not None:
                sign = (-1 if exponent & 1 else 1) * p[0]
                _wv_add(out, word[:i] + (p[1],) + word[i + 2 :], coeff * sign)
            shifted += cx.degree[a] - 1
    return out


class WordBicomplex:
    """Truncated word bicomplex of an atomic complex.

    Quotient bases, projections and induced differentials are computed per
    bidegree (weight n, internal degree q) for every word of total degree at
    most ``max_total_degree + 1`` (the extra slot keeps kernels exact at the
    reporting boundary) and weight at most ``max_weight``.  Letters of degree
    exactly one put words of bounded total degree at every weight, so the
    weight cap is a genuine truncation there; `has_degree_one_letters` flags
    it.
    """

    def __init__(self, cx: AtomicComplex, config: BicomplexConfig = DEFAULT_BICOMPLEX_CONFIG):
        self.cx = cx
        self.config = config
        self.letters = sorted(
            (m for m in range(1 << cx.n) if cx.degree[m] >= 1),
            key=lambda m: (cx.degree[m], m),
        )
        self.letter_degree = {m: cx.degree[m] for m in self.letters}
        self.has_degree_one_letters = any(cx.degree[m] == 1 for m in self.letters)

        self.words_by_bidegree: dict[tuple[int, int], list[Word]] = {}
        self._enumerate_words()
        self.quotients: dict[tuple[int, int], QuotientSpace] = {}
        self._word_index: dict[tuple[int, int], dict[Word, int]] = {}
        for key, words in self.words_by_bidegree.items():
            self._word_index[key] = {w: i for i, w in enumerate(words)}
            self.quotients[key] = QuotientSpace(len(words), self._shuffle_relations(key))

        # induced maps only for sources inside the reporting window
        self.dW: dict[tuple[int, int], list[Vec]] = {}
        self.dMu: dict[tuple[int, int], list[Vec]] = {}
        for (n, q), quo in self.quotients.items():
            if q - n + 1 > config.max_total_degree:
                continue
            self.dW[(n, q)] = [
                self.project(self.word_dW({self._lift_word((n, q), i): 1}), (n, q + 1))
                for i in range(quo.dim)
            ]
            self.dMu[(n, q)] = [
                self.project(self.word_dMu({self._lift_word((n, q), i): 1}), (n - 1, q))
                for i in range(quo.dim)
            ]

        if config.validate:
            self.self_validate()

    # -- enumeration ---------------------------------------------------------

    def _enumerate_words(self) -> None:
        budget = self.config.max_words
        count = 0
        # total degree = sum of (degree - 1) + 1, so cap the shifted sum
        shift_cap = self.config.max_total_degree
        stack: list[tuple[Word, int]] = [((), 0)]
        while stack:
            word, shifted = stack.pop()
            if word:
                q = shifted + len(word)
                self.words_by_bidegree.setdefault((len(word), q), []).append(word)
                count += 1
                if count > budget:
                    raise ResourceLimitError(
                        f"word enumeration exceeded {budget} words; tighten the "
                        "total-degree or weight truncation",
                        limit=budget,
                    )
            if len(word) >= self.config.max_weight:
                continue
            for m in self.letters:
                s = shifted + self.letter_degree[m] - 1
                if s <= shift_cap:
                    stack.append((word + (m,), s))
        for words in self.words_by_bidegree.values():
            words.sort()

    def bidegrees(self) -> list[tuple[int, int]]:
        return sorted(self.words_by_bidegree)

    def total_degree(self, key: tuple[int, int]) -> int:
        n, q = key
        return q - n + 1

    def _lift_word(self, key: tuple[int, int], i: int) -> Word:
        quo = self.quotients[key]
        return self.words_by_bidegree[key][quo.free_cols[i]]

    # -- free-space differentials ---------------------------------------------

    def word_dW(self, vec: WordVec) -> WordVec:
        return word_dW(self.cx, vec)

    def word_dMu(self, vec: WordVec) -> WordVec:
        return word_dMu(self.cx, vec)

    def shuffle(self, u: Word, v: Word) -> WordVec:
        """Signed shuffle product; Koszul factors use degree-minus-one."""
        out: WordVec = {}
        nu, nv = len(u), len(v)
        su = [self.cx.degree[m] - 1 for m in u]
        sv = [self.cx.degree[m] - 1 for m in v]
        total_su = sum(su)
        for positions in itertools.combinations(range(nu + nv), nu):
            word: list[int] = []
            iu = iv = 0
            sign = 1
            remaining_u = total_su
            pos_iter = iter(positions)
            next_pos = next(pos_iter, -1)
            for k in range(nu + nv):
                if k == next_pos:
                    word.append(u[iu])
                    remaining_u -= su[iu]
                    iu += 1
                    next_pos = next(pos_iter, -1)
                else:
                    # the v-letter crosses every u-letter not yet placed
                    if (sv[iv] * remaining_u) & 1:
                        sign = -sign
                    word.append(v[iv])
                    iv += 1
            _wv_add(out, tuple(word), sign)
        return out

    def _split_pairs(self, key: tuple[int, int]):
        """(u, v) pairs whose shuffles span the relations at this bidegree."""
        n, q = key
        for i in range(1, n // 2 + 1):
            j = n - i
            for (nu, qu), us in self.words_by_bidegree.items():
                if nu != i:
                    continue
                vs = self.words_by_bidegree.get((j, q - qu), [])
                for u in us:
                    for v in vs:
                        if i == j and v < u:
                            continue
                        yield u, v

    def _shuffle_relations(self, key: tuple[int, int]):
        index = self._word_index[key]
        for u, v in self._split_pairs(key):
            rel = self.shuffle(u, v)
            yield {index[w]: c for w, c in rel.items()}

    def project(self, vec: WordVec, key: tuple[int, int]) -> Vec:
        """Class of a free word vector in the target bidegree's quotient."""
        if key not in self.quotients:
            if vec:
                raise KeyError(f"bidegree {key} outside the built window")
            return {}
        index = self._word_index[key]
        coords = {index[w]: c for w, c in vec.items()}
        return self.quotients[key].project(coords)

    # -- self validation -------------------------------------------------------

    def self_validate(self) -> None:
        """Sign conventions are rejected loudly if any identity fails."""
        for key in self.bidegrees():
            for word in self.words_by_bidegree[key]:
                one = {word: 1}
                if self.word_dW(self.word_dW(one)):
                    raise AssertionError(f"d_W^2 != 0 on {word}")
                if self.word_dMu(self.word_dMu(one)):
                    raise AssertionError(f"d_mu^2 != 0 on {word}")
                anti = self.word_dW(self.word_dMu(one))
                for w, c in self.word_dMu(self.word_dW(one)).items():
                    _wv_add(anti, w, c)
                if anti:
                    raise AssertionError(f"d_W d_mu + d_mu d_W != 0 on {word}")
        self._validate_shuffle_stability()

    def _validate_shuffle_stability(self) -> None:
        # derivation identity: d(u sh v) = du sh v +- u sh dv exhibits the
        # differential of every relation generator inside the span; when both
        # target quotients are zero the span is everything and stability is
        # automatic, so those pairs are skipped
        for key in self.bidegrees():
            n, q = key
            targets = (self.quotients.get((n, q + 1)), self.quotients.get((n - 1, q)))
            if all(t is None or t.dim == 0 for t in targets):
                continue
            for u, v in self._split_pairs(key):
                self._check_derivation(u, v)
        # belt and braces: direct matrix containment on small bidegrees
        limit = self.config.containment_dim_limit
        for key in self.bidegrees():
            words = self.words_by_bidegree[key]
            if len(words) > limit:
                continue
            n, q = key
            for rel_coords in self._shuffle_relations(key):
                rel = {words[i]: c for i, c in rel_coords.items()}
                for image, target in (
                    (self.word_dW(rel), (n, q + 1)),
                    (self.word_dMu(rel), (n - 1, q)),
                ):
                    if target in self.quotients and self.project(image, target):
                        raise AssertionError(
                            f"differential leaves the shuffle span at {key}"
                        )

    def _check_derivation(self, u: Word, v: Word) -> None:
        tu = sum(self.cx.degree[m] - 1 for m in u)
        sign = -1 if tu & 1 else 1
        all_closed = all(not self.cx.diff_mask(m) for m in u + v)
        for dop in (self.word_dW, self.word_dMu):
            if dop is self.word_dW and all_closed:
                # every letter of every shuffled word is closed, so both
                # sides vanish identically
                continue
            lhs = dop(self.shuffle(u, v))
            rhs: WordVec = {}
            for w, c in dop({u: 1}).items():
                for w2, c2 in self.shuffle(w, v).items():
                    _wv_add(rhs, w2, c * c2)
            for w, c in dop({v: 1}).items():
                for w2, c2 in self.shuffle(u, w).items():
                    _wv_add(rhs, w2, sign * c * c2)
            diff = dict(lhs)
            for w, c in rhs.items():
                _wv_add(diff, w, -c)
            if diff:
                raise AssertionError(f"shuffle derivation identity fails for {u} sh {v}")
