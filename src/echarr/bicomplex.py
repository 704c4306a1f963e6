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

Within one build every signed shuffle product and every single-word image of
the two differentials is computed once: the relations, the induced maps and
the checks read the same tables, which are dropped when the build returns.
"""

from __future__ import annotations

from contextlib import contextmanager
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


class _BuildMemo:
    """Signed shuffles, single-word images and interned words of one build."""

    __slots__ = ("shuffles", "dW", "dMu", "words")

    def __init__(self, words_by_bidegree: dict[tuple[int, int], list[Word]]):
        self.shuffles: dict[tuple[Word, Word], WordVec] = {}
        self.dW: dict[Word, WordVec] = {}
        self.dMu: dict[Word, WordVec] = {}
        # equal words share the enumerated tuple
        self.words: dict[Word, Word] = {w: w for ws in words_by_bidegree.values() for w in ws}


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
        self.dW: dict[tuple[int, int], list[Vec]] = {}
        self.dMu: dict[tuple[int, int], list[Vec]] = {}
        self._memo: _BuildMemo | None = None
        with self._memoised():
            for key, words in self.words_by_bidegree.items():
                self._word_index[key] = {w: i for i, w in enumerate(words)}
                self.quotients[key] = QuotientSpace(len(words), self._shuffle_relations(key))

            # induced maps only for sources inside the reporting window
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

    @contextmanager
    def _memoised(self):
        """Share shuffles and word images until the outermost caller returns."""
        if self._memo is not None:
            yield
            return
        self._memo = _BuildMemo(self.words_by_bidegree)
        try:
            yield
        finally:
            self._memo = None

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
        memo = self._memo
        if memo is None:
            return word_dW(self.cx, vec)
        return self._compose(vec, memo.dW, word_dW)

    def word_dMu(self, vec: WordVec) -> WordVec:
        memo = self._memo
        if memo is None:
            return word_dMu(self.cx, vec)
        return self._compose(vec, memo.dMu, word_dMu)

    def _compose(self, vec: WordVec, images: dict[Word, WordVec], differential) -> WordVec:
        """Sum of the single-word images, each computed once per build."""
        intern = self._memo.words.setdefault
        out: WordVec = {}
        for word, coeff in vec.items():
            image = images.get(word)
            if image is None:
                image = images[word] = {
                    intern(w, w): c for w, c in differential(self.cx, {word: 1}).items()
                }
            for w, c in image.items():
                c = out.get(w, 0) + coeff * c
                if c:
                    out[w] = c
                else:
                    out.pop(w, None)
        return out

    def shuffle(self, u: Word, v: Word) -> WordVec:
        """Signed shuffle product; Koszul factors use degree-minus-one.

        u sh v = u0 (u[1:] sh v) + (-1)^{|v0|' |u|'} v0 (u sh v[1:]), where
        |x|' is the desuspended degree and u sh () = u.  Within a build each
        pair is computed once and the result is shared, so callers must not
        change it.
        """
        if not u or not v:
            return {u or v: 1}
        memo = self._memo
        if memo is None:
            with self._memoised():
                return self.shuffle(u, v)
        out = memo.shuffles.get((u, v))
        if out is not None:
            return out
        intern = memo.words.setdefault
        degree = self.cx.degree
        head = u[0]
        out = {}
        for w, c in self.shuffle(u[1:], v).items():
            w = (head,) + w
            out[intern(w, w)] = c
        head = v[0]
        flip = -1 if (degree[head] - 1) * sum(degree[m] - 1 for m in u) & 1 else 1
        for w, c in self.shuffle(u, v[1:]).items():
            w = (head,) + w
            _wv_add(out, intern(w, w), flip * c)
        memo.shuffles[intern(u, u), intern(v, v)] = out
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
        with self._memoised():
            for key in self.bidegrees():
                for word in self.words_by_bidegree[key]:
                    one = {word: 1}
                    dw, dmu = self.word_dW(one), self.word_dMu(one)
                    if self.word_dW(dw):
                        raise AssertionError(f"d_W^2 != 0 on {word}")
                    if self.word_dMu(dmu):
                        raise AssertionError(f"d_mu^2 != 0 on {word}")
                    anti = self.word_dW(dmu)
                    for w, c in self.word_dMu(dw).items():
                        _wv_add(anti, w, c)
                    if anti:
                        raise AssertionError(f"d_W d_mu + d_mu d_W != 0 on {word}")
            self._validate_shuffle_stability()

    def _validate_shuffle_stability(self) -> None:
        # derivation identity: d(u sh v) = du sh v +- u sh dv exhibits the
        # differential of every relation generator inside the span; when both
        # target quotients are zero the span is everything and stability is
        # automatic, so those bidegrees are skipped.  Belt and braces: on
        # small bidegrees the same images are also projected directly.
        limit = self.config.containment_dim_limit
        for key in self.bidegrees():
            n, q = key
            targets = ((n, q + 1), (n - 1, q))
            if not any(t in self.quotients and self.quotients[t].dim for t in targets):
                continue
            contain = len(self.words_by_bidegree[key]) <= limit
            for u, v in self._split_pairs(key):
                rel = self.shuffle(u, v)
                for dop, target in zip((self.word_dW, self.word_dMu), targets):
                    image = dop(rel)
                    self._check_derivation(u, v, dop, image)
                    if contain and target in self.quotients and self.project(image, target):
                        raise AssertionError(f"differential leaves the shuffle span at {key}")

    def _check_derivation(self, u: Word, v: Word, dop, image: WordVec) -> None:
        """image = dop(u sh v) must equal dop(u) sh v + (-1)^{|u|'} u sh dop(v)."""
        odd_u = sum(self.cx.degree[m] - 1 for m in u) & 1
        diff = dict(image)
        for w, c in dop({u: 1}).items():
            for w2, c2 in self.shuffle(w, v).items():
                _wv_add(diff, w2, -c * c2)
        for w, c in dop({v: 1}).items():
            for w2, c2 in self.shuffle(u, w).items():
                _wv_add(diff, w2, (c if odd_u else -c) * c2)
        if diff:
            raise AssertionError(f"shuffle derivation identity fails for {u} sh {v}")
