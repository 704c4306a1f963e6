import gc
import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import echarr.bicomplex as bicomplex
from echarr.atomic_complex import AtomicComplex
from echarr.bicomplex import BicomplexConfig, WordBicomplex, word_dMu, word_dW
from echarr.corpus import (
    disjoint_pair,
    ex28,
    ex28_2,
    full_corpus,
    mcs7,
    random_hypergraph,
    single_color,
    smalldude,
)
from echarr.errors import ResourceLimitError


@pytest.fixture(scope="module")
def sphere_bc():
    return WordBicomplex(AtomicComplex(single_color(2)), BicomplexConfig(max_total_degree=8))


@pytest.fixture(scope="module")
def pair_bc():
    return WordBicomplex(AtomicComplex(disjoint_pair()), BicomplexConfig(max_total_degree=8))


class TestEnumeration:
    def test_square_zero_letter_words(self, sphere_bc):
        # one letter of degree 3: words a, a|a, a|a|a, ... within the window
        assert {k: len(v) for k, v in sphere_bc.words_by_bidegree.items()} == {
            (1, 3): 1,
            (2, 6): 1,
            (3, 9): 1,
            (4, 12): 1,
        }

    def test_total_degree_bookkeeping(self, pair_bc):
        for (n, q), words in pair_bc.words_by_bidegree.items():
            for w in words:
                q_check = sum(pair_bc.cx.degree[m] for m in w)
                assert q_check == q and len(w) == n
            assert pair_bc.total_degree((n, q)) == q - n + 1

    def test_budget_guard(self):
        with pytest.raises(ResourceLimitError):
            WordBicomplex(
                AtomicComplex(mcs7()),
                BicomplexConfig(max_total_degree=8, max_words=10),
            )

    def test_degree_one_flag(self):
        bc = WordBicomplex(
            AtomicComplex(ex28()), BicomplexConfig(max_total_degree=3, max_weight=3)
        )
        assert bc.has_degree_one_letters
        assert not WordBicomplex(
            AtomicComplex(disjoint_pair()), BicomplexConfig(max_total_degree=4)
        ).has_degree_one_letters


class TestShuffleQuotient:
    def test_odd_letter_square_killed(self, sphere_bc):
        # a|a for |a| = 3 dies: the shuffle a sh a = 2 a|a spans it
        assert sphere_bc.quotients[(2, 6)].dim == 0
        assert sphere_bc.quotients[(3, 9)].dim == 0

    def test_two_distinct_odd_letters_rank_one(self, pair_bc):
        assert pair_bc.quotients[(2, 6)].dim == 1

    def test_mixed_weight2(self, pair_bc):
        # a_i | a_union for letter degrees (3, 6): two classes survive
        assert pair_bc.quotients[(2, 9)].dim == 2


class TestDifferentials:
    def test_two_letter_merge_sign(self, pair_bc):
        cx = pair_bc.cx
        a, b = cx.mask_of(["A"]), cx.mask_of(["B"])
        out = word_dMu(cx, {(a, b): Fraction(1)})
        expected_sign, union = cx.product_masks(a, b)
        assert out == {(union,): Fraction((-1) ** cx.degree[a] * expected_sign)}

    def test_square_zero_letter_merge(self, sphere_bc):
        cx = sphere_bc.cx
        a = cx.mask_of(["A"])
        assert word_dMu(cx, {(a, a): Fraction(1)}) == {}

    def test_letterwise_differential(self):
        cx = AtomicComplex(mcs7())
        x = cx.mask_of(["L1", "L2", "L4"])
        a3 = cx.mask_of(["L3"])
        out = word_dW(cx, {(x, a3): Fraction(1)})
        a12 = cx.mask_of(["L1", "L2"])
        assert out == {(a12, a3): Fraction(-1)}
        # second slot picks up the desuspended prefix sign (-1)^{|x|-1}
        out2 = word_dW(cx, {(a3, x): Fraction(1)})
        assert out2 == {(a3, a12): Fraction(-1)}

    def test_identities_on_larger_instances(self):
        # ex28_2 and smalldude have nonzero d_W; build - which self-validates
        for h in (ex28_2(), smalldude()):
            WordBicomplex(
                AtomicComplex(h), BicomplexConfig(max_total_degree=6, max_weight=5)
            )

    def test_mcs7_window(self):
        WordBicomplex(AtomicComplex(mcs7()), BicomplexConfig(max_total_degree=7))


class TestProjectionWellDefined:
    def test_relation_images_die(self, pair_bc):
        cx = pair_bc.cx
        a, b = cx.mask_of(["A"]), cx.mask_of(["B"])
        rel = pair_bc.shuffle((a,), (b,))
        assert pair_bc.project(rel, (2, 6)) == {}
        image = pair_bc.word_dMu(rel)
        assert pair_bc.project(image, (1, 6)) == {}


class TestRandomInstances:
    def test_sign_identities_fuzz(self):
        # small windows over random hypergraphs; the build raises on any
        # failed identity
        import random

        from echarr.corpus import random_hypergraph

        rng = random.Random(99)
        built = 0
        for _ in range(12):
            h = random_hypergraph(rng, max_vertices=5, max_colors=3)
            if not h.colors:
                continue
            bc = WordBicomplex(
                AtomicComplex(h),
                BicomplexConfig(max_total_degree=4, max_weight=3, max_words=20_000),
            )
            assert bc.quotients is not None
            built += 1
        assert built >= 8


def reference_shuffle(cx, u, v):
    """The signed shuffle summed over every placement of u's letters."""
    out = {}
    nu, nv = len(u), len(v)
    su = [cx.degree[m] - 1 for m in u]
    sv = [cx.degree[m] - 1 for m in v]
    for positions in itertools.combinations(range(nu + nv), nu):
        word, placed = [], set(positions)
        iu = iv = 0
        sign = 1
        remaining_u = sum(su)
        for k in range(nu + nv):
            if k in placed:
                word.append(u[iu])
                remaining_u -= su[iu]
                iu += 1
            else:
                # the v-letter crosses every u-letter not yet placed
                if (sv[iv] * remaining_u) & 1:
                    sign = -sign
                word.append(v[iv])
                iv += 1
        w = tuple(word)
        c = out.get(w, 0) + sign
        if c:
            out[w] = c
        else:
            out.pop(w)
    return out


def is_lyndon(word):
    return all(word < word[i:] + word[:i] for i in range(1, len(word)))


# (max_total_degree, max_weight) windows, largest first; an instance gets the
# first one whose words fit the budget
WINDOWS = ((5, 4), (5, 3), (4, 2))


@pytest.fixture(scope="module")
def window_bicomplexes():
    hypergraphs = [(name, h) for name, h in sorted(full_corpus().items()) if h.colors]
    rng = random.Random(5)
    for i in range(6):
        h = random_hypergraph(rng, max_vertices=5, max_colors=4)
        while not h.colors:
            h = random_hypergraph(rng, max_vertices=5, max_colors=4)
        hypergraphs.append((f"extra_{i}", h))
    built = {}
    for name, h in hypergraphs:
        cx = AtomicComplex(h)
        for degree, weight in WINDOWS:
            config = BicomplexConfig(max_total_degree=degree, max_weight=weight, max_words=20_000)
            try:
                built[name] = WordBicomplex(cx, config)
                break
            except ResourceLimitError:
                continue
    # kequal_5_3 has so many degree-one letters that even weight two is over
    assert {name for name, _ in hypergraphs} - set(built) <= {"kequal_5_3"}
    return built


class TestRecursiveShuffle:
    def test_split_pairs_match_reference(self, window_bicomplexes):
        checked = 0
        for bc in window_bicomplexes.values():
            # one shared table per bicomplex, as in a build
            with bc._memoised():
                for key in bc.bidegrees():
                    for u, v in bc._split_pairs(key):
                        assert bc.shuffle(u, v) == reference_shuffle(bc.cx, u, v), (u, v)
                        checked += 1
        assert checked > 1000

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_hypothesis_words_match_reference(self, letters_bc, data):
        # a small alphabet so that letters repeat
        letters = st.sampled_from(letters_bc.letters[:4])
        u = tuple(data.draw(st.lists(letters, max_size=4)))
        v = tuple(data.draw(st.lists(letters, max_size=4)))
        assert letters_bc.shuffle(u, v) == reference_shuffle(letters_bc.cx, u, v)

    def test_alphabet_has_both_parities(self, letters_bc):
        assert {(letters_bc.cx.degree[m] - 1) & 1 for m in letters_bc.letters[:4]} == {0, 1}


@pytest.fixture(scope="module")
def letters_bc():
    """Only the alphabet matters to the shuffle; the window is minimal."""
    return WordBicomplex(AtomicComplex(smalldude()), BicomplexConfig(max_total_degree=1, max_weight=1))


class TestSuperLyndonDimensions:
    def test_quotient_dim_counts_super_lyndon_words(self, window_bicomplexes):
        # a super-Lyndon word is Lyndon, or the square of a Lyndon word of odd
        # desuspended degree; the count never looks at the relations
        checked = 0
        for bc in window_bicomplexes.values():
            for key, words in bc.words_by_bidegree.items():
                count = 0
                for w in words:
                    half = w[: len(w) // 2]
                    if is_lyndon(w) or (
                        w == half + half
                        and is_lyndon(half)
                        and sum(bc.cx.degree[m] - 1 for m in half) & 1
                    ):
                        count += 1
                assert bc.quotients[key].dim == count, key
                checked += 1
        assert checked >= 200


class TestValidationCatchesSharedErrors:
    """One wrong sign in a shared shuffle or image must fail the build."""

    def test_wrong_shuffle_sign(self, monkeypatch):
        cx = AtomicComplex(disjoint_pair())
        a, b = cx.mask_of(["A"]), cx.mask_of(["B"])
        original = WordBicomplex.shuffle

        def wrong(self, u, v):
            out = original(self, u, v)
            if (u, v) == ((a,), (b,)):
                out = dict(out)
                out[(b, a)] = -out[(b, a)]
            return out

        monkeypatch.setattr(WordBicomplex, "shuffle", wrong)
        with pytest.raises(AssertionError):
            WordBicomplex(cx, BicomplexConfig(max_total_degree=8))

    @pytest.mark.parametrize(
        "name, differential, hypergraph, colors, degree",
        [
            ("word_dW", word_dW, mcs7, [["L1", "L2", "L4"]], 7),
            ("word_dMu", word_dMu, disjoint_pair, [["A"], ["B"]], 8),
        ],
    )
    def test_wrong_image_sign(self, monkeypatch, name, differential, hypergraph, colors, degree):
        cx = AtomicComplex(hypergraph())
        target = tuple(cx.mask_of(c) for c in colors)

        def wrong(cx_, vec):
            out = differential(cx_, vec)
            if vec == {target: 1}:
                first = next(iter(out))
                out[first] = -out[first]
            return out

        monkeypatch.setattr(bicomplex, name, wrong)
        with pytest.raises(AssertionError):
            WordBicomplex(cx, BicomplexConfig(max_total_degree=degree))


class TestBoundedMemory:
    def test_memos_do_not_outlive_the_build(self, monkeypatch):
        sizes = []
        original = WordBicomplex.self_validate

        def spy(self):
            original(self)
            memo = self._memo
            sizes.append((len(memo.shuffles), len(memo.dW), len(memo.dMu)))

        monkeypatch.setattr(WordBicomplex, "self_validate", spy)
        bc = WordBicomplex(AtomicComplex(smalldude()), BicomplexConfig(max_total_degree=5, max_weight=4))
        monkeypatch.undo()
        assert sizes and all(sizes[0])
        assert bc._memo is None

    def test_later_calls_leave_nothing_behind(self):
        bc = WordBicomplex(AtomicComplex(smalldude()), BicomplexConfig(max_total_degree=5, max_weight=4))
        u, v = next(bc._split_pairs((4, max(q for n, q in bc.bidegrees() if n == 4))))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            bc.shuffle(u, v)
            bc.self_validate()
            gc.collect()
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert bc._memo is None
        # the tables were built (peak) and then dropped (after)
        assert peak - before > 200_000
        assert after - before < 20_000
