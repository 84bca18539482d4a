"""Roots e_i - e_j as 1-based index pairs (i, j), as theta_parabolic
returns them in delta_u."""

import random

from helpers import random_ic, random_weight

from lpackets import Signature, Weight, theta_parabolic


def noncompact_positive_on(weight: Weight, sig: Signature) -> list[tuple[int, int]]:
    """The pairs (i, j) with i in the first block, j in the second and
    weight_i > weight_j, in lexicographic order."""
    return [(i, j) for i, j in theta_parabolic(weight).delta_u if i <= sig.r < j]


class TestRootSets:
    def test_roots_g_lex_order(self):
        # delta_u lists the pairs positive on the weight in lexicographic
        # order; a regular weight and its negative between them list every
        # root of gl(n), each once.
        assert theta_parabolic(Weight((5, 2, -1))).delta_u == ((1, 2), (1, 3), (2, 3))
        assert theta_parabolic(Weight((5, -1, 2))).delta_u == ((1, 2), (1, 3), (3, 2))
        assert theta_parabolic(Weight((0, 2, 1))).delta_u == ((2, 1), (2, 3), (3, 1))
        w = Weight((0, 2, 1))
        both = theta_parabolic(w).delta_u + theta_parabolic(-w).delta_u
        assert sorted(both) == [(1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)]
        rng = random.Random(11)
        for n in range(1, 9):
            for _ in range(40):
                w = random_weight(rng, n)
                pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
                         if w[i - 1] > w[j - 1]]
                assert theta_parabolic(w).delta_u == tuple(pairs)


class TestPositiveOn:
    def test_examples(self):
        sig = Signature(2, 1)
        assert noncompact_positive_on(Weight((5, 2, -1)), sig) == [(1, 3), (2, 3)]
        assert noncompact_positive_on(Weight((5, -1, 2)), sig) == [(1, 3)]

    def test_regularity_count(self):
        rng = random.Random(3)
        for n in range(2, 8):
            para = theta_parabolic(random_ic(rng, n).weight)
            assert para.is_borel
            assert len(para.delta_u) == n * (n - 1) // 2
        singular = Weight((3, 3, 0))
        assert len(theta_parabolic(singular).delta_u) < 3


class TestSumOfRoots:
    def test_empty(self):
        para = theta_parabolic(Weight((3, 3, 3)))
        assert not para.is_borel
        assert para.delta_u == ()
        assert para.two_rho_u.entries == (0, 0, 0)
