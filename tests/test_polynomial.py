from math import comb

import pytest

from semitotal import (
    Conventions,
    CountPolynomial,
    PLAIN,
    SEMITOTAL_EXACT,
    SEMITOTAL_WITHIN,
    closed_form,
    complete,
    complete_bipartite,
    count_by_size,
    cycle,
    friendship,
    path,
    star,
)

from corpus import family_corpus


def test_evaluate_examples():
    assert count_by_size(star(3), SEMITOTAL_EXACT).evaluate(1) == 1
    assert count_by_size(complete(2), PLAIN).evaluate(1) == 3
    p = CountPolynomial([0, 2, 1])
    assert p.evaluate(0) == 0
    assert p.evaluate(10) == 120


def test_equality_pads_zeros():
    assert CountPolynomial([0, 1]) == CountPolynomial([0, 1, 0, 0])
    assert hash(CountPolynomial([0, 1])) == hash(CountPolynomial([0, 1, 0]))


def test_first_difference():
    p = CountPolynomial([0, 1, 2])
    assert p.first_difference(p) is None
    q = CountPolynomial([0, 1, 3])
    assert p.first_difference(q) == 2
    assert CountPolynomial([0, 1]).first_difference(CountPolynomial([0, 1, 5])) == 2


def test_cycle4_plain_equals_semitotal_within():
    d = count_by_size(cycle(4), PLAIN)
    d_t2 = count_by_size(cycle(4), SEMITOTAL_WITHIN)
    assert d.first_difference(d_t2) is None
    assert d[2] == 6


def test_friendship_formula_first_difference():
    enumerated = count_by_size(friendship(2), SEMITOTAL_EXACT)
    predicted = closed_form("friendship", n=2)
    assert predicted.first_difference(enumerated) == 3
    assert predicted[3] == 8
    assert enumerated[3] == 4


def test_format_examples():
    assert count_by_size(star(4), SEMITOTAL_EXACT).format() == "x^4"
    assert CountPolynomial([0]).format() == "0"
    assert count_by_size(complete(2), PLAIN).format() == "2x + x^2"
    assert CountPolynomial([0, -3, 1]).format() == "-3x + x^2"
    assert CountPolynomial([2, 0, -1]).format() == "2 - x^2"
    assert str(CountPolynomial([0, 1])) == "x"


def test_closed_form_star():
    assert closed_form("star", n=5).format() == "x^5"
    assert closed_form("star", n=3).coeffs == (0, 0, 0, 1, 0)
    with pytest.raises(ValueError):
        closed_form("star", n=2)


def test_closed_form_friendship_rows():
    p = closed_form("friendship", n=2)
    assert p[2] == 4 and p[3] == 8 and p[4] == 4
    assert p[5] == 0


def test_closed_form_bipartite_small_matches_enumeration_where_it_holds():
    # K_{2,3} under the exact-distance rule: formula and enumeration agree.
    predicted = closed_form("complete_bipartite_small", m=2, n=3)
    enumerated = count_by_size(complete_bipartite(2, 3), SEMITOTAL_EXACT)
    assert predicted.first_difference(enumerated) is None


def test_closed_form_bipartite_small_m2n2_disagrees():
    # K_{2,2} = C_4 has two valid pairs but the formula predicts one.
    predicted = closed_form("complete_bipartite_small", m=2, n=2)
    enumerated = count_by_size(complete_bipartite(2, 2), SEMITOTAL_EXACT)
    assert predicted[2] == 1
    assert enumerated[2] == 2
    assert predicted.first_difference(enumerated) == 2


def test_closed_form_bipartite_large_k44_disagrees_at_minimum():
    predicted = closed_form("complete_bipartite_large", m=4, n=4)
    enumerated = count_by_size(complete_bipartite(4, 4), SEMITOTAL_EXACT)
    assert predicted[4] == comb(8, 4) - comb(4, 4) - 4 * comb(4, 3)
    assert enumerated[4] == 2 + comb(4, 2) ** 2
    assert predicted[4] != enumerated[4]


def test_closed_form_validates_parameters():
    with pytest.raises(ValueError):
        closed_form("complete_bipartite_small", m=4, n=5)
    with pytest.raises(ValueError):
        closed_form("complete_bipartite_large", m=3, n=5)
    with pytest.raises(ValueError):
        closed_form("complete_bipartite_small", m=3, n=2)
    with pytest.raises(ValueError):
        closed_form("nonsense", n=3)


def test_negative_coefficients_survive_unclamped():
    # formula predictions may subtract below zero; the sequence must keep the sign
    p = CountPolynomial([0, 5, -3, 1])
    assert p.coeffs == (0, 5, -3, 1)
    assert p.evaluate(1) == 3
    assert p.first_difference(CountPolynomial([0, 5, 0, 1])) == 2


def test_closed_form_is_arbitrary_precision():
    p = closed_form("complete_bipartite_small", m=3, n=100)
    assert p[50] == comb(103, 50) - comb(100, 50) - 3 * comb(100, 49) - 100 * comb(3, 49)
    assert p[50] > 2**64


def test_monotone_coefficients_plain_and_within():
    for g in family_corpus(10):
        if not g.is_isolate_free():
            continue
        for variant in (PLAIN, SEMITOTAL_WITHIN):
            counts = count_by_size(g, variant, Conventions(False))
            for i in range(g.n):
                if counts[i] > 0:
                    assert counts[i + 1] > 0, (g.name, variant, i)


def test_trailing_coefficient_is_one_for_plain():
    for g in (path(5), cycle(6), star(4)):
        counts = count_by_size(g, PLAIN)
        assert counts[g.n] == 1
