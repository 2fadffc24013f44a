"""Counting polynomials: exact counts versus the closed forms.

count_by_size counts the valid sets of every size exactly, by a dynamic
program over the vertices that checks every requirement and consults no
closed form, and is the oracle of the package.
The closed forms are predictions to test against it; the friendship formula
is a nice example of one that overcounts as soon as supersets of an optimal
set stop being valid.
"""

from semitotal import (
    PLAIN,
    SEMITOTAL_EXACT,
    SEMITOTAL_WITHIN,
    closed_form,
    complete_bipartite,
    count_by_size,
    cycle,
    friendship,
    star,
)


def main() -> None:
    print("star K_{1,5}, exact rule:")
    counts = count_by_size(star(5), SEMITOTAL_EXACT)
    print(f"  counted:     {counts}")
    print(f"  closed form: {closed_form('star', n=5)}")
    print("  the hub can never be in a set, so the 5 leaves are the only choice")
    print()

    print("friendship F_2 (two triangles sharing a vertex), exact rule:")
    counted = count_by_size(friendship(2), SEMITOTAL_EXACT)
    predicted = closed_form("friendship", n=2)
    print(f"  counted:     {counted}")
    print(f"  closed form: {predicted}")
    fd = predicted.first_difference(counted)
    print(f"  first disagreement at size {fd}: predicted {predicted[fd]}, counted {counted[fd]}")
    print()

    print("complete bipartite K_{2,3}, exact rule (formula and oracle agree):")
    counted = count_by_size(complete_bipartite(2, 3), SEMITOTAL_EXACT)
    predicted = closed_form("complete_bipartite_small", m=2, n=3)
    print(f"  counted:     {counted}")
    print(f"  closed form: {predicted}")
    print(f"  equal: {counted == predicted}")
    print()

    print("C_4 under the three variants (plain / within 2 / exactly 2):")
    for label, counts in (
        ("plain", count_by_size(cycle(4), PLAIN)),
        ("within", count_by_size(cycle(4), SEMITOTAL_WITHIN)),
        ("exact", count_by_size(cycle(4), SEMITOTAL_EXACT)),
    ):
        print(f"  {label:<7} {list(counts.coeffs)}  total {counts.evaluate(1)}")
    print("  only the two antipodal pairs survive the exact rule at size 2")


if __name__ == "__main__":
    main()
