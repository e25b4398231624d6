"""Helpers shared by the test modules."""

from ttspec import chow_motives as cm
from ttspec import milnor_witt as mw
from ttspec import quadratic_forms as qf


def field_elements(field):
    """All q elements of the field, in representative order."""
    return map(field.from_index, range(field.q))


def field_units(field):
    """The q - 1 nonzero elements of the field, in representative order."""
    return map(field.from_index, range(1, field.q))


def lefschetz(i):
    """L^i as the point motive with twist -i."""
    return cm.Motive(cm.POINT, cm.identity_correspondence(cm.POINT), -i)


def witt_classes(field):
    """The four classes of W(F_q), 0, <1>, <w> and <1,-w>, as the
    `WittClass` records of their (parity, disc) keys."""
    return [qf.WittClass(field, parity, disc) for parity, disc in ((0, 0), (1, 0), (1, 1), (0, 1))]


def tensor_form(f, g):
    """The tensor product of two diagonal forms, <a_i b_j> in row order."""
    return qf.DiagonalForm(f.field, tuple(a * b for a in f.entries for b in g.entries))


# The formal word algebra, the oracle of the word tests: a word is a tuple
# of terms (c, i, entries), the formal sum of the monomials
# c eta^i [a_1]...[a_k] with no simplification.  `milnor_witt.word` writes
# one as text for `milnor_witt.reduce_word`, and `formal_reduce` maps it into
# K^MW by the monomial fold that `reduce_word` used before it parsed text.


def word_sum(*words):
    """The formal sum: every term of every word, in order."""
    return tuple(t for w in words for t in w)


def word_product(*words):
    """The formal product: one term for each choice of a term from each
    word, with the coefficients multiplied, the eta powers added and the
    bracket entries concatenated."""
    terms = ((1, 0, ()),)
    for w in words:
        terms = tuple((c1 * c2, i1 + i2, (*e1, *e2)) for c1, i1, e1 in terms for c2, i2, e2 in w)
    return terms


def word_scale(c, w):
    return tuple((c * coeff, i, e) for coeff, i, e in w)


def eta_word(power=1):
    return ((1, power, ()),)


def symbol_word(a):
    return ((1, 0, (a,)),)


def h_word():
    """h = 2 + eta[-1]."""
    return ((2, 0, ()), (1, 1, (-1,)))


def formal_reduce(field, terms):
    """Oracle: the word `terms` in K^MW, one monomial at a time: c eta^i [a]
    is `eta` (or `kmw_one`) times `symbol` under `kmw_mul`, scaled by c,
    and the monomials of one degree are summed with `kmw_add`.  A monomial
    with c = 0 or two brackets is 0, but its eta^i and its last partial
    product must still lie in the degree window, as in the parser; so must
    every factor and partial product of the others, which `KmwElement`
    refuses otherwise.  {degree: element} of the nonzero components."""
    sums = {}
    for coeff, i, entries in terms:
        entries = [field.element(a) for a in entries]
        if coeff == 0 or len(entries) >= 2:
            mw._check_degree(-i)
            mw._check_degree(len(entries) - i)
            continue
        x = mw.eta(field, i) if i else mw.kmw_one(field)
        for a in entries:
            x = mw.kmw_mul(x, mw.symbol(a))
        x = coeff * x
        sums[x.degree] = mw.kmw_add(sums[x.degree], x) if x.degree in sums else x
    return {n: x for n, x in sums.items() if not x.is_zero()}
