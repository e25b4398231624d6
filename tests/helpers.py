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


# The formal word algebra, the oracle of the word tests: a word is a
# `SymbolWord`, a formal sum of monomials c eta^i [a_1]...[a_k] with no
# simplification, and `milnor_witt.reduce_word` maps it into K^MW.


def word_sum(*words):
    """The formal sum: every term of every word, in order."""
    return mw.SymbolWord(words[0].field, tuple(t for w in words for t in w.terms))


def word_product(*words):
    """The formal product: one term for each choice of a term from each
    word, with the coefficients multiplied, the eta powers added and the
    bracket entries concatenated."""
    terms = ((1, 0, ()),)
    for w in words:
        terms = tuple((c1 * c2, i1 + i2, e1 + e2) for c1, i1, e1 in terms for c2, i2, e2 in w.terms)
    return mw.SymbolWord(words[0].field, terms)


def word_scale(c, w):
    return mw.SymbolWord(w.field, tuple((c * coeff, i, e) for coeff, i, e in w.terms))


def eta_word(field, power=1):
    return mw.word(field, (1, power, ()))


def symbol_word(a):
    return mw.word(a.field, (1, 0, (a,)))


def h_word(field):
    """h = 2 + eta[-1]."""
    return mw.word(field, (2, 0, ()), (1, 1, (-1,)))
