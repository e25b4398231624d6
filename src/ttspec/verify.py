"""`ttspec verify`: each suite checks library answers against an oracle
that shares no code path with them, and returns its failures:

  tables   K^MW against Morel's fiber product I^n x_(I^n/I^(n+1)) K^M_n
  witt     W(F_q) as K^MW_-1 against zero counts, descent and GW pairs
  ses      0 -> I^(n+1) -> K^MW_n -> K^M_n -> 0 exact and additive, with I^(n+1)
           the (parity, disc) keys of the W model, and the |I^n| `gw` prints
  spech    the points of Spec^h against bounded primality certificates
  eta      eta^n against the W(F_q) model and the zero-count order of <1>
  motives  the Kunneth splitting and hom groups
  tate     the unique prime of the Tate model and End(1)
  spaces   chromatic closures, equivariant copies and the covers --dot draws

The check-only functions live here too.  Each suite imports the compute
modules it runs, and calls library functions as module attributes.
"""

from __future__ import annotations

import itertools
import math

from . import finite_field
from .errors import InvalidArgument, TtspecError


def _gw_add(a, b):
    """GW(F_q) = Z (+) Z/2 on (rank, disc) pairs: ranks add, discs multiply."""
    return a[0] + b[0], a[1] ^ b[1]


def _gw_mul(a, b):
    """disc(<rank m, disc s> (x) <rank n, disc t>) = n s + m t mod 2."""
    (m, s), (n, t) = a, b
    return m * n, (n * s + m * t) % 2


def _witt_classes(field):
    """The four classes of W(F_q) by closed forms, with no form decomposed.

    GW(F_q) = Z (+) Z/2 as (rank, discriminant square class) pairs, and
    W = GW / <h>.  A class of W is keyed by its rank parity and the square
    class of its signed discriminant (-1)^(r(r-1)/2) det: adding h = <1,-1>
    changes neither, and the four keys name the four classes.  Returns the
    key of a pair and one pair for each key.
    """
    from . import quadratic_forms
    minus_one = quadratic_forms.gw_class(quadratic_forms.diagonal(field, [-1])).coords[1]

    def key(c):
        rank, disc = c
        return rank % 2, (disc + rank * (rank - 1) // 2 * minus_one) % 2

    return key, {key((rank, disc)): (rank, disc) for rank in range(4) for disc in range(2)}


def _witt_model(field):
    """W(F_q) and its powers I^n: I is the even-rank part, and I^(n+1) is
    spanned by the products of I^n with I.  Returns (key, add, mul, ideal):
    the key of `_witt_classes`, the addition and multiplication tables on
    keys, and ideal(n), the key set of I^n (W for n <= 0)."""
    key, reps = _witt_classes(field)
    add = {(a, b): key(_gw_add(reps[a], reps[b])) for a in reps for b in reps}
    mul = {(a, b): key(_gw_mul(reps[a], reps[b])) for a in reps for b in reps}
    powers = [set(reps), {k for k in reps if k[0] == 0}]
    while len(powers) < 7:
        products = {mul[a, b] for a in powers[-1] for b in powers[1]}
        span = {(0, 0)}  # the key of 0
        while not span >= (more := {add[a, b] for a in span for b in products}):
            span |= more
        powers.append(span)
    return key, add, mul, lambda n: powers[max(n, 0)]


def _suite_tables():
    """K^MW against Morel's fiber product K^MW_n = I^n x_(I^n/I^(n+1)) K^M_n
    (Comment. Math. Helv. 79, 2004) for q <= 13 and degrees -4..4, with
    I^n = W for n <= 0 and K^M_n = 0 for n < 0.  The coordinates map to
    W x K^M by 1 -> (<1>, 1), [w] -> (<w> - <1>, {w}), eta[w] ->
    (<w> - <1>, 0), eta^m -> (<1>, 0) and eta^(m+1)[w] -> (<w> - <1>, 0).
    Checked: each group order against the fiber product's; the map is
    well defined, injective and lands in the fiber product; every product
    of generators by `kmw_mul`, and each monomial c eta^i [w^d], written as
    text such as "-3 eta^2 [w^5]", by `reduce_word`, against the product
    of the factors' images in W x K^M.  Degree 0 is GW(F_q), so this checks GW's products too."""
    from . import milnor_witt, quadratic_forms
    failures = []
    for q in (3, 5, 7, 9, 11, 13):
        field = finite_field._field_for(q)
        key, add, mul, ideal = _witt_model(field)
        zero, one = key((0, 0)), key((1, 0))
        omega = finite_field.primitive_element(field)
        # <a> - <1> for a = w^c: the Pfister map {a} -> I/I^2 on K^M_1
        units = [quadratic_forms.gw_class(quadratic_forms.diagonal(field, [omega ** c])) for c in range(q - 1)]
        pfister = [key(_gw_add(g.coords, (-1, 0))) for g in units]

        def milnor(n, coords):
            factors = milnor_witt.milnor_group(field, n).invariant_factors
            return tuple(c % f if f else c for c, f in zip(coords, factors))

        def scale(c, w):
            out = zero
            for _ in range(c % 4):  # 4 W = 0, since 4 <1> = <1,1,1,1> is hyperbolic
                out = add[out, w]
            return out

        # (W key, K^M coefficient) of the generators in degrees 1, 0 and < 0
        bracket = pfister[1]
        generators = {1: [(bracket, 1)], 0: [(one, 1), (bracket, 0)], -1: [(one, 0), (bracket, 0)]}
        images = {}

        def to_model(n, coords):
            """(W key, K^M coordinates) of the K^MW_n element `coords`."""
            if (n, coords) not in images:
                w, k = zero, 0
                for c, (g, km) in zip(coords, generators[max(n, -1)] if n < 2 else ()):
                    w, k = add[w, scale(c, g)], k + c * km
                images[n, coords] = w, milnor(n, (k,))
            return images[n, coords]

        def times(n1, a, n2, b):
            """The product in W x K^M of the images a in degree n1 and b in n2."""
            (w1, k1), (w2, k2) = a, b
            # K^M vanishes in negative degrees and above 1
            k = (0,) if n1 < 0 or n2 < 0 or n1 + n2 >= 2 else (k1[0] * k2[0],)
            return mul[w1, w2], milnor(n1 + n2, k)

        def in_fiber(n, w, k):
            """w in I^n, and w = mu(k) mod I^(n+1) for the Pfister map mu."""
            mu = scale(k[0], one) if n == 0 else pfister[k[0]] if n == 1 else zero
            return w in ideal(n) and add[w, scale(-1, mu)] in ideal(n + 1)

        gens = {}
        for n in range(-4, 5):
            factors = milnor_witt.kmw_group(field, n).invariant_factors
            km_factors = milnor_witt.milnor_group(field, n).invariant_factors
            # orders: the free rank and the order of the torsion subgroup
            torsion = itertools.product(*(range(f) if f else (0,) for f in km_factors))
            fiber = sum(in_fiber(n, w, k) for k in torsion for w in ideal(n))
            got = (factors.count(0), math.prod(f for f in factors if f))
            if got != (km_factors.count(0), fiber):
                failures.append({"q": q, "n": n, "order": got, "fiber_product": fiber})
                continue
            units = [tuple(int(j == i) for j in range(len(factors))) for i in range(len(factors))]
            origin = to_model(n, (0,) * len(factors))
            for f, unit in zip(factors, units):
                if f and to_model(n, tuple(f * c for c in unit)) != origin:
                    failures.append({"q": q, "n": n, "not_well_defined": list(unit)})
            box = [to_model(n, c) for c in itertools.product(*(range(f) if f else range(-2, 3) for f in factors))]
            if len(set(box)) != len(box) or not all(in_fiber(n, w, k) for w, k in box):
                failures.append({"q": q, "n": n, "not_injective_into_fiber_product": True})
            gens[n] = [milnor_witt.KmwElement(field, n, unit) for unit in units]
        for (n1, xs), (n2, ys) in itertools.product(gens.items(), repeat=2):
            for x, y in itertools.product(xs, ys):
                z = milnor_witt.kmw_mul(x, y)
                if to_model(z.degree, z.coords) != times(n1, to_model(n1, x.coords), n2, to_model(n2, y.coords)):
                    failures.append({"q": q, "product": [n1, list(x.coords), n2, list(y.coords)]})
        brackets = [(d, f" [w^{d}]", (pfister[d], milnor(1, (d,)))) for d in range(q - 1)]
        for c, i in itertools.product((1, -3), range(3)):  # i = 0, 1 and 2 put eta^i [w^d] in degrees 1, 0 and -1
            image = (scale(c, one), milnor(0, (c,)))
            if i:  # eta^i -> (<1>, 0)
                image = times(0, image, -i, (one, ()))
            for d, entry, bracket in [(None, "", None), *brackets]:
                n, want = (-i, image) if d is None else (1 - i, times(-i, image, 1, bracket))
                reduced = milnor_witt.reduce_word(milnor_witt.SymbolWord(field, f"{c} eta^{i}{entry}"))
                if set(reduced) - {n} or to_model(n, reduced[n].coords if n in reduced else ()) != want:
                    failures.append({"q": q, "monomial": [c, i, d]})
    return failures


def _unit_form_order_by_zero_counts(field):
    """The order of <1> in W(F_q) from zero counts, sharing no code with the
    isotropy descent.  N_2(c) = #{(x, y) : x^2 + y^2 = c} takes q^2 field
    operations; <1,1> has N_2(0) zeros and <1,1,1,1> has
    sum_c N_2(c) N_2(-c).  n<1> is 0 in W iff <1>^n is hyperbolic, that is
    iff its zero count is the split count q^(n-1) + q^(n/2) - q^(n/2-1), and
    the order is the least such n in {2, 4} (None if neither).  Returns the
    order and the two counts."""
    from collections import Counter
    q = field.q
    squares = [x * x for x in map(field.from_index, range(q))]
    n2 = Counter(a + b for a in squares for b in squares)
    counts = [n2[field.zero()], sum(k * n2[-c] for c, k in n2.items())]
    split = [q ** (n - 1) + q ** (n // 2) - q ** (n // 2 - 1) for n in (2, 4)]
    order = next((n for n, count, want in zip((2, 4), counts, split) if count == want), None)
    return order, counts


def _suite_witt():
    """The closed-form W(F_q), read as K^MW_-1 (<1> is eta, and a class c
    has coordinates (c.parity, c.disc) there), against oracles that share no
    code with it.  For q <= 13: the order of <1> against the zero counts of
    <1,1> and <1,1,1,1>, and, up to that order, the multiples k<1> by
    `kmw_add`: which of them `is_zero`, and each against the generator table
    read back as forms and against `witt_class` of <1>^k, which runs the
    isotropy descent.  At q = 3 and q = 5: the canonical kernel of each of
    the four classes against the class's key, and `kmw_add` into K^MW_-1 and
    `kmw_mul` into K^MW_-2 of every pair, against their (rank, disc)
    representatives in GW."""
    from . import milnor_witt, quadratic_forms
    failures = []
    for q in (3, 5, 7, 9, 11, 13):
        field = finite_field._field_for(q)
        structure = quadratic_forms.witt_ring_structure(field)
        order, counts = _unit_form_order_by_zero_counts(field)
        if structure["order_of_unit_form"] != order:  # the order bounds the checks below
            failures.append({"q": q, "zero_counts": counts, "got": structure["order_of_unit_form"], "want": order})
            continue
        one, zero = milnor_witt.eta(field), milnor_witt.kmw_zero(field, -1)
        multiples = list(itertools.accumulate([one] * order, milnor_witt.kmw_add, initial=zero))
        zeros = [k for k, m in enumerate(multiples) if m.is_zero()]
        if zeros != [0, order]:
            failures.append({"q": q, "zero_multiples": zeros, "want": [0, order]})
        multiples = {f"{k}*<1>": m for k, m in enumerate(multiples[:order])}
        for k, acc in enumerate(multiples.values()):
            by_descent = quadratic_forms.witt_class(quadratic_forms.diagonal(field, [1] * k))
            by_descent = milnor_witt.KmwElement(field, -1, (by_descent.parity, by_descent.disc))
            if by_descent != acc:
                failures.append({"q": q, "descent": k, "got": by_descent.coords, "want": acc.coords})
        want = {"type": "Z/4" if order == 4 else "Z/2[e]/e^2", "order_of_unit_form": order}
        got = {key: structure[key] for key in want}
        # the table's kernels read back as forms, so that the two sides share no printing
        table = structure["generator_table"]
        read = {k: quadratic_forms.kernel_class(quadratic_forms.diagonal(field, e)) for k, e in table.items()}
        read = {k: milnor_witt.KmwElement(field, -1, (c.parity, c.disc)) for k, c in read.items()}
        if got != want or read != multiples:
            got["generator_table"] = {k: x.coords for k, x in read.items()}
            want["generator_table"] = {k: x.coords for k, x in multiples.items()}
            failures.append({"q": q, "got": got, "want": want})
    for q in (3, 5):
        field = finite_field._field_for(q)
        key, reps = _witt_classes(field)
        for k in reps:
            kernel = quadratic_forms.WittClass(field, *k).anisotropic_kernel
            if key(quadratic_forms.gw_class(kernel).coords) != k:
                failures.append({"q": q, "class": k, "kernel": [a.value for a in kernel.entries]})
        image = {(n, k): milnor_witt.KmwElement(field, n, k) for n in (-1, -2) for k in reps}
        for ka, kb in itertools.product(reps, repeat=2):
            a, b, pa, pb = image[-1, ka], image[-1, kb], reps[ka], reps[kb]
            for name, got, want in (("sum", milnor_witt.kmw_add(a, b), image[-1, key(_gw_add(pa, pb))]),
                                    ("product", milnor_witt.kmw_mul(a, b), image[-2, key(_gw_mul(pa, pb))])):
                if got != want:
                    failures.append({"q": q, name: [ka, kb], "got": got.coords, "want": want.coords})
    return failures


def _kmw_elements_for_check(field, n: int) -> list:
    """K^MW_n elements: torsion coordinates in full, free ones in {-1, 0, 1}."""
    from . import milnor_witt
    factors = milnor_witt.kmw_group(field, n).invariant_factors
    ranges = [range(-1, 2) if f == 0 else range(f) for f in factors]
    return [milnor_witt.KmwElement(field, n, coords) for coords in itertools.product(*ranges)]


def verify_ses(field, n: int) -> dict:
    """Exhaustive check of 0 -> I^(n+1) -> K^MW_n -> K^M_n -> 0.

    I^(n+1) is the key set of `_witt_model`, whose (parity, disc) keys are
    the coordinates `from_fundamental_ideal` takes; the first map must be
    additive on it, and its order must be the |I^(n+1)| that `gw` prints.
    Torsion parts are checked element by element; the free parts (degree 0)
    are checked on generators.
    """
    from . import milnor_witt, quadratic_forms
    _, add, _, ideal = _witt_model(field)
    members = ideal(n + 1)
    image = {w: milnor_witt.from_fundamental_ideal(field, n, *w) for w in members}
    additive = all(image[add[a, b]].coords == milnor_witt.kmw_add(image[a], image[b]).coords
                   for a in members for b in members)
    coords = {x.coords for x in image.values()}
    kernel = {x.coords for x in _kmw_elements_for_check(field, n) if n < 0 or milnor_witt.to_milnor(x).is_zero()}
    surjective = True  # onto K^M_n = 0 outside degrees 0 and 1
    if n == 0:
        surjective = milnor_witt.to_milnor(milnor_witt.kmw_one(field)).value == 1
    elif n == 1:  # onto K^M_1 = F_q^*
        hit = {milnor_witt.to_milnor(milnor_witt.KmwElement(field, 1, (c,))).value for c in range(field.q - 1)}
        surjective = hit == {field.from_index(v) for v in range(1, field.q)}
    report = {
        "field": field.q,
        "degree": n,
        "ideal_order": quadratic_forms.fundamental_ideal_order(max(n + 1, 0)),
        "model_ideal_order": len(members),
        "injective": len(coords) == len(members),
        "additive": additive,
        "exact_middle": kernel == coords,
        "surjective": surjective,
        "witnesses": [] if kernel == coords else [("kernel", sorted(kernel), sorted(coords))],
    }
    report["ok"] = (report["ideal_order"] == len(members) and report["injective"] and additive
                    and report["exact_middle"] and surjective)
    return report


def _suite_ses():
    failures = []
    for q in (3, 5, 7, 9):
        field = finite_field._field_for(q)
        for n in range(-4, 5):
            report = verify_ses(field, n)
            if not report["ok"]:
                failures.append(report)
    return failures


def is_prime_ideal(candidate, degree_bound: int = 12, coeff_bound: int = 12) -> dict:
    """Bounded primality certificate for a named-generator ideal of the
    reduced ring Z[eta]/(2 eta).

    Checks properness (1 not in I) and, over all homogeneous x, y with
    |degree| <= degree_bound and |coefficient| <= coeff_bound, that
    x*y in I implies x in I or y in I.  Returns a certificate dict with a
    counterexample on failure.
    """
    from . import graded_spectrum
    element = graded_spectrum.ReducedElement
    for g in candidate.generators - graded_spectrum._ALPHABET_SPECIALS:
        if not g.isdigit() or int(g) < 2:
            raise InvalidArgument(f"unsupported generator {g!r}")
    cert = {
        "generators": candidate.sorted_generators(),
        "degree_bound": degree_bound,
        "coeff_bound": coeff_bound,
        "proper": True,
        "prime": True,
        "counterexample": None,
    }
    if candidate.contains(element(0, 1)):
        cert["proper"] = False
        cert["prime"] = False
        cert["counterexample"] = "contains 1"
        return cert

    def elements():
        for c in range(-coeff_bound, coeff_bound + 1):
            yield element(0, c)
        for d in range(1, degree_bound + 1):
            yield element(-d, 1)

    for x, y in itertools.product(elements(), repeat=2):
        if x.is_zero() or y.is_zero():
            continue
        if -(x.degree + y.degree) > degree_bound:
            continue
        if candidate.contains(x * y) and not candidate.contains(x) and not candidate.contains(y):
            cert["prime"] = False
            cert["counterexample"] = (repr(x), repr(y))
            return cert
    return cert


def _suite_spech():
    from . import graded_spectrum, milnor_witt
    failures = []
    for q in (3, 5, 7, 9):  # the killed [w] and eta[w] square to zero, eta does not
        field = finite_field._field_for(q)
        ew = milnor_witt.KmwElement(field, 0, (0, 1))  # eta[w]
        for name, x in (("[w]", milnor_witt.omega_symbol(field)), ("eta[w]", ew), ("eta", milnor_witt.eta(field))):
            if milnor_witt.kmw_mul(x, x).is_zero() != (name != "eta"):
                failures.append({"q": q, "square": name})
    space = graded_spectrum.enumerate_primes(50)
    flagged = [p for p in space.points if p.discrepancy]
    if len(flagged) != 1:
        failures.append({"flagged": len(flagged)})
    want = {("[w]", "eta"), ("[w]", "2"), ("[w]", "eta", "2")}
    for p in range(3, 51, 2):  # odd primes by trial division
        if all(p % d for d in range(3, p, 2)):
            want.add(("[w]", "eta", str(p)))
    got = {p.sorted_generators() for p in space.points}
    if got != want:
        failures.append({"got": sorted(got), "want": sorted(want)})
    # the listed points against the bounded certificate and inclusion test
    for point in space.points:
        cert = is_prime_ideal(point)
        if not (cert["prime"] and cert["proper"]):
            failures.append({"not_prime": list(cert["generators"])})
    cert = is_prime_ideal(graded_spectrum.HomogeneousPrime(frozenset({"[w]"})))
    if cert["prime"]:
        failures.append({"prime": ["[w]"]})
    elif cert["counterexample"] != ("-12", "1*eta^1"):  # -12 * eta = 0, the first the scan meets
        failures.append({"counterexample": cert["counterexample"]})
    pairs = [
        (i, j)
        for i, a in enumerate(space.points)
        for j, b in enumerate(space.points)
        if i != j and b.includes(a)
    ]
    if space.specializations() != pairs:
        failures.append({"specializations": space.specializations(), "want": pairs})
    return failures


def _suite_eta():
    """eta^n from `kmw_mul`, n = 1, 16 and 64: its multiples k eta^n by
    `kmw_add`, k < 4, against k<1> in the W(F_q) of `_witt_model`, placed
    in K^MW_-n by its (parity, disc) key; and its additive order against
    the order of <1> from `_unit_form_order_by_zero_counts`.  The model and
    the zero counts share no code with `milnor_witt`."""
    from . import milnor_witt
    failures = []
    for q in (3, 5, 7, 9):
        field = finite_field._field_for(q)
        want, _ = _unit_form_order_by_zero_counts(field)
        key, add, _, _ = _witt_model(field)
        units = list(itertools.accumulate([key((1, 0))] * 3, lambda a, b: add[a, b], initial=key((0, 0))))
        powers = list(itertools.accumulate([milnor_witt.eta(field)] * 64, milnor_witt.kmw_mul))
        for n in (1, 16, 64):
            multiples = list(itertools.accumulate([powers[n - 1]] * 4, milnor_witt.kmw_add))
            order = next((k for k, m in enumerate(multiples, 1) if m.is_zero()), None)
            if order != want:
                failures.append({"q": q, "n": n, "order": order, "want": want})
            for k, (got, unit) in enumerate(zip(multiples, units[1:]), 1):
                placed = milnor_witt.KmwElement(field, -n, unit)
                if got != placed:
                    failures.append({"q": q, "n": n, "multiple": k, "got": got.coords, "want": placed.coords})
    return failures


def _summed_terms(classes) -> dict:
    """monomial -> coefficient of the sum of the classes, zeros dropped: the
    Kunneth check adds the projectors' terms itself, with no library sum."""
    total = {}
    for cls in classes:
        for mono, c in cls.terms:
            total[mono] = total.get(mono, 0) + c
    return {mono: c for mono, c in total.items() if c}


def _suite_motives():
    """`motive_decompose` against the Kunneth twists read off the monomial
    counts, each projector idempotent and their sum the diagonal; and
    `hom_group` of identity motives against the monomial basis.  The
    identity and the Kunneth projectors of each decomposition that passed
    then meet in turn, and the compression a -> q o a o p by `compose`,
    which `hom_group` does not run, must fix each ambient monomial of the
    basis and kill the others.  A decomposition or a hom group that raises
    (`Motive` refuses a projector that is not a Kunneth sum) is a failure."""
    from . import chow_motives
    failures, kunneth = [], {}  # space -> its projectors, if they pass
    for text in ("P0", "P1", "P2", "P3", "P4", "P1xP1", "P2xP1", "P1xP1xP1"):
        space = chow_motives.parse_space(text)
        passed = len(failures)
        try:
            parts = chow_motives.motive_decompose(space)
        except TtspecError as exc:
            failures.append({"space": text, "error": str(exc)})
            continue
        twists = [w for _, w in parts]
        if twists != chow_motives._kunneth_twists(space):
            failures.append({"space": text, "twists": twists})
        diagonal = chow_motives.identity_correspondence(space).cls
        for m, _ in parts:
            p = m.projector
            if chow_motives.compose(p, p) != p:
                failures.append({"space": text, "not_idempotent": repr(p.cls)})
        if _summed_terms(m.projector.cls for m, _ in parts) != dict(diagonal.terms):
            failures.append({"space": text, "fact": "projectors sum to the diagonal"})
        if len(failures) == passed:
            kunneth[text] = [m.projector for m, _ in parts]
    # hom of identity motives is all of CH^codim(X x Y): the basis `motive hom`
    # prints, here from a filtered walk over every monomial
    for source, target in (("P1xP1", "P2"), ("P2xP1", "P1xP1")):
        x, y = chow_motives.parse_space(source), chow_motives.parse_space(target)
        ends = [[chow_motives.identity_correspondence(s), *kunneth.get(t, ())] for s, t in ((x, source), (y, target))]
        pairs = list(zip(ends[0], itertools.cycle(ends[1])))  # the identities first
        for twist, target_twist in itertools.product(range(-1, 2), repeat=2):
            case = {"hom": [source, twist, target, target_twist]}
            codim = sum(x.dims) + target_twist - twist
            walk = itertools.product(*(range(n + 1) for n in x.dims + y.dims))
            want = [chow_motives.monomial_class(x.times(y), m) for m in walk if sum(m) == codim]
            try:
                homs = [chow_motives.hom_group(chow_motives.Motive(x, p, twist),
                                               chow_motives.Motive(y, q, target_twist)) for p, q in pairs]
                alphas = [chow_motives.Correspondence(x, y, target_twist - twist, a) for a in want]
                images = [[chow_motives.compose(q, chow_motives.compose(alpha, p)).cls for alpha in alphas]
                          for p, q in pairs]
            except TtspecError as exc:
                failures.append({**case, "error": str(exc)})
                continue
            if (homs[0]["ambient_codim"], homs[0]["rank"], homs[0]["basis"]) != (codim, len(want), want):
                failures.append({**case, "rank": homs[0]["rank"]})
            for (p, q), hom, row in zip(pairs, homs, images):
                # each monomial is fixed if it is in the basis, else killed
                wrong = [repr(a) for a, image in zip(want, row) if ((image != a) if a in hom["basis"] else image.terms)]
                if wrong:
                    failures.append({**case, "projectors": [repr(p.cls), repr(q.cls)], "compression": wrong})
    return failures


def _suite_tate():
    """The `spc tate` answers against the lines of TateUniverse(4, 2): a (x) a^dual
    = 1, so zero is the only proper ideal; a (x) b != 0, so zero is prime; and
    End(1), which `spc tate` prints, against the model: it is semisimple, so
    End(1) = Hom(1 (x) 1^dual, 1) holds one copy of the rational scalars Q
    for each copy of the unit line in 1 (x) 1^dual."""
    from . import tt_geometry
    universe = tt_geometry.TateUniverse(4, 2)
    unit = tt_geometry.TATE_UNIT
    keys = universe.lines()
    lines = [tt_geometry.tate_line(*key) for key in keys]
    failures = []
    if keys != list(itertools.product(range(-4, 5), range(-2, 3))):
        failures.append({"fact": "window lines"})
    if not all(a.tensor(a.dual()) == unit for a in lines):
        failures.append({"fact": "a (x) a^dual = 1"})
    if any(a.tensor(b).is_zero() for a in lines for b in lines):
        failures.append({"fact": "a (x) b != 0"})
    found = tt_geometry.enumerate_primes(universe)["primes"]
    if found != [tt_geometry.ThickTensorIdeal(universe, frozenset())]:
        failures.append({"primes": [repr(p) for p in found]})
    copies = dict(unit.tensor(unit.dual()).slots).get((0, 0), 0)
    if tt_geometry.END_OF_UNIT != ("Q" if copies == 1 else f"Q^{copies}"):
        failures.append({"end_of_unit": tt_geometry.END_OF_UNIT})
    return failures


def _suite_spaces():
    """What `spc sh-top` and `spc equivariant` print, against relations
    written out here: closures in spc_shtop(3, 3), read off `specializes`;
    spc_equivariant(n, 3, 2) for n = 1, 6 and 12, one renamed copy of
    spc_shtop(3, 2) per divisor of n, the divisors found by trial division;
    and the edges that `to_dot` draws on spc_shtop(3, 2), exactly the covers
    P_0,1 -> P_p,1 -> P_p,2 -> P_p,inf."""
    from . import tt_geometry
    label = tt_geometry.chromatic_label
    failures = []
    space = tt_geometry.spc_shtop(3, 3)
    generic = label(0, 1)

    def specializations_of(point):
        return {b for a, b in space.specializes if a == point}

    if specializations_of(generic) != set(space.points):
        failures.append({"fact": "generic point closure"})
    chain = specializations_of(label(2, 1))
    if chain != {label(2, n) for n in (1, 2, 3, "inf")}:
        failures.append({"fact": "chain closure", "got": sorted(map(str, chain))})
    small = tt_geometry.spc_shtop(3, 2)
    for n in (1, 6, 12):
        tags = [f"H{d}:" for d in range(1, n + 1) if n % d == 0]
        want = tt_geometry.FiniteSpectralSpace(
            tuple(t + p for t in tags for p in small.points),
            frozenset((t + a, t + b) for t in tags for a, b in small.specializes),
        )
        if tt_geometry.spc_equivariant(n, 3, 2) != want:
            failures.append({"fact": "equivariant copies", "n": n})
    covers = set()
    for p in (2, 3):
        path = [generic, *(label(p, h) for h in (1, 2, "inf"))]
        covers.update(zip(path, path[1:]))
    drawn = {tuple(end.strip('"') for end in line.strip(" ;").split(" -> "))
             for line in small.to_dot().splitlines() if " -> " in line}
    if drawn != covers:
        failures.append({"fact": "dot covers", "got": sorted(drawn)})
    return failures


SUITES = {
    "tables": _suite_tables,
    "witt": _suite_witt,
    "ses": _suite_ses,
    "spech": _suite_spech,
    "eta": _suite_eta,
    "motives": _suite_motives,
    "tate": _suite_tate,
    "spaces": _suite_spaces,
}


def run(suite: str | None = None) -> dict:
    """Run one suite, or all of them when `suite` is None."""
    if suite is not None and suite not in SUITES:  # "" too: it names no suite
        raise InvalidArgument(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    verdicts = {}
    for name in list(SUITES) if suite is None else [suite]:
        try:
            failures = SUITES[name]()
        except Exception as exc:  # a check that raises has failed: report where, and run the rest
            import traceback
            where = traceback.extract_tb(exc.__traceback__)[-1]  # the innermost frame
            failures = [{"error": f"{type(exc).__name__}: {exc}", "at": f"{where.name}:{where.lineno}"}]
        verdicts[name] = {"ok": not failures, "failures": failures}
    return {"suites": verdicts, "ok": all(v["ok"] for v in verdicts.values())}
