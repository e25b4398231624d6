import itertools
import random

import pytest

from ttspec.errors import (
    BoundExceeded,
    NotSpecializationClosed,
    ShapeMismatch,
    UniverseTooSmall,
)
from ttspec import tt_geometry as tg
from ttspec import verify
from ttspec.finite_field import PRIME_BOUND, _prime_factors


# ----------------------------------------------------------------- helpers
# shift, direct sum and properness: only these tests use them


def shift_by(a, k):
    return tg.TateObject.from_dict({(i, m + k): d for (i, m), d in a.slots})


def direct_sum(a, b):
    out = a.dims()
    for k, d in b.slots:
        out[k] = out.get(k, 0) + d
    return tg.TateObject.from_dict(out)


def is_proper(ideal):
    return (0, 0) not in ideal.lines


# ------------------------------------------------------------ Tate objects


def test_object_algebra():
    a = tg.tate_line(1, 2)
    b = tg.tate_line(-1, -2)
    assert a.tensor(b) == tg.TATE_UNIT
    assert tg.tate_line(2, 1).dual() == tg.tate_line(-2, -1)
    assert shift_by(a, 3) == tg.tate_line(1, 5)
    s = direct_sum(a, a)
    assert s.dim_at((1, 2)) == 2
    assert tg.TateObject(()).is_zero()


def test_cone_examples():
    unit = tg.TATE_UNIT
    assert tg.cone(tg.identity_morphism(unit)).is_zero()
    assert tg.cone(tg.TateMorphism.from_dict(unit, unit, {})) == direct_sum(unit, shift_by(unit, 1))
    two = tg.tate_line(0, 0, 2)
    f = tg.TateMorphism.from_dict(two, two, {(0, 0): [[1, 0], [0, 0]]})
    c = tg.cone(f)
    assert c.dim_at((0, 1)) == 1 and c.dim_at((0, 0)) == 1
    iso = tg.TateMorphism.from_dict(two, two, {(0, 0): [[1, 1], [0, 1]]})
    assert tg.cone(iso).is_zero()


def test_morphism_shape_validation():
    a = tg.tate_line(0, 0, 2)
    with pytest.raises(ShapeMismatch):
        tg.TateMorphism.from_dict(a, a, {(0, 0): [[1, 0]]})
    with pytest.raises(ShapeMismatch):
        tg.TateMorphism.from_dict(a, tg.TATE_UNIT, {(0, 0): [[1, 0], [0, 1]]})


# -------------------------------------------------------------- ideals


def test_ideal_closure_reaches_unit():
    universe = tg.TateUniverse(5, 1)
    ideal = tg.ideal_closure([tg.tate_line(5, 0)], universe)
    assert ideal.lines == frozenset(universe.lines())
    assert not is_proper(ideal)
    zero = tg.ideal_closure([tg.TateObject(())], universe)
    assert zero.lines == frozenset()
    assert is_proper(zero)


def _ideal_closure_fixed_point(generators, universe):
    """Oracle: the generic fixed point on line sets (shift by one, tensor
    by any window line) that `ideal_closure` replaced by its closed form."""
    window = frozenset(universe.lines())
    reached = set()
    for g in generators:
        reached |= g.support_lines
    changed = True
    while changed:
        changed = False
        steps = [(0, 1), (0, -1)] + universe.lines()
        for (i, m), (j, k) in itertools.product(list(reached), steps):
            key = (i + j, m + k)
            if key in window and key not in reached:
                reached.add(key)
                changed = True
    return frozenset(reached)


def test_ideal_closure_matches_fixed_point_oracle():
    for radii in itertools.product(range(-1, 3), repeat=2):
        universe = tg.TateUniverse(*radii)
        lines = [tg.tate_line(*k) for k in universe.lines()]
        generator_sets = [[tg.TateObject(())]] + [[a] for a in lines]
        for a, b in itertools.combinations(lines, 2):
            generator_sets += [[a, b], [direct_sum(a, b)]]
        for gens in generator_sets:
            want = _ideal_closure_fixed_point(gens, universe)
            assert tg.ideal_closure(gens, universe).lines == want, (radii, gens)


def test_ideal_closure_universe_guard():
    universe = tg.TateUniverse(2, 1)
    with pytest.raises(UniverseTooSmall):
        tg.ideal_closure([tg.tate_line(3, 0)], universe)


def test_unique_prime():
    for radius in (1, 2, 4):
        found = tg.enumerate_primes(tg.TateUniverse(radius, 2))
        assert len(found["primes"]) == 1
        assert found["primes"][0].lines == frozenset()
        assert found["diagnostic"] is None


def _primes_by_sample_pairs(universe):
    """Oracle: the sample-pair prime check `enumerate_primes` replaced by
    its closed form, with window membership read from the line list."""
    window = universe.lines()
    if (0, 0) not in window:
        return []
    in_window = frozenset(window)

    def inside(a):
        return a.support_lines <= in_window

    candidates = [frozenset(), in_window]
    samples = [tg.TateObject(())] + [tg.tate_line(*line) for line in window]
    samples += [
        direct_sum(tg.tate_line(*p), tg.tate_line(*q))
        for p, q in itertools.combinations(window, 2)
    ][:20]
    primes = []
    for cand in candidates:
        if (0, 0) in cand:
            continue
        if all(
            not (a.tensor(b).support_lines <= cand)
            or a.support_lines <= cand
            or b.support_lines <= cand
            for a, b in itertools.product(samples, repeat=2)
            if inside(a.tensor(b))
        ):
            primes.append(cand)
    return sorted(primes, key=sorted)


def test_enumerate_primes_matches_sample_pair_oracle():
    for radii in itertools.product(range(-1, 4), repeat=2):
        universe = tg.TateUniverse(*radii)
        found = tg.enumerate_primes(universe)["primes"]
        assert [p.lines for p in found] == _primes_by_sample_pairs(universe), radii


def test_window_contains_is_a_range_check():
    for radii in itertools.product(range(-1, 3), repeat=2):
        universe = tg.TateUniverse(*radii)
        window = frozenset(universe.lines())
        assert universe.contains(tg.TateObject(()))
        for i, m in itertools.product(range(-3, 4), repeat=2):
            a = tg.tate_line(i, m)
            b = direct_sum(a, tg.TATE_UNIT)
            assert universe.contains(a) == ((i, m) in window), (radii, i, m)
            assert universe.contains(b) == (b.support_lines <= window), (radii, i, m)


def test_degenerate_universe():
    found = tg.enumerate_primes(tg.TateUniverse(-1, -1))
    assert found["primes"] == []
    assert "unit" in found["diagnostic"]


def support(a, primes):
    return [p for p in primes if not p.contains(a)]


def test_support_rules():
    universe = tg.TateUniverse(2, 1)
    primes = tg.enumerate_primes(universe)["primes"]
    lines = [tg.tate_line(*k) for k in universe.lines()]
    zero = tg.TateObject(())
    assert support(zero, primes) == []
    assert len(support(tg.TATE_UNIT, primes)) == 1
    for a, b in itertools.product(lines[:5], repeat=2):
        t = a.tensor(b)
        s = direct_sum(a, b)
        if universe.contains(t):
            assert set(map(id, support(t, primes))) == set(
                map(id, support(a, primes))
            ) & set(map(id, support(b, primes)))
        assert set(map(id, support(s, primes))) == set(
            map(id, support(a, primes))
        ) | set(map(id, support(b, primes)))
    for a in lines:
        assert verify.u_open(a, primes) == []  # nonzero objects avoid the zero ideal


# ----------------------------------------------------------- poset spaces


def test_spc_shtop_shape():
    space = tg.spc_shtop(3, 2)
    assert set(space.points) == {
        "P_0,1", "P_2,1", "P_2,2", "P_2,inf", "P_3,1", "P_3,2", "P_3,inf"
    }
    assert space.closure({"P_0,1"}) == set(space.points)
    assert space.closure({"P_2,1"}) == {"P_2,1", "P_2,2", "P_2,inf"}
    assert space.closure({"P_2,inf"}) == {"P_2,inf"}
    assert space.generization({"P_2,2"}) == {"P_0,1", "P_2,1", "P_2,2"}
    # closure operator axioms
    for subset in ({"P_2,1"}, {"P_3,2", "P_2,inf"}, set()):
        cl = space.closure(subset)
        assert subset <= cl
        assert space.closure(cl) == cl


def _transitive_closure_fixed_point(points, edges):
    """Oracle: the repeated O(|R|^2) composition pass that `from_edges`
    replaced by one depth-first search per node."""
    rel = {(p, p) for p in points} | {tuple(e) for e in edges}
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(list(rel), repeat=2):
            if b == c and (a, d) not in rel:
                rel.add((a, d))
                changed = True
    return frozenset(rel)


def _random_edge_cases():
    # a cycle, an isolated point, and edge ends outside the points
    edges = [("a", "b"), ("b", "c"), ("c", "a"), ("c", "out"), ("in", "a")]
    cases = [(["a", "b", "c", "d"], edges)]
    rng = random.Random(1608)
    for _ in range(300):
        points = [f"x{i}" for i in range(rng.randint(0, 10))]
        labels = points + ["y0", "y1"]  # y0, y1 are not points
        edges = [
            (rng.choice(labels), rng.choice(labels)) for _ in range(rng.randint(0, 2 * len(labels)))
        ]
        cases.append((points, edges))
    return cases


def test_from_edges_matches_fixed_point_oracle():
    for points, edges in _random_edge_cases():
        space = tg.FiniteSpectralSpace.from_edges(points, edges)
        assert space.points == tuple(points)
        assert space.specializes == _transitive_closure_fixed_point(points, edges), edges


def test_thomason_subsets_chain():
    chain = tg.spc_shtop(2, 1)  # P_0,1 -> P_2,1 -> P_2,inf
    subsets = chain.thomason_subsets()
    assert len(subsets) == 4
    assert frozenset() in subsets
    assert frozenset({"P_2,inf"}) in subsets
    assert frozenset({"P_2,1", "P_2,inf"}) in subsets
    assert frozenset(chain.points) in subsets


def test_thomason_counts_match_upset_bruteforce():
    for space in (tg.spc_shtop(2, 1), tg.spc_shtop(3, 2), tg.spc_shtop(2, 3)):
        subsets = space.thomason_subsets()
        brute = 0
        pts = list(space.points)
        for r in range(len(pts) + 1):
            for combo in itertools.combinations(pts, r):
                chosen = set(combo)
                if all(
                    b in chosen
                    for a in chosen
                    for x, b in space.specializes
                    if x == a
                ):
                    brute += 1
        assert len(subsets) == brute
        # lattice closure under union and intersection
        for y1, y2 in itertools.combinations(subsets[:8], 2):
            assert space.is_closed(y1 | y2)
            assert space.is_closed(y1 & y2)


def test_thomason_bound():
    space = tg.spc_shtop(7, 3)  # 17 points
    with pytest.raises(BoundExceeded):
        space.thomason_subsets()


def test_quotient_and_localize():
    space = tg.spc_shtop(3, 2)
    y = space.closure({"P_2,1"})
    quotient = tg.lattice_quotient(space, y)
    assert set(quotient.points) == set(space.points) - y
    assert tg.lattice_quotient(space, set()).points == space.points
    local = tg.lattice_localize(space, y)
    assert set(local.points) == y
    assert local.closure({"P_2,1"}) == y
    with pytest.raises(NotSpecializationClosed):
        tg.lattice_quotient(space, {"P_2,1"})
    with pytest.raises(NotSpecializationClosed):
        tg.lattice_localize(space, {"P_0,1"})


def test_localize_at_point_closure_is_chain():
    space = tg.spc_shtop(2, 2)
    z = space.closure({"P_2,1"})
    local = tg.lattice_localize(space, z)
    assert set(local.points) == {"P_2,1", "P_2,2", "P_2,inf"}


def test_spc_equivariant():
    one = tg.spc_equivariant(1, 2, 1)
    base = tg.spc_shtop(2, 1)
    assert len(one.points) == len(base.points)
    six = tg.spc_equivariant(6, 2, 1)
    assert len(six.points) == 4 * len(base.points)
    # copies are disjoint by default
    for a, b in six.specializes:
        assert a.split(":")[0] == b.split(":")[0]
    two = tg.spc_equivariant(2, 2, 1)
    assert len(two.points) == 2 * 3


def _chromatic_edges(prime_bound, height_bound):
    """Oracle: the generating edges that `spc_shtop` closed by `from_edges`
    before it wrote its relation down."""
    generic = tg.chromatic_label(0, 1)
    points = [generic]
    edges = []
    for p in (p for p in range(2, prime_bound + 1) if _prime_factors(p) == {p: 1}):
        chain = [tg.chromatic_label(p, n) for n in range(1, height_bound + 1)]
        chain.append(tg.chromatic_label(p, "inf"))
        points.extend(chain)
        edges.append((generic, chain[0]))
        edges.extend(zip(chain, chain[1:]))
    return points, edges


def _equivariant_edges(n, base):
    """Oracle: one copy of `base`'s strict pairs per divisor of n, the
    divisors found by walking 1..n, as `spc_equivariant` built them."""
    points = []
    edges = []
    for m in (m for m in range(1, n + 1) if n % m == 0):
        points.extend(f"H{m}:{p}" for p in base.points)
        edges.extend((f"H{m}:{a}", f"H{m}:{b}") for a, b in base.specializes if a != b)
    return points, edges


def test_chromatic_spaces_match_from_edges_oracle():
    for prime_bound, height in itertools.product(range(1, 14), range(1, 5)):
        base = tg.FiniteSpectralSpace.from_edges(*_chromatic_edges(prime_bound, height))
        got = tg.spc_shtop(prime_bound, height)
        assert (got.points, got.specializes) == (base.points, base.specializes)
        for n in range(1, 37):
            want = tg.FiniteSpectralSpace.from_edges(*_equivariant_edges(n, base))
            got = tg.spc_equivariant(n, prime_bound, height)
            assert (got.points, got.specializes) == (want.points, want.specializes), n


def test_spc_limits(monkeypatch):
    with pytest.raises(BoundExceeded, match=f"exceeds the bound {PRIME_BOUND}"):
        tg.spc_shtop(PRIME_BOUND + 1, 1)
    with pytest.raises(BoundExceeded, match="spc pair bound"):
        tg.spc_shtop(3, 10 ** 9)
    # the closed-form pair count is exact: the bound admits a space of
    # exactly as many pairs as it allows, and refuses one pair fewer
    for build in (lambda: tg.spc_shtop(13, 3), lambda: tg.spc_equivariant(12, 5, 2)):
        space = build()
        monkeypatch.setattr(tg, "SPC_PAIR_BOUND", len(space.specializes))
        assert build() == space
        monkeypatch.setattr(tg, "SPC_PAIR_BOUND", len(space.specializes) - 1)
        with pytest.raises(BoundExceeded, match="spc pair bound"):
            build()
        monkeypatch.undo()


def test_spc_order_bound_refuses_before_factoring(monkeypatch):
    at_bound = tg.spc_equivariant(tg.SPC_ORDER_BOUND, 2, 1)  # 10^12: 13 * 13 divisors
    assert len(at_bound.points) == 169 * 3

    def no_factoring(n):
        raise AssertionError("factored past the spc order bound")

    monkeypatch.setattr(tg, "_prime_factors", no_factoring)
    with pytest.raises(BoundExceeded, match="spc order bound"):
        tg.spc_equivariant(tg.SPC_ORDER_BOUND + 1, 2, 1)


def _dot_by_covers_scan(space, name="spc"):
    """Oracle: `to_dot` before covers came from successor sets; a pair is
    a cover when no third point lies between, scanning every point."""

    def covers(a, b):
        return not any(
            c not in (a, b) and (a, c) in space.specializes and (c, b) in space.specializes
            for c in space.points
        )

    lines = [f"digraph {name} {{"] + [f'  "{p}";' for p in space.points]
    for a, b in sorted(space.specializes):
        if a != b and covers(a, b):
            lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines)


def test_dot_matches_covers_scan_oracle():
    spaces = [tg.FiniteSpectralSpace.from_edges(*case) for case in _random_edge_cases()]
    spaces += [tg.spc_shtop(13, 3), tg.spc_shtop(2, 6), tg.spc_equivariant(12, 5, 2)]
    for space in spaces:
        assert space.to_dot("x") == _dot_by_covers_scan(space, "x"), space.specializes


def test_dot_output():
    space = tg.spc_shtop(2, 1)
    dot = space.to_dot()
    assert dot.startswith("digraph")
    assert '"P_0,1" -> "P_2,1"' in dot
    assert '"P_0,1" -> "P_2,inf"' not in dot  # only covering edges drawn


# ---------------------------------------------------------- comparison map


def test_graded_endomorphism_ring():
    ring = tg.graded_endomorphism_ring(tg.TateUniverse(3, 2))
    assert ring["unit"] == "Q"
    assert ring["degrees"][0] == "Q"
    assert all(v == "0" for n, v in ring["degrees"].items() if n != 0)


def test_rho_bullet_zero_prime():
    universe = tg.TateUniverse(3, 2)
    prime = tg.enumerate_primes(universe)["primes"][0]
    image = tg.rho_bullet(prime)
    assert image["point"] == "zero ideal"
    assert image["ideal_generators"] == []


def test_verify_comparison():
    report = verify.verify_comparison(tg.TateUniverse(3, 2))
    assert report["ok"]
    assert all(case["ok"] for case in report["cases"])
    degrees = {case["degree"] for case in report["cases"]}
    assert 0 in degrees and 1 in degrees


def test_verify_comparison_fails_on_wrong_rho_bullet(monkeypatch):
    # sending the zero prime to the unit ideal empties every D(s) preimage
    monkeypatch.setattr(
        tg, "rho_bullet", lambda prime: {"ideal_generators": [("scalar", 0)], "point": "unit ideal"}
    )
    report = verify.verify_comparison(tg.TateUniverse(3, 2))
    assert not report["ok"]
    assert not all(case["ok"] for case in report["cases"])


def test_cached_window_matches_universe_lines():
    for t, s in itertools.product(range(-1, 5), repeat=2):
        universe = tg.TateUniverse(t, s)
        lines = frozenset(universe.lines())
        assert len(lines) == len(universe.lines()) == max(2 * t + 1, 0) * max(2 * s + 1, 0)
        assert tg._window(t, s) == lines
        assert tg._window(t, s) is tg._window(t, s)  # built once per window
        if t >= 0 and s >= 0:
            ideal = tg.ideal_closure([tg.tate_line(t, -s)], universe)
            assert ideal.lines == lines and ideal.lines is tg._window(t, s)
        assert tg.ideal_closure([], universe).lines == frozenset()
