"""Relators, matrices, determinants, the invariant and its reports."""

import random
from functools import reduce
from itertools import combinations
from pathlib import Path

import pytest

from paritypoly import alexander as ax
from paritypoly import foxcalc as fx
from paritypoly.alexander import (
    AlexanderMatrix, build_full_matrix_M, build_matrix_A,
    check_even_skein, check_symmetries, crossing_bounds, crossing_relators,
    determinant, determinant_cofactor, gcd_of_minors, group_presentation,
    fox_matrix_A, parity_alexander, poly_gcd, skein_matrices,
)
from paritypoly.diagram import (
    OVER, UNDER, VIRTUAL, DiagramCode, DiagramError, Pass,
    apply_move, crossings, parse_diagram, parse_vkd, random_code, random_code_of_size,
    removal_sites, roles, switch_crossing,
)
from paritypoly.laurent import H, LaurentPoly, ONE, Q, S, T, ZERO, add_product, drop_zeros
from paritypoly.realize import parse_gauss, parse_gauss_file, realize
from paritypoly.verify import enumerate_small_codes, suite_prop1

from golden_batch import random_gauss_text

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

Q1 = LaurentPoly.var("q", -1)
S1 = LaurentPoly.var("s", -1)
T1 = LaurentPoly.var("t", -1)
H1 = LaurentPoly.var("h", -1)


def test_assign_roles_positive_pair():
    code = parse_diagram("O1+ U2+ U1+ O2+")
    roles = {c.cid: c for c in crossings(code)}
    # crossing 1 is positive: x enters at its over pass (position 0)
    assert roles[1].x_in == 4 and roles[1].w_out == 1
    assert roles[1].y_in == 2 and roles[1].z_out == 3
    # crossing 2 is positive: over pass at position 3
    assert roles[2].x_in == 3 and roles[2].w_out == 4
    assert roles[2].y_in == 1 and roles[2].z_out == 2


def test_assign_roles_negative():
    code = parse_diagram("O1- U2- U1- O2-")
    roles = {c.cid: c for c in crossings(code)}
    # negative: x enters at the under pass
    assert roles[1].x_in == 2 and roles[1].w_out == 3
    assert roles[1].y_in == 4 and roles[1].z_out == 1


def test_crossing_classes():
    # 1 and 3 each enclose one classical pass; 4 and 5 are kinks
    code = parse_diagram("O1+ V2x O3- U1+ V2y U3- O4+ U4+ O5- U5-")
    assert {c.cid: c.cls for c in crossings(code)} == {
        1: "odd", 2: "virtual", 3: "odd", 4: "even+", 5: "even-"}


def row_map(matrix, code, label):
    """The row ``label``, (crossing id, "z" or "w"), of an unfolded matrix of
    code: crossings by ascending id, z before w."""
    cid, kind = label
    return matrix.rows[2 * sorted(code.crossing_ids()).index(cid) + "zw".index(kind)]


def test_even_positive_row_templates():
    # crossing 2 of a b a c b c is even with four distinct role arcs:
    # x_in=1, w_out=2, y_in=4, z_out=5
    code = parse_diagram("O1+ O2+ U1+ O3+ U2+ U3+")
    A = build_matrix_A(code)
    z_row = row_map(A, code, (2, "z"))
    assert z_row == {1: 1 - S * T, 4: T, 5: LaurentPoly.const(-1)}
    w_row = row_map(A, code, (2, "w"))
    assert w_row == {1: S, 2: LaurentPoly.const(-1)}


def test_even_negative_row_templates():
    # negative: x enters at the under pass, so x_in=4, w_out=5, y_in=1, z_out=2
    code = parse_diagram("O1- O2- U1- O3- U2- U3-")
    A = build_matrix_A(code)
    z_row = row_map(A, code, (2, "z"))
    assert z_row == {1: S1, 2: LaurentPoly.const(-1)}
    w_row = row_map(A, code, (2, "w"))
    assert w_row == {4: T1, 1: ONE - S1 * T1, 5: LaurentPoly.const(-1)}


def test_odd_row_templates():
    code = parse_diagram("O1+ O2+ U1+ U2+")  # a b a b: both crossings odd
    A = build_matrix_A(code)
    z_row = row_map(A, code, (1, "z"))   # x_in=4 (over in), y_in=2, z=3, w=1
    assert z_row == {2: H1, 3: LaurentPoly.const(-1)}
    w_row = row_map(A, code, (1, "w"))
    assert w_row == {4: H, 1: LaurentPoly.const(-1)}


def test_virtual_row_templates():
    code = parse_diagram("V1x O2+ V1y U2+")
    A = build_matrix_A(code)
    z_row = row_map(A, code, (1, "z"))   # frame pass at position 0: x_in=4, w=1, y=2, z=3
    assert z_row == {2: Q1, 3: LaurentPoly.const(-1)}
    w_row = row_map(A, code, (1, "w"))
    assert w_row == {4: Q, 1: LaurentPoly.const(-1)}


def _oracle_codes():
    """Fixtures, both realizations of the table knots, the small codes, 500
    seeded codes and the codes with no classical crossing."""
    codes = [code for name in ("corpus50.vkd", "triangle_moves.vkd")
             for _name, code in parse_vkd((FIXTURES / name).read_text())]
    codes += [realize(g, strategy=strategy) for strategy in (0, 1) for _name, g in
              parse_gauss_file((FIXTURES / "table_knots.gauss").read_text())]
    codes += enumerate_small_codes()  # kinks and every 1-crossing flavour
    codes += [parse_diagram(text) for text in ("", "V1x V1y", "V1x V2x V1y V2y")]
    rng = random.Random(56)
    codes += [random_code(rng, max_crossings=rng.choice([3, 6, 10]),
                          p_virtual=rng.choice([0.0, 0.4, 0.8])) for _ in range(500)]
    return codes


def test_template_matrix_matches_fox_oracle():
    for code in _oracle_codes():
        assert build_matrix_A(code) == fox_matrix_A(code), code.to_text()


def test_parity_alexander_makes_no_fox_derivative_calls(monkeypatch):
    calls = []
    fox = fx.fox_derivative
    monkeypatch.setattr(fx, "fox_derivative", lambda w, g: calls.append(g) or fox(w, g))
    code = parse_diagram("O1+ V2x O3- U1+ V2y U3- O4+ U4+")
    fox_matrix_A(code)
    assert calls  # the oracle path differentiates words
    calls.clear()
    parity_alexander(code)
    assert calls == []


def test_parity_alexander_equals_oracle_determinant():
    """The folded determinant, signed by eps, is det A exactly: the
    canonical form and the unit both agree with the Fox oracle's A.  The
    empty code, whose 0x0 A has det 1, is the one exception (see
    test_empty_code_equals_its_r1_and_v1_neighbours)."""
    rng = random.Random(57)
    for code in _oracle_codes() + [random_code(rng, max_crossings=8) for _ in range(80)]:
        if not code.passes:
            continue
        res = parity_alexander(code)
        canonical, unit = determinant(fox_matrix_A(code)).canonicalize()
        assert (res.canonical, res.unit) == (canonical, unit), code.to_text()


def test_empty_code_equals_its_r1_and_v1_neighbours():
    # r1_remove and v1_remove onto the empty code keep the invariant, though
    # the empty code's 0x0 A has det 1
    empty = parity_alexander(parse_diagram(""))
    assert determinant(fox_matrix_A(parse_diagram(""))) == ONE
    for text in ("O1+ U1+", "U1+ O1+", "O1- U1-", "U1- O1-", "V1x V1y", "V1y V1x"):
        code = parse_diagram(text)
        (move,) = removal_sites(code)
        assert not apply_move(code, move).passes, text
        res = parity_alexander(code)
        assert (empty.canonical, empty.unit, empty.q_width, empty.h_width) == (
            res.canonical, res.unit, res.q_width, res.h_width), text


def test_parity_alexander_builds_one_row_per_even_crossing(monkeypatch):
    shapes = []
    build = ax.build_matrix_A

    def recorded(code, table=None):
        matrix = build(code, table)
        shapes.append(matrix.size)
        return matrix

    monkeypatch.setattr(ax, "build_matrix_A", recorded)
    trefoil = parse_gauss_file((FIXTURES / "knot3_1.gauss").read_text())[0][1]
    realized = [realize(trefoil, strategy=strategy) for strategy in (0, 1)]
    assert [len(code.crossing_ids()) - len(code.signs) for code in realized] == [15, 13]
    # K of one or two rows is read off in closed form, a larger one is built
    built = 0
    for code in realized:
        shapes.clear()
        k = parity_alexander(code).n_even
        assert shapes == ([(k, k)] if k >= 3 else []), code.to_text()
        built += len(shapes)
    rng = random.Random(58)
    for _ in range(100):
        code = random_code(rng, max_crossings=8, p_virtual=0.6)
        shapes.clear()
        k = parity_alexander(code).n_even
        assert shapes == ([(k, k)] if k >= 3 else []), code.to_text()
        built += len(shapes)
    assert built > 0
    for text in ("O1+ O2+ U1+ U2+", "V1x V2x V1y V2y"):
        shapes.clear()
        assert parity_alexander(parse_diagram(text)).canonical.is_zero(), text
        assert shapes == [], text
    for text in ("V1x V2x V1y V2y", "O1+ O2+ U1+ U2+"):
        assert ax.fold_roles(roles(parse_diagram(text))) == ([], 0)
    assert ax.fold_roles({}) == ([], 0)
    # the even+ crossing keeps its z row, the even- crossing its w row,
    # and every incoming arc becomes a head, the target of a kept row
    code = parse_diagram("O1+ U1+ V3x O2- U2- V3y")
    table = crossings(code)
    folded, _sign = ax.fold_roles(roles(code))
    assert [(c.cid, c.cls, c.z_out, c.w_out) for c in folded] == [
        (1, "even+", table[0].z_out, 0), (2, "even-", 0, table[1].w_out)]
    heads = {table[0].z_out, table[1].w_out}
    assert all({c.x_in, c.y_in} <= heads for c in folded)


def _routed_codes():
    """Seeded random signed Gauss codes of 3-20 crossings, each realized both
    ways; the larger ones carry hundreds of virtual passes."""
    rng = random.Random(61)
    codes = []
    for n in [3, 20] + [rng.randint(3, 20) for _ in range(8)]:
        g = parse_gauss(random_gauss_text(rng, n))
        codes += [realize(g, 0), realize(g, 1)]
    return codes


def test_fold_equals_the_unfolded_determinant_on_routed_codes():
    codes = _routed_codes()
    assert max(len(code.crossing_ids()) - len(code.signs) for code in codes) > 100
    for code in codes:
        poly, unit = ax._det_A(code, roles(code))
        assert poly * unit == determinant(build_matrix_A(code)), code.to_text()


def test_folded_skein_triple_equals_the_unfolded_determinants_on_routed_codes():
    sites = 0
    for code in _routed_codes():
        even = [c.cid for c in crossings(code) if c.cls in ("even+", "even-")]
        for cid in even[:2]:
            rep = check_even_skein(code, cid)
            unfolded = tuple(map(determinant, skein_matrices(code, cid)))
            assert (rep.d_plus, rep.d_minus, rep.d_smooth) == unfolded, (code.to_text(), cid)
            sites += 1
    assert sites > 30


def _st1_law_sum(code):
    """sum over even crossings c of eps_c (m_c^eps_c - 1), eps_c the sign of
    c and m_c the product of the one-step weights met strictly between c's
    other pass and its X pass, walking on: q at a virtual crossing's X pass
    and q^-1 at its other pass, h and h^-1 likewise at an odd crossing.
    Classes and X passes are read off the passes here, not through roles."""
    passes, signs = code.passes, code.signs
    n = len(passes)
    at, classical = {}, [0]  # classical[k]: classical passes at positions < k
    for pos, p in enumerate(passes):
        at.setdefault(p.cid, []).append(pos)
        classical.append(classical[-1] + (p.kind != VIRTUAL))
    x_at, cls = {}, {}
    for cid, (i, j) in at.items():
        if cid in signs:
            x_first = passes[i].kind == (OVER if signs[cid] > 0 else UNDER)
            cls[cid] = "odd" if (classical[j] - classical[i + 1]) % 2 else "even"
        else:
            x_first = passes[i].frame
            cls[cid] = "virtual"
        x_at[cid] = i if x_first else j
    before = [(0, 0)]  # before[k]: (q, h) exponents of the weights at positions < k
    for pos, p in enumerate(passes):
        e = 1 if x_at[p.cid] == pos else -1
        dq, dh = {"virtual": (e, 0), "odd": (0, e), "even": (0, 0)}[cls[p.cid]]
        before.append((before[-1][0] + dq, before[-1][1] + dh))
    out = ZERO
    for cid in (c for c, kind in cls.items() if kind == "even"):
        x = x_at[cid]
        y = sum(at[cid]) - x
        wrap = before[n] if x <= y else (0, 0)
        eq = before[x][0] + wrap[0] - before[y + 1][0]
        eh = before[x][1] + wrap[1] - before[y + 1][1]
        eps = signs[cid]
        out = out + eps * (LaurentPoly.term(1, 0, 0, eps * eq, eps * eh) - ONE)
    return out


def _at_s_t_equal_1(p):
    out = ZERO
    for (_es, _et, eq, eh), c in p.terms.items():
        out = out + LaurentPoly.term(c, 0, 0, eq, eh)
    return out


def test_invariant_over_1_minus_st_at_s_t_1_is_the_even_crossing_sum():
    """With R = P / (1 - st), R(1, 1, q, h) equals the sum of _st1_law_sum up
    to a signed monomial: a linear-time oracle for the fold at every size."""
    rng = random.Random(62)
    codes = _routed_codes() + [random_code(rng, max_crossings=rng.randint(1, 10),
                                           p_virtual=rng.choice([0, 0.3, 0.6]))
                               for _ in range(300)]
    nonzero = 0
    for code in codes:
        p = parity_alexander(code).canonical
        got = _at_s_t_equal_1(p.exact_div(ONE - S * T)) if p else ZERO
        want = _st1_law_sum(code)
        assert got.equal_up_to_unit(want) if want else not got, code.to_text()
        nonzero += bool(want)
    assert nonzero > 80


def _odd_made_virtual(code):
    """The code with each odd crossing made virtual, framed on its X pass
    (the over pass of a positive crossing, the under pass of a negative)."""
    odd = {c.cid for c in crossings(code) if c.cls == "odd"}
    passes = tuple(Pass(p.cid, VIRTUAL, (p.kind == OVER) == (code.signs[p.cid] > 0))
                   if p.cid in odd else p for p in code.passes)
    return DiagramCode(passes, {c: s for c, s in code.signs.items() if c not in odd})


def _at_h_equals_q(p):
    out = ZERO
    for (es, et, eq, eh), c in p.terms.items():
        out = out + LaurentPoly.term(c, es, et, eq + eh)
    return out


def test_invariant_at_h_equals_q_is_that_of_the_odd_crossings_made_virtual():
    """At h = q the odd rows are the virtual rows (ROW_TEMPLATES), so A of a
    code at h = q is A of the code with its odd crossings made virtual,
    as long as no even crossing turns odd."""
    rng = random.Random(59)
    tested = 0
    for _ in range(600):
        code = random_code(rng, max_crossings=rng.randint(2, 9), p_virtual=0.3)
        projected = _odd_made_virtual(code)
        if any(c.cls == "odd" for c in crossings(projected)):
            continue  # an even crossing turned odd
        at_q = _at_h_equals_q(parity_alexander(code).canonical).canonical()
        assert at_q == parity_alexander(projected).canonical, code.to_text()
        tested += code.signs != projected.signs
    assert tested > 100


def test_relator_count_and_arc_degree():
    rng = random.Random(50)
    for _ in range(10):
        code = random_code(rng, max_crossings=5)
        rels = crossing_relators(code)
        assert len(rels) == 2 * len(code.crossing_ids())
        for _label, word in rels:
            img = fx.abelianize_word(word)
            ((exps, coeff),) = img.terms.items()
            assert exps[1] == 0 and coeff == 1  # arc-degree homogeneous


def test_full_matrix_commutator_rows():
    code = parse_diagram("O1+ U1+")
    M = build_full_matrix_M(code)
    assert M.size == (5, 5)
    # after the crossing rows: [s,q], [s,h], [h,q]
    assert M.rows[2:] == [{"s": 1 - Q, "q": S - 1}, {"s": 1 - H, "h": S - 1},
                          {"q": H - 1, "h": 1 - Q}]


def test_commutator_block_determinant_zero():
    rows = [{"s": 1 - Q, "q": S - 1},
            {"s": 1 - H, "h": S - 1},
            {"q": H - 1, "h": 1 - Q}]
    block = AlexanderMatrix(rows, ["s", "q", "h"])
    assert determinant(block).is_zero()
    assert determinant_cofactor(block).is_zero()


def test_det_M_vanishes():
    rng = random.Random(51)
    for _ in range(12):
        code = random_code(rng, max_crossings=4)
        assert determinant(build_full_matrix_M(code)).is_zero()


def test_determinant_small():
    one_by_one = AlexanderMatrix([{0: 1 - S * T}], [0])
    assert determinant(one_by_one) == 1 - S * T
    empty = AlexanderMatrix([], [])
    assert determinant(empty) == ONE
    with pytest.raises(ValueError):
        determinant(AlexanderMatrix([{0: S}], [0, 1]))
    with pytest.raises(ValueError, match="matrix is 1x2, not square"):
        determinant_cofactor(AlexanderMatrix([{0: S}], [0, 1]))


def rand_laurent(rng):
    p = LaurentPoly.zero()
    for _ in range(rng.randint(0, 2)):
        p = p + LaurentPoly.term(rng.randint(-2, 2), rng.randint(-1, 1),
                                 rng.randint(-1, 1), rng.randint(-1, 1), rng.randint(-1, 1))
    return p


def test_determinant_matches_cofactor_oracle():
    rng = random.Random(52)
    for _ in range(25):
        n = rng.randint(1, 4)
        rows = [{j: rand_laurent(rng) for j in range(n)} for _ in range(n)]
        rows = [{j: v for j, v in r.items() if v} for r in rows]
        m = AlexanderMatrix(rows, list(range(n)))
        assert determinant(m) == determinant_cofactor(m)


def _sparse_entry(rng):
    e = tuple(rng.randint(-1, 1) for _ in range(4))
    if rng.random() < 0.6:  # a unit: +/- a monomial
        return LaurentPoly({e: rng.choice([1, -1])})
    return rng.choice([LaurentPoly.const(2), 1 - S * T, S + Q, 3 * T, H - 2]).shift(e)


def _is_unit(v):
    """True iff v is +/- a single monomial."""
    return len(v.terms) == 1 and abs(*v.terms.values()) == 1


def test_determinant_exactly_matches_cofactor_on_sparse_matrices():
    rng = random.Random(58)
    singular = unit_free = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        rows = []
        for _i in range(n):
            kind = rng.random()
            if kind < 0.08 and rows:
                # a monomial multiple of an earlier row: it empties during elimination
                m = rng.choice([S, -T, Q * H, LaurentPoly.var("s", -1)])
                rows.append({c: v * m for c, v in rng.choice(rows).items()})
            elif kind < 0.1:
                rows.append({})
            else:
                row = {j: _sparse_entry(rng) for j in range(n) if rng.random() < 0.6}
                if kind < 0.3:  # no unit entry at all
                    row = {j: v for j, v in row.items() if not _is_unit(v)}
                rows.append(row)
        unit_free += any(r and not any(_is_unit(v) for v in r.values()) for r in rows)
        m = AlexanderMatrix(rows, list(range(n)))
        det = determinant(m)
        assert det == determinant_cofactor(m), rows
        singular += det.is_zero()
    assert 60 < singular < 240 and unit_free > 60  # both kinds well represented


def _record_core_sizes(monkeypatch):
    """Patch the core expansion to log the size of every core it gets."""
    sizes = []
    laplace = ax._laplace
    monkeypatch.setattr(ax, "_laplace", lambda m: sizes.append(len(m)) or laplace(m))
    return sizes


def _corpus50_and_dense_codes():
    codes = [code for _name, code in parse_vkd((FIXTURES / "corpus50.vkd").read_text())]
    return codes + [random_code_of_size(random.Random(seed), 60) for seed in (1, 3, 4, 5)]


def test_parity_alexander_makes_no_exact_div_calls(monkeypatch):
    calls = []
    exact_div = LaurentPoly.exact_div
    monkeypatch.setattr(LaurentPoly, "exact_div",
                        lambda a, b: calls.append(b) or exact_div(a, b))
    poly_gcd((S - 1) * (1 - Q), (S - 1) * (1 - H))
    assert calls  # the counter sees the gcd oracle divide
    calls.clear()
    sizes = _record_core_sizes(monkeypatch)
    for code in _corpus50_and_dense_codes():
        parity_alexander(code)
    assert calls == []
    assert sorted(sizes)[-4:] == [3, 3, 3, 4]  # the dense codes leave 3x3 and 4x4 cores


def test_unit_pivots_cut_term_products(monkeypatch):
    """A fill-in guard: taking each unit pivot at the column the fewest live
    rows hold (lowest position on a tie) makes 37,968 products of terms of
    multi-term factors on these codes, well below the 61,943 that taking
    the lowest unit column made.  Every product of two multi-term factors,
    into an empty or a live accumulator, passes through ``add_product``,
    which the kernel calls by its name in ``alexander``."""
    products = []
    add_product = ax.add_product
    monkeypatch.setattr(ax, "add_product", lambda acc, a, b, sign: products.append(
        len(a) * len(b) if len(a) > 1 and len(b) > 1 else 0) or add_product(acc, a, b, sign))
    for code in _corpus50_and_dense_codes():
        parity_alexander(code)
    assert sum(products) == 37_968 < 61_943


def test_core_holds_no_stored_zero(monkeypatch):
    """A fill product can cancel inside, as (1 - q)(1 + q) does in the first
    pivot of the matrix below; its zeros are dropped, so no entry handed to
    ``_laplace`` stores a zero coefficient (a stored zero would hide a unit
    from the pivot search)."""
    cores = []
    laplace = ax._laplace
    monkeypatch.setattr(ax, "_laplace", lambda m: cores.append(m) or laplace(m))
    matrix = AlexanderMatrix([{0: -ONE, 1: 1 + Q, 2: 2 + S}, {0: 1 - Q, 2: 3 + T},
                              {1: 2 + T, 2: 1 + S * T}], [0, 1, 2])
    assert determinant(matrix) == determinant_cofactor(matrix)
    assert cores[0] == [
        [(1 - Q * Q).terms, ((1 - Q) * (2 + S) + 3 + T).terms], [(2 + T).terms, (1 + S * T).terms]]
    for code in _corpus50_and_dense_codes():
        parity_alexander(code)
    assert len(cores) > 1
    for m in cores:
        for row in m:
            for v in row:
                assert v is None or 0 not in v.values()


def test_add_product_equals_laurent_arithmetic():
    """add_product(acc, a, b, sign) with zeros dropped is acc + sign * a * b,
    into an empty (None) or a live accumulator, with either factor the
    smaller or a single term (no branch of its own), down to a sum that
    cancels to nothing; the factors are left as they were."""
    rng = random.Random(25)

    def poly(n):
        return LaurentPoly({tuple(rng.randint(-2, 2) for _ in range(4)): rng.choice([1, -1, 2, -3])
                            for _ in range(n)})

    seen = set()
    for _ in range(200):
        a, b = poly(rng.choice([1, 2, 4, 9])), poly(rng.choice([1, 3, 6]))
        sign = rng.choice([1, -1])
        for x, y in ((a, b), (b, a)):
            for acc in (None, poly(rng.randint(1, 12)), x * y * -sign):
                factors = (dict(x.terms), dict(y.terms))
                got = drop_zeros(add_product(
                    None if acc is None else dict(acc.terms), x.terms, y.terms, sign))
                assert got == ((ZERO if acc is None else acc) + x * y * sign).terms
                assert (x.terms, y.terms) == factors
                seen.add((acc is None, not got, sign, min(len(x.terms), 2), min(len(y.terms), 2),
                          len(x.terms) > len(y.terms)))
    for key in [(True, False, 1), (True, False, -1), (False, False, 1), (False, False, -1),
                (False, True, 1), (False, True, -1)]:
        for shape in [(1, 2, False), (2, 1, True), (2, 2, False), (2, 2, True)]:
            assert key + shape in seen, key + shape


def _snapshot(matrix):
    return [{c: dict(v.terms) for c, v in row.items()} for row in matrix.rows]


def _template_snapshot():
    return {cls: [[(role, dict(coeff.terms)) for role, coeff in row] for row in pair]
            for cls, pair in ax.ROW_TEMPLATES.items()}


def test_determinant_leaves_its_input_unchanged():
    """The elimination updates copies of the input's term dicts in place:
    neither A nor ROW_TEMPLATES may change."""
    templates = _template_snapshot()
    rng = random.Random(61)
    codes = [code for _name, code in parse_vkd((FIXTURES / "corpus50.vkd").read_text())]
    codes += [random_code(rng, max_crossings=rng.randint(1, 12)) for _ in range(50)]
    codes += [random_code_of_size(random.Random(seed), 60) for seed in (2, 4)]
    for code in codes:
        matrix = build_matrix_A(code)
        before = _snapshot(matrix)
        determinant(matrix)
        parity_alexander(code)
        assert _snapshot(matrix) == before, code.to_text()
        assert _template_snapshot() == templates, code.to_text()
    # one polynomial object in several rows, at entries that elimination updates
    p, u = 1 + S * T, -S
    m = AlexanderMatrix([{0: u, 1: p, 2: p}, {0: p, 1: u, 2: p}, {0: p, 1: p, 2: u}],
                        list(range(3)))
    want = determinant_cofactor(m)
    assert determinant(m) == want and not want.is_zero()
    assert p == 1 + S * T and u == -S


def _unit_free_entry(rng):
    if rng.random() < 0.3:
        return None
    e = tuple(rng.randint(-1, 1) for _ in range(4))
    c = rng.choice([2, -3, 1 - S * T, S + Q, 2 * T - H, 1 + Q * H + S1, H - 2 * S])
    return (ONE * c).shift(e)


def test_determinant_matches_sympy_berkowitz():
    """Against sympy's division-free Berkowitz algorithm over Z[s, t, q, h]
    (DomainMatrix.charpoly: Matrix.det(method="berkowitz") on expression
    entries is the same algorithm, but expanding its nested result takes
    seconds from 6x6 on)."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    ring = sympy.ZZ[sympy.symbols("s t q h")]
    rng = random.Random(59)
    for n in [1, 2, 3, 4, 5, 6, 7, 1, 2, 3, 4, 5]:
        grid = [[_unit_free_entry(rng) for _j in range(n)] for _i in range(n)]
        m = AlexanderMatrix([{j: v for j, v in enumerate(row) if v} for row in grid],
                            list(range(n)))
        # shift every entry by one monomial so that sympy sees polynomials
        shift = tuple(-min([0] + [e[i] for r in m.rows for v in r.values() for e in v.terms])
                      for i in range(4))
        dm = DomainMatrix([[ring.ring({tuple(k + d for k, d in zip(e, shift)): c
                                       for e, c in v.terms.items()}) if v else ring.zero
                            for v in row] for row in grid], (n, n), ring)
        det = (-1) ** n * dm.charpoly()[-1]  # charpoly(x) = det(x - M)
        want = LaurentPoly({tuple(e): int(c) for e, c in det.items()})
        assert determinant(m).shift(tuple(n * d for d in shift)) == want, grid


P61 = 2 ** 61 - 1


def _mod_value(p, point):
    """p at point, mod P61."""
    total = 0
    for e, c in p.terms.items():
        term = c
        for x, k in zip(point, e):
            term = term * pow(x, k, P61) % P61
        total += term
    return total % P61


def _mod_det(rows, cols, point):
    """det of the matrix at point, mod P61, by sparse Gaussian elimination."""
    work = [{c: _mod_value(v, point) for c, v in row.items()} for row in rows]
    work = {i: {c: v for c, v in row.items() if v} for i, row in enumerate(work)}
    position = {c: j for j, c in enumerate(cols)}
    det, match = 1, {}  # row -> column position
    while work:
        i = min(work, key=lambda k: len(work[k]))
        row = work.pop(i)
        if not row:
            return 0
        col = min(row, key=position.get)
        match[i] = position[col]
        pivot = row[col]
        det = det * pivot % P61
        inverse = pow(pivot, -1, P61)
        for other in work.values():
            factor = other.get(col)
            if factor is None:
                continue
            factor = factor * inverse % P61
            for c, v in row.items():
                new = (other.get(c, 0) - factor * v) % P61
                if new:
                    other[c] = new
                else:
                    other.pop(c, None)
    order = [match[i] for i in range(len(rows))]
    inversions = sum(a > b for i, a in enumerate(order) for b in order[i + 1:])
    return det if inversions % 2 == 0 else -det % P61


def test_invariant_matches_modular_det_on_large_codes(monkeypatch):
    sizes = _record_core_sizes(monkeypatch)
    rng = random.Random(60)
    for n, seed in ((60, 1), (60, 2), (80, 1), (80, 2), (80, 3)):
        code = random_code_of_size(random.Random(seed), n)
        assert len(code.crossing_ids()) == n
        res = parity_alexander(code)
        point = [rng.randrange(2, P61) for _ in range(4)]
        matrix = build_matrix_A(code)
        assert (_mod_value(res.canonical * res.unit, point)
                == _mod_det(matrix.rows, matrix.cols, point)), (n, seed)
    assert max(sizes) >= 5


def test_unknot_invariant_is_zero():
    res = parity_alexander(parse_diagram(""))
    assert res.canonical == ZERO
    assert res.q_width is None and res.h_width is None


def test_classical_kink_vanishes():
    for text in ("O1+ U1+", "U1+ O1+", "O1- U1-", "U1- O1-"):
        assert parity_alexander(parse_diagram(text)).canonical.is_zero()


def test_invariant_result_counts():
    code = parse_diagram("O1+ O2+ U1+ O3+ U2+ U3+")
    res = parity_alexander(code)
    assert (res.n_even, res.n_odd, res.n_virtual) == (1, 2, 0)
    assert (res.q_width, res.h_width) == (None, None)  # the invariant is 0


def test_crossing_bounds():
    assert crossing_bounds(1 - Q ** 2) == (1, 0)
    assert crossing_bounds(Q ** 2 + H ** 2 + S * T - S * T * H ** 2) == (1, 1)
    assert crossing_bounds(ZERO) == (None, None)
    assert crossing_bounds(ONE) == (0, 0)
    assert crossing_bounds(H ** 3 + Q) == (1, 2)


def test_bounds_never_exceed_diagram_counts():
    # one-sidedness: the widths bound twice the virtual/odd counts of every
    # diagram, in particular the diagram the invariant was computed from
    rng = random.Random(55)
    for _ in range(40):
        code = random_code(rng, max_crossings=6)
        res = parity_alexander(code)
        v_low, o_low = crossing_bounds(res.canonical)
        if v_low is not None:
            assert v_low <= res.n_virtual and o_low <= res.n_odd


def test_poly_gcd():
    assert poly_gcd(1 - Q ** 2, 1 - Q).equal_up_to_unit(1 - Q)
    a = (S - 1) * (S - 1) * (1 - Q)
    b = (S - 1) * (1 - Q) * (1 - Q)
    assert poly_gcd(a, b).equal_up_to_unit((S - 1) * (1 - Q))
    assert poly_gcd(1 - S, 1 - Q) == ONE
    assert poly_gcd(2 * Q, 4 * Q * Q).equal_up_to_unit(LaurentPoly.const(2))
    assert poly_gcd(ZERO, 1 - Q).equal_up_to_unit(1 - Q)
    assert poly_gcd(ZERO, ZERO) == ZERO


def _small_factor(rng):
    p = ZERO
    for _ in range(rng.randint(1, 3)):
        p = p + LaurentPoly.term(rng.choice([-2, -1, 1, 3]), *(rng.randint(-1, 1) for _ in range(4)))
    return p or ONE


def test_poly_gcd_keeps_a_common_factor():
    rng = random.Random(71)
    for _ in range(300):
        x, y, c = _small_factor(rng), _small_factor(rng), _small_factor(rng)
        g = poly_gcd(x * c, y * c)
        (x * c).exact_div(g)  # raises InexactDivision unless g divides both
        (y * c).exact_div(g)
        g.exact_div(c)


def test_gcd_fold_equals_pairwise_reduce():
    """Repeated, divisible and coprime entries: skipping what the running
    gcd divides gives the reduce of poly_gcd over the whole list."""
    rng = random.Random(72)
    pool = [1 - S * T, 1 + Q, H - 2, S - 1, LaurentPoly.const(2), 3 * T, Q * H + S, S - T]
    for _ in range(150):
        c = rng.choice(pool + [ONE])
        polys = [c * rng.choice(pool) * rng.choice(pool + [ONE]) for _ in range(rng.randint(0, 6))]
        polys += [rng.choice(polys) for _ in range(rng.randint(0, 2)) if polys]
        polys.insert(rng.randint(0, len(polys)), rng.choice([ZERO, c, rng.choice(pool)]))
        assert ax._gcd_fold(polys) == reduce(poly_gcd, polys, ZERO), polys


def test_gcd_of_minors_does_not_depend_on_minor_order(monkeypatch):
    """Each pass's minors come out of _laplace in a seeded shuffled order,
    so the fold meets minors of equal term count in a different order.  A
    fully shuffled order is not tried: it can put two large coprime minors
    first, and poly_gcd may take minutes on such a pair."""
    want = [gcd_of_minors(matrix) for matrix in _minor_cases()]
    laplace, rng = ax._laplace, random.Random()

    def shuffled(m):
        minors = list(laplace(m).items())
        rng.shuffle(minors)
        return dict(minors)

    monkeypatch.setattr(ax, "_laplace", shuffled)
    for seed in (1, 2, 3):
        rng.seed(seed)
        got = [gcd_of_minors(matrix) for matrix in _minor_cases()]
        assert got == want, seed


def test_gcd_of_minors_zero_matrix():
    m = AlexanderMatrix([{}, {}], [0, 1])
    assert gcd_of_minors(m) == ZERO


def test_gcd_of_minors_rejects_large():
    rows = [{j: ONE for j in range(9)} for _ in range(9)]
    with pytest.raises(ValueError):
        gcd_of_minors(AlexanderMatrix(rows, list(range(9))))


def _sparse_minor_entry(rng):
    if rng.random() < 0.5:
        return None
    e = tuple(rng.randint(-1, 1) for _ in range(4))
    if rng.random() < 0.6:
        return LaurentPoly({e: rng.choice([1, -1])})
    return rng.choice([LaurentPoly.const(2), 1 - S * T, 1 + Q, 3 * T, H - 2]).shift(e)


def _minor_cases():
    """M and A of every code with at most 2 crossings, then seeded sparse
    square and non-square matrices."""
    codes = enumerate_small_codes() + [parse_diagram("")]
    cases = [m for code in codes for m in (build_full_matrix_M(code), build_matrix_A(code))
             if min(m.size) >= 1]
    rng = random.Random(62)
    for _ in range(200):
        n_rows, n_cols = rng.randint(1, 5), rng.randint(1, 5)
        rows = [{j: v for j in range(n_cols) for v in [_sparse_minor_entry(rng)] if v}
                for _i in range(n_rows)]
        cases.append(AlexanderMatrix(rows, list(range(n_cols))))
    return cases


def _cofactor_minors(matrix, rsel, k):
    """{column bitmask: minor} of the rows rsel over every k columns, each
    minor by cofactor expansion of its sub-grid."""
    out = {}
    for csel in combinations(range(len(matrix.cols)), k):
        cols = [matrix.cols[j] for j in csel]
        sub = AlexanderMatrix([{c: matrix.rows[r][c] for c in cols if c in matrix.rows[r]}
                               for r in rsel], cols)
        out[sum(1 << j for j in csel)] = determinant_cofactor(sub)
    return out


def test_gcd_of_minors_and_laplace_minors_match_cofactor_reference():
    """Every corank-1 minor by cofactor expansion, folded with poly_gcd, is
    the reference for gcd_of_minors; the same minors, zero ones left out,
    are the reference for _laplace's minors of each row choice."""
    zero_minors = non_square = 0
    for matrix in _minor_cases():
        n_rows, n_cols = matrix.size
        non_square += n_rows != n_cols
        k = min(n_rows, n_cols) - 1
        grid = [[r[c].terms if c in r else None for c in matrix.cols] for r in matrix.rows]
        want = ZERO
        for rsel in combinations(range(n_rows), k):
            minors = _cofactor_minors(matrix, rsel, k)
            zero_minors += sum(1 for v in minors.values() if not v)
            assert ax._laplace([grid[r] for r in rsel]) == {
                mask: v.terms for mask, v in minors.items() if v}, (matrix.rows, rsel)
            for v in minors.values():
                want = poly_gcd(want, v)
        assert gcd_of_minors(matrix) == want, matrix.rows
    assert zero_minors > 1000 and non_square > 100


def test_gcd_of_minors_reads_minors_off_laplace(monkeypatch):
    """A cost guard: on a 7x7 M, one _laplace pass per choice of 6 rows and
    no determinant of a sub-matrix."""
    code = parse_diagram("O1+ U2+ U1+ O2+")
    matrix = build_full_matrix_M(code)
    assert matrix.size == (7, 7)
    laplace_calls, det_calls = [], []
    laplace, det = ax._laplace, ax.determinant
    monkeypatch.setattr(ax, "_laplace", lambda m: laplace_calls.append(len(m)) or laplace(m))
    monkeypatch.setattr(ax, "determinant", lambda m: det_calls.append(m) or det(m))
    g = gcd_of_minors(matrix)
    assert det_calls == [] and laplace_calls == [6] * 7
    assert g.equal_up_to_unit(det(build_matrix_A(code)))


def test_prop1_suite_skips_minors_the_running_gcd_divides(monkeypatch):
    """A cost guard: suite_prop1 on the small codes needs few polynomial
    gcds, since most minors are divisible by the gcd of the earlier ones."""
    calls = []
    gcd = ax.poly_gcd
    monkeypatch.setattr(ax, "poly_gcd", lambda a, b: calls.append(1) or gcd(a, b))
    report = suite_prop1(())
    assert report.passed and len(report.checks) == 114
    assert 0 < len(calls) <= 1000


def test_prop1_on_samples():
    for text in ("O1+ U1+", "V1x V1y", "O1+ U2+ U1+ O2+", "O1+ O2+ U1+ U2+",
                 "V1x O2- V1y U2-"):
        code = parse_diagram(text)
        det_a = determinant(build_matrix_A(code))
        g = gcd_of_minors(build_full_matrix_M(code))
        assert g.equal_up_to_unit(det_a), text


def test_skein_matrices_templates():
    code = parse_diagram("O1+ O2+ U1+ O3+ U2+ U3+")
    plus, minus, smooth = skein_matrices(code, 2)
    # shared role arcs at the even crossing: x=1, y=4, z=5, w=2
    assert row_map(plus, code, (2, "z")) == {1: 1 - S * T, 4: T, 5: LaurentPoly.const(-1)}
    assert row_map(plus, code, (2, "w")) == {1: S, 2: LaurentPoly.const(-1)}
    assert row_map(minus, code, (2, "z")) == {4: S1, 5: LaurentPoly.const(-1)}
    assert row_map(minus, code, (2, "w")) == {1: T1, 4: 1 - S1 * T1, 2: LaurentPoly.const(-1)}
    assert row_map(smooth, code, (2, "z")) == {1: ONE, 5: LaurentPoly.const(-1)}
    assert row_map(smooth, code, (2, "w")) == {4: ONE, 2: LaurentPoly.const(-1)}
    # all other rows identical across the three matrices: crossing 2 holds rows 2 and 3
    others = [m.rows[:2] + m.rows[4:] for m in (plus, minus, smooth)]
    assert others[0] == others[1] == others[2]


def test_skein_triple_is_A_of_both_signs_and_the_smoothing():
    # K+ and K- are A of the code and of the code switched at the site, row
    # for row; Kv differs from A only in the site's two smoothing rows
    rng = random.Random(58)
    sites = 0
    for _ in range(150):
        code = random_code(rng, max_crossings=rng.choice([3, 6, 9]),
                           p_virtual=rng.choice([0.0, 0.4]))
        A = build_matrix_A(code)
        for i, r in enumerate(crossings(code)):
            cid, cls = r.cid, r.cls
            if cls not in ("even+", "even-"):
                continue
            sites += 1
            plus, minus, smooth = skein_matrices(code, cid)
            switched = build_matrix_A(switch_crossing(code, cid))
            assert (plus, minus) == ((A, switched) if cls == "even+" else (switched, A))
            z_row = {r.z_out: LaurentPoly.const(-1)}
            z_row[r.x_in] = z_row.get(r.x_in, ZERO) + ONE
            w_row = {r.w_out: LaurentPoly.const(-1)}
            w_row[r.y_in] = w_row.get(r.y_in, ZERO) + ONE
            expected = list(A.rows)
            expected[2 * i:2 * i + 2] = [{c: v for c, v in row.items() if v}
                                         for row in (z_row, w_row)]
            assert smooth == AlexanderMatrix(expected, A.cols)
    assert sites > 200


def _skein_codes():
    """corpus50, the table knots realized both ways, and seeded codes."""
    codes = [code for _name, code in parse_vkd((FIXTURES / "corpus50.vkd").read_text())]
    codes += [realize(g, strategy=strategy) for strategy in (0, 1) for _name, g in
              parse_gauss_file((FIXTURES / "table_knots.gauss").read_text())]
    rng = random.Random(59)
    codes += [random_code(rng, max_crossings=8, p_virtual=p)
              for p in (0.0, 0.2, 0.4, 0.6, 0.8) for _ in range(40)]
    return codes


def test_folded_skein_triple_equals_the_unfolded_determinants():
    sites = 0
    for code in _skein_codes():
        for c in crossings(code):
            if c.cls in ("even+", "even-"):
                rep = check_even_skein(code, c.cid)
                unfolded = tuple(map(determinant, skein_matrices(code, c.cid)))
                assert (rep.d_plus, rep.d_minus, rep.d_smooth) == unfolded, (code.to_text(), c.cid)
                sites += 1
    assert sites > 300


def test_small_K_closed_form_equals_the_unfolded_determinant():
    """``_det_A`` reads a folded K of one or two rows off ``_template_rows``
    in closed form, its one entry or a d - b c, and puts the fold's sign on
    it.  poly * unit is det A of the unfolded matrix, for each code's own
    role map and for its skein role maps.  The cases hold rows with two
    entries on one column, entries that cancel, nonzero b c, and both fold
    signs."""
    kink = parse_diagram("O1+ U1+")
    smooth = ax._skein_roles(kink, 1)[2]  # z = x and w = y on one arc each
    assert ax._template_rows(ax.fold_roles(smooth)[0])[0] == [{}, {}]
    assert ax._det_A(kink, smooth)[0].is_zero()
    rng = random.Random(63)
    codes = [kink] + _skein_codes() + [random_code(rng, max_crossings=5) for _ in range(100)]
    seen = {"k": set(), "sign": set(), "one column": 0, "cancelled": 0, "b c": 0}
    for code in codes:
        role_map = roles(code)
        role_maps = [role_map] + [r for cid, (cls, _x, _y) in role_map.items()
                                  if cls in ("even+", "even-") for r in ax._skein_roles(code, cid)]
        for r in role_maps:
            folded, sign = ax.fold_roles(r)
            rows, targets = ax._template_rows(folded)
            if len(rows) not in (1, 2):
                continue
            poly, unit = ax._det_A(code, r)
            want = determinant(build_matrix_A(code, crossings(code, r)))
            assert poly * unit == want, (code.to_text(), r)
            seen["k"].add(len(rows))
            seen["sign"].add(sign)
            # each kept row's target, then the arcs of its template entries
            arcs = [[t] + [c.x_in if role == "x" else c.y_in for role, _coeff in entries]
                    for c in folded
                    for t, entries in zip((c.z_out, c.w_out), ax.ROW_TEMPLATES[c.cls]) if t]
            seen["one column"] += any(len(set(a)) < len(a) for a in arcs)
            seen["cancelled"] += any(len(row) < len(set(a)) for row, a in zip(rows, arcs))
            if len(rows) == 2:
                lo, hi = sorted(targets)
                seen["b c"] += bool(rows[0].get(hi) and rows[1].get(lo))
    assert seen["k"] == {1, 2} and seen["sign"] == {1, -1}, seen
    assert min(seen["one column"], seen["cancelled"], seen["b c"]) > 0, seen


def test_skein_builds_at_most_one_row_per_even_crossing_and_one_more(monkeypatch):
    sizes = []
    build = ax.build_matrix_A

    def recorded(code, table=None):
        matrix = build(code, table)
        sizes.append(matrix.size)
        return matrix

    monkeypatch.setattr(ax, "build_matrix_A", recorded)
    built = 0
    for code in _skein_codes():
        n_even = parity_alexander(code).n_even
        for c in crossings(code):
            if c.cls in ("even+", "even-"):
                sizes.clear()
                check_even_skein(code, c.cid)
                # D+ and D- keep a row per even crossing, Dv one more; K of
                # one or two rows is read off in closed form
                want = [(k, k) for k in (n_even, n_even, n_even + 1) if k >= 3]
                assert sizes == want, (code.to_text(), sizes)
                built += len(sizes)
    assert built > 0


def test_skein_matrices_make_no_fox_derivative_calls(monkeypatch):
    calls = []
    fox = fx.fox_derivative
    monkeypatch.setattr(fx, "fox_derivative", lambda w, g: calls.append(g) or fox(w, g))
    code = parse_diagram("O1+ V2x O3- U1+ V2y U3- O4+ U4+")
    check_even_skein(code, 4)
    assert calls == []


def test_skein_rejects_bad_sites():
    code = parse_diagram("O1+ O2+ U1+ U2+")  # both odd
    with pytest.raises(DiagramError):
        skein_matrices(code, 1)
    with pytest.raises(DiagramError):
        skein_matrices(parse_diagram("V1x V1y"), 1)


def test_even_skein_kink():
    rep = check_even_skein(parse_diagram("O1+ U1+"), 1)
    assert rep.proof_form_holds
    st = S * T
    assert rep.d_plus - st * rep.d_minus == (1 - st) * rep.d_smooth


def test_even_skein_proof_form_on_random_codes():
    rng = random.Random(53)
    from paritypoly.diagram import parity, EVEN
    checked = nontrivial = 0
    while checked < 25 or nontrivial < 5:
        code = random_code(rng, max_crossings=5)
        par = parity(code)
        for cid in sorted(code.signs):
            if par[cid] != EVEN:
                continue
            rep = check_even_skein(code, cid)
            assert rep.proof_form_holds, (code.to_text(), cid)
            checked += 1
            if not rep.d_smooth.is_zero():
                nontrivial += 1


def test_skein_detects_wrong_role_convention():
    # plug the negative-template rows into the K+ slot and vice versa at a
    # site with a nonzero triple: neither candidate identity may survive
    from paritypoly.diagram import parity, EVEN
    rng = random.Random(1)
    site = None
    while site is None:
        code = random_code(rng, max_crossings=5)
        par = parity(code)
        for cid in sorted(code.signs):
            if par[cid] == EVEN:
                mats = skein_matrices(code, cid)
                if not determinant(mats[2]).is_zero():
                    site = mats
                    break
    plus, minus, smooth = site
    dp = determinant(minus)   # deliberately wrong way around
    dm = determinant(plus)
    dv = determinant(smooth)
    st = S * T
    assert dp - dm != (1 - st) * dv
    assert dp - st * dm != (1 - st) * dv


def test_switch_crossing_odd_keeps_relators():
    code = parse_diagram("O1+ O2+ U1+ U2+")
    switched = switch_crossing(code, 1)
    assert switched.signs[1] == -1
    assert crossing_relators(code) == crossing_relators(switched)
    assert parity_alexander(switched).canonical == parity_alexander(code).canonical


def test_switch_crossing_even_changes_rows():
    code = parse_diagram("O1+ O2+ U1+ O3+ U2+ U3+")
    switched = switch_crossing(code, 2)
    assert crossing_relators(code) != crossing_relators(switched)
    with pytest.raises(DiagramError):
        switch_crossing(parse_diagram("V1x V1y"), 1)


def test_check_symmetries_samples():
    for text in ("O1+ U2+ U1+ O2+", "O1+ O2+ U1+ U2+", "V1x O2- V1y U2-",
                 "O1+ V2x U1+ V2y"):
        rep = check_symmetries(parse_diagram(text))
        assert all(rep.outcomes.values()), (text, rep.outcomes)


def test_symmetry_laws_on_larger_codes():
    """All four laws hold on seeded 6-12-crossing codes and on both
    realizations of the table knots, codes large enough that a wrong law
    fails on many of them."""
    codes = [random_code_of_size(random.Random(n), n) for n in range(6, 13) for _ in range(3)]
    rng = random.Random(63)
    codes += [random_code_of_size(rng, rng.randint(6, 12)) for _ in range(40)]
    codes += [realize(g, strategy) for _name, g in
              parse_gauss_file((FIXTURES / "table_knots.gauss").read_text())
              for strategy in (0, 1)]
    for code in codes:
        rep = check_symmetries(code)
        assert all(rep.outcomes.values()), (code.to_text(), rep.outcomes)


def _at_t_inverse_s(p):
    """p with t = s^-1."""
    out = LaurentPoly.zero()
    for (es, et, eq, eh), c in p.terms.items():
        out = out + LaurentPoly.term(c, es - et, 0, eq, eh)
    return out


def test_invariant_vanishes_at_t_equals_inverse_s():
    """1 - st divides the invariant of every nonempty code: the strand
    weights of the alexander docstring are a null vector of A at t = s^-1."""
    codes = [code for _name, code in parse_vkd((FIXTURES / "corpus50.vkd").read_text())]
    codes += enumerate_small_codes()
    rng = random.Random(64)
    codes += [random_code(rng, max_crossings=rng.randint(1, 10),
                          p_virtual=rng.choice([0.0, 0.3, 0.6])) for _ in range(300)]
    nonzero = 0
    for code in codes:
        if not code.passes:
            continue
        canonical = parity_alexander(code).canonical
        nonzero += not canonical.is_zero()
        assert _at_t_inverse_s(canonical).is_zero(), code.to_text()
    assert nonzero > 100


def test_group_presentation():
    empty = group_presentation(parse_diagram(""))
    assert "generators: s q h" in empty
    assert empty.count("[") == 3
    kink = group_presentation(parse_diagram("O1+ U1+"))
    assert "generators: a1 a2 s q h" in kink
    assert kink.count("r[") == 2
    odd = group_presentation(parse_diagram("O1+ O2+ U1+ U2+"))
    assert "h" in odd.split("r[1.z]: ")[1].splitlines()[0]
    virt = group_presentation(parse_diagram("V1x V1y"))
    assert "q" in virt.split("r[1.z]: ")[1].splitlines()[0]
    # odd 1 and 3, virtual 2, even+ 4, even- 5 (as in test_crossing_classes)
    code = parse_diagram("O1+ V2x O3- U1+ V2y U3- O4+ U4+ O5- U5-")
    assert group_presentation(code) == "\n".join([
        "generators: a1 a2 a3 a4 a5 a6 a7 a8 a9 a10 s q h",
        "relators:",
        "  r[1.z]: h^-1 a3 h a4^-1",
        "  r[1.w]: h a10 h^-1 a1^-1",
        "  r[2.z]: q^-1 a4 q a5^-1",
        "  r[2.w]: q a1 q^-1 a2^-1",
        "  r[3.z]: h^-1 a2 h a3^-1",
        "  r[3.w]: h a5 h^-1 a6^-1",
        "  r[4.z]: a6 a7 s a6^-1 s^-1 a8^-1",
        "  r[4.w]: s a6 s^-1 a7^-1",
        "  r[5.z]: s^-1 a8 s a9^-1",
        "  r[5.w]: s^-1 a8^-1 s a9 a8 a10^-1",
        "  [s,q]: s q s^-1 q^-1",
        "  [s,h]: s h s^-1 h^-1",
        "  [h,q]: h q h^-1 q^-1",
    ])
    assert [(label, fx.word_to_string(word)) for label, word in crossing_relators(code)] == [
        ((1, "z"), "h^-1 a3 h a4^-1"), ((1, "w"), "h a10 h^-1 a1^-1"),
        ((2, "z"), "q^-1 a4 q a5^-1"), ((2, "w"), "q a1 q^-1 a2^-1"),
        ((3, "z"), "h^-1 a2 h a3^-1"), ((3, "w"), "h a5 h^-1 a6^-1"),
        ((4, "z"), "a6 a7 s a6^-1 s^-1 a8^-1"), ((4, "w"), "s a6 s^-1 a7^-1"),
        ((5, "z"), "s^-1 a8 s a9^-1"), ((5, "w"), "s^-1 a8^-1 s a9 a8 a10^-1"),
    ]
