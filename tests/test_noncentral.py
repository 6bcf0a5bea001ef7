"""Tests for the non-central triangle: both constructions, boundary closed
forms, the k=1 column formulas, and serialization."""
import json
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from ncstirling.cli import triangle_to_csv
from ncstirling.exact import AlphaPoly, falling_factorial
from ncstirling.identities import (
    alternating_sum_weights,
    s_n1_recurrence,
    s_n1_sum_formula,
    scaled_alternating_sum,
)
from ncstirling.noncentral import (
    NoncentralTriangle,
    build_by_explicit,
    build_by_recurrence,
    corrupt_entry,
    csv_renderer,
    explicit_rows,
    json_renderer,
    recurrence_rows,
    render_chunks,
    triangle_from_json,
    triangle_to_json,
)
from ncstirling.stirling import (
    StirlingTable,
    evaluate_entry,
    evaluate_row,
    stirling_expansion_oracle,
)

N_MAX = 12


def at_minus_alpha(row):
    """A row of stirling_expansion_oracle, x(x-1)...(x-n+1), read at x = -alpha:
    the falling factorial (-alpha)(-alpha-1)...(-alpha-n+1)."""
    return AlphaPoly([-c if j % 2 else c for j, c in enumerate(row)])


@pytest.fixture(scope="module")
def by_recurrence():
    return build_by_recurrence(N_MAX)


@pytest.fixture(scope="module")
def by_explicit():
    return build_by_explicit(N_MAX)


@pytest.fixture(scope="module")
def up_to_60():
    return build_by_recurrence(60)


def test_row_one(by_recurrence):
    assert by_recurrence.entry(1, 0) == AlphaPoly([0, -1])   # -alpha
    assert by_recurrence.entry(1, 1) == AlphaPoly([1])


def test_column_entry_two_one(by_recurrence, by_explicit):
    expected = AlphaPoly([-1, -2])  # -2*alpha - 1
    assert by_recurrence.entry(2, 1) == expected
    assert by_explicit.entry(2, 1) == expected


def test_entry_three_zero_is_falling_factorial(by_recurrence):
    assert by_recurrence.entry(3, 0) == AlphaPoly([0, -2, -3, -1])
    assert by_recurrence.entry(3, 0) == at_minus_alpha(list(stirling_expansion_oracle(3))[3])


def test_explicit_entry_three_one(by_explicit):
    # 3a^2 + 6a + 2, assembled from C(3,k), falling factorials and s(3-k, 1)
    assert by_explicit.entry(3, 1) == AlphaPoly([2, 6, 3])


def test_constructions_agree(by_recurrence, by_explicit):
    for n in range(N_MAX + 1):
        for k in range(n + 1):
            assert by_recurrence.entry(n, k) == by_explicit.entry(n, k)


def test_explicit_rows_equal_recurrence_rows_at_every_size_to_40():
    # explicit_rows sums each pair {i, j} once and fills entries (n, i) and (n, j) with it;
    # odd and even n both occur, so the diagonal i == j at 2i == n, filled once, is covered
    for n_max in range(41):
        for n, (explicit, recurrence) in enumerate(zip(explicit_rows(n_max),
                                                       recurrence_rows(n_max), strict=True)):
            assert explicit == recurrence, (n_max, n)


def test_boundaries(by_recurrence):
    for n, oracle in enumerate(stirling_expansion_oracle(N_MAX)):
        assert by_recurrence.entry(n, 0) == at_minus_alpha(oracle)
        assert by_recurrence.entry(n, n) == AlphaPoly([1])


def test_specializes_to_classical_at_zero(by_recurrence):
    table = StirlingTable(N_MAX)
    for n in range(N_MAX + 1):
        for k in range(n + 1):
            assert by_recurrence.entry(n, k)(0) == table.signed(n, k)


def test_degree_and_leading_sign(by_recurrence):
    for n in range(N_MAX + 1):
        for k in range(n + 1):
            coeffs = by_recurrence.rows[n][k]
            assert len(coeffs) - 1 == n - k
            lead = coeffs[-1]
            assert (lead > 0) == ((n - k) % 2 == 0)


@pytest.mark.parametrize("build", [build_by_recurrence, build_by_explicit])
def test_rows_store_exact_length_coefficient_tuples(build):
    triangle = build(40)
    for n, row in enumerate(triangle.rows):
        assert len(row) == n + 1
        for k, coeffs in enumerate(row):
            assert type(coeffs) is tuple and len(coeffs) == n - k + 1, (n, k)
            assert all(type(c) is int for c in coeffs) and coeffs[-1] != 0, (n, k)


@pytest.mark.parametrize("rows", [recurrence_rows, explicit_rows])
def test_row_generators_reject_negative_n_max(rows):
    with pytest.raises(ValueError):
        next(rows(-1))


def test_triangle_path_creates_no_alphapoly(by_explicit, monkeypatch):
    def refuse(*args):
        raise AssertionError("AlphaPoly created on the triangle path")

    monkeypatch.setattr(AlphaPoly, "__init__", refuse)
    triangle = build_by_recurrence(N_MAX)
    assert build_by_explicit(N_MAX) == triangle
    assert triangle_from_json(triangle_to_json(triangle)) == by_explicit
    assert triangle_to_csv(triangle).startswith("n,k,degree,coeffs\n0,0,0,1\n")


def test_evaluate(by_recurrence):
    assert by_recurrence.evaluate(2, 1, 0) == -1
    assert by_recurrence.evaluate(2, 1, 1) == -3
    # (-a)(-a-1)(-a-2) hits a zero factor at alpha = -1 and is 3! at alpha = -3
    assert by_recurrence.evaluate(3, 0, -1) == 0
    assert by_recurrence.evaluate(3, 0, -3) == 6
    assert by_recurrence.evaluate(5, 5, Fraction(7, 3)) == 1


def test_evaluate_builds_at_most_one_fraction(by_recurrence, monkeypatch):
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    zero = NoncentralTriangle([[()]])  # the zero polynomial: horner gives the int 0
    cases = [(by_recurrence, 6, 2, 3), (by_recurrence, 6, 2, Fraction(-7, 3)),
             (by_recurrence, 0, 0, Fraction(1, 2)), (zero, 0, 0, Fraction(5, 4)), (zero, 0, 0, 5)]
    expected = [evaluate_entry(6, 2, 3), evaluate_entry(6, 2, Fraction(-7, 3)),
                Fraction(1), Fraction(0), Fraction(0)]
    values = []
    monkeypatch.setattr(Fraction, "__new__", counting)
    for triangle, n, k, alpha in cases:
        made.clear()
        values.append(triangle.evaluate(n, k, alpha))
        assert len(made) <= 1, (n, k, alpha, made)
    monkeypatch.undo()
    assert values == expected and all(type(v) is Fraction for v in values)


@pytest.fixture(scope="module")
def by_recurrence_40():
    return build_by_recurrence(40)


@given(n=st.integers(0, 40), p=st.integers(-60, 60), q=st.integers(1, 25))
def test_evaluate_row_matches_recurrence_triangle(by_recurrence_40, n, p, q):
    alpha = Fraction(p, q)
    expected = [by_recurrence_40.evaluate(n, i, alpha) for i in range(n + 1)]
    assert evaluate_row(n, alpha) == expected


@pytest.mark.parametrize("alpha", [0, 3, -7, Fraction(-5, 2), Fraction(7, 3)])
def test_evaluate_row_order_zero_and_integer_alphas(by_recurrence_40, alpha):
    assert evaluate_row(0, alpha) == [1]
    expected = [by_recurrence_40.evaluate(40, i, alpha) for i in range(41)]
    assert evaluate_row(40, alpha) == expected


def test_evaluate_row_rejects_negative_order():
    with pytest.raises(ValueError):
        evaluate_row(-1, 0)


# (n, k) with 0 <= k <= n <= 60
ENTRIES = st.integers(0, 60).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n)))


@given(nk=ENTRIES, p=st.integers(-60, 60), q=st.integers(1, 25), b=st.integers(0, 65))
@example(nk=(0, 0), p=0, q=1, b=0)
@example(nk=(60, 0), p=7, q=3, b=30)
@example(nk=(60, 60), p=-41, q=19, b=59)
@example(nk=(60, 1), p=-5, q=2, b=60)
def test_evaluate_entry_is_the_entry_of_evaluate_row(nk, p, q, b, up_to_60):
    # the rows capped at column k give entry k of the whole row: at a rational, an
    # integer and a negative integer -b, where a factor p + m q of the row vanishes
    n, k = nk
    for alpha in (Fraction(p, q), p, -b):
        value = evaluate_entry(n, k, alpha)
        assert type(value) is Fraction and value == evaluate_row(n, alpha)[k]
    # each function reads alpha as p/q once: the float p / 2^q is the Fraction, exactly,
    # and an int is its Fraction
    for alpha, same in ((Fraction(p, 2 ** q), p / 2 ** q), (Fraction(p), p), (Fraction(-b), -b)):
        assert evaluate_entry(n, k, same) == evaluate_entry(n, k, alpha)
        assert evaluate_row(n, same) == evaluate_row(n, alpha)
        assert up_to_60.evaluate(n, k, same) == up_to_60.evaluate(n, k, alpha)
        assert s_n1_recurrence(n, same) == s_n1_recurrence(n, alpha)
        if n:
            assert s_n1_sum_formula(n, same) == s_n1_sum_formula(n, alpha)


def test_evaluate_entry_rejects_orders_and_columns_outside_the_triangle():
    with pytest.raises(ValueError):
        evaluate_entry(-1, 0, 1)
    for n, k in [(0, 1), (3, 4), (3, -1), (0, -1)]:
        with pytest.raises(IndexError):
            evaluate_entry(n, k, Fraction(7, 3))


def test_entry_range_checks(by_recurrence):
    with pytest.raises(IndexError):
        by_recurrence.entry(2, 3)
    with pytest.raises(IndexError):
        by_recurrence.entry(N_MAX + 1, 0)


def test_sum_formula_small_values():
    assert s_n1_sum_formula(1, Fraction(9, 7)) == 1
    assert s_n1_sum_formula(2, 1) == -3
    assert s_n1_sum_formula(2, 0) == -1
    with pytest.raises(ValueError):
        s_n1_sum_formula(0, 1)


def fraction_binomial_sum(alpha, n):
    """S(alpha, n) by the Fraction term recurrence t_{k+1} = t_k (k + a)/(k + 1),
    t_0 = 1: the reference for the scaled-integer sum."""
    a = Fraction(alpha)
    total, term = Fraction(0), Fraction(1)
    for k in range(n):
        total += term / (n - k)
        term = term * (k + a) / (k + 1)
    return total


def binomial_sum_by_formula(alpha, n):
    """S(alpha, n) = (-1)^(n-1) s_n1_sum_formula(n, alpha) / n!, for n >= 1."""
    return (-1) ** (n - 1) * s_n1_sum_formula(n, alpha) / math.factorial(n)


def test_binomial_sum_at_nonpositive_integers():
    # at alpha = -b the terms past k = b are 0; b = 0 leaves only the k = 0 term 1/n
    for b in range(41):
        for n in range(1, 41):
            assert binomial_sum_by_formula(-b, n) == fraction_binomial_sum(-b, n), (b, n)


@given(n=st.integers(1, 40), p=st.integers(-60, 60), q=st.integers(1, 20), b=st.integers(0, 45))
@example(n=40, p=7, q=20, b=39)
@example(n=40, p=-7, q=1, b=40)
@example(n=1, p=0, q=1, b=0)
@example(n=40, p=0, q=1, b=1)
@example(n=40, p=-39, q=1, b=40)
@example(n=12, p=-60, q=1, b=12)
@example(n=40, p=-60, q=25, b=0)
@example(n=40, p=60, q=25, b=45)
def test_shared_weights_sum_matches_fraction_term_recurrence(n, p, q, b):
    # one weight list serves every alpha at this n: a rational, an integer, and a
    # negative integer -b, where the terms past k = b are 0; without weights,
    # s_n1_sum_formula builds its own list
    weights = alternating_sum_weights(n)
    for alpha in (Fraction(p, q), p, -b):
        expected = fraction_binomial_sum(alpha, n)
        scaled = scaled_alternating_sum(weights, *alpha.as_integer_ratio())
        assert type(scaled) is int
        assert Fraction(scaled, math.factorial(n) * alpha.denominator ** (n - 1)) == expected
        value = (-1) ** (n - 1) * math.factorial(n) * expected
        assert s_n1_sum_formula(n, alpha, weights) == value
        default = s_n1_sum_formula(n, alpha)
        assert type(default) is Fraction and default == value
    assert weights == alternating_sum_weights(n)  # the shared list is left as it was


def test_recurrence_small_values():
    assert s_n1_recurrence(1, Fraction(-4, 3))[1] == 1
    assert s_n1_recurrence(2, Fraction(1, 2))[2] == -2
    assert s_n1_recurrence(3, 0) == [0, 1, -1, 2]
    assert s_n1_recurrence(0, 1) == [0]
    with pytest.raises(ValueError):
        s_n1_recurrence(-1, 1)


def scalar_k1_column(n_max, alpha):
    """[s(1,1,a), ..., s(n_max,1,a)] by the scalar k=1 recurrence

        s(1,1,a) = 1,   s(m,1,a) = (-a - m + 1) s(m-1,1,a) + (-a)(-a-1)...(-a-m+2),

    which s_n1_recurrence computed before it read the value off evaluate_row."""
    a = Fraction(alpha)
    column = [Fraction(1)]
    for m in range(2, n_max + 1):
        column.append((-a - m + 1) * column[-1] + falling_factorial(-a, m - 1))
    return column


def test_recurrence_matches_scalar_k1_recurrence():
    rng = random.Random(11)
    alphas = [Fraction(rng.randint(-60, 60), rng.randint(1, 25)) for _ in range(12)]
    alphas += [Fraction(-a) for a in range(1, 9)]
    for alpha in alphas:
        assert s_n1_recurrence(40, alpha) == [0] + scalar_k1_column(40, alpha), alpha


def test_column_one_triple_agreement(by_recurrence):
    rng = random.Random(7)
    for _ in range(12):
        alpha = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        for n in range(1, N_MAX + 1):
            triangle_value = by_recurrence.evaluate(n, 1, alpha)
            assert triangle_value == s_n1_sum_formula(n, alpha)
            assert triangle_value == s_n1_recurrence(n, alpha)[n]


def test_json_round_trip(by_recurrence):
    text = triangle_to_json(by_recurrence)
    parsed = triangle_from_json(text)
    assert parsed == by_recurrence
    assert triangle_to_json(parsed) == text  # byte-identical re-emission
    assert '{"n":"2","k":"1","coeffs":["-1","-2"]}' in text


def test_json_round_trip_large_coefficients():
    triangle = NoncentralTriangle([[(10 ** 50, -3, 0, 7)]])
    text = triangle_to_json(triangle)
    assert '"coeffs":["%d","-3","0","7"]' % 10 ** 50 in text
    parsed = triangle_from_json(text)
    assert parsed == triangle
    assert parsed.entry(0, 0) == AlphaPoly([10 ** 50, -3, 0, 7])


def test_json_rejects_bad_documents():
    with pytest.raises(ValueError):
        triangle_from_json('{"n_max":"1","entries":[{"n":"0","k":"0","coeffs":["1"]}]}')
    with pytest.raises(ValueError):
        triangle_from_json(
            '{"n_max":"0","entries":[{"n":"1","k":"0","coeffs":["1"]}]}'
        )


@pytest.mark.parametrize("text", [
    "[]",
    '"x"',
    '{"n_max":"0"}',
    '{"entries":[{"n":"0","k":"0","coeffs":["1"]}]}',
    '{"n_max":"0","entries":{}}',
    '{"n_max":"0","entries":"x"}',
    '{"n_max":"0","entries":[{"n":"0","k":"0"}]}',
    '{"n_max":"0","entries":["x"]}',
    '{"n_max":"0","entries":[{"n":"0","k":"0","coeffs":{}}]}',
    # nested past the recursion limit, whole and inside the entries list
    "[" * 100000,
    '{"n_max":"0","entries":[' + "[" * 100000 + "]}",
], ids=["array", "string", "no-entries", "no-n_max", "entries-object", "entries-string",
        "no-coeffs", "entry-string", "coeffs-object", "deep-nesting", "deep-entries"])
def test_json_rejects_malformed_shapes_with_value_error(text):
    with pytest.raises(ValueError):
        triangle_from_json(text)


def test_json_checks_entry_count_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            triangle_from_json('{"n_max":"500","entries":[]}')
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


CANONICAL_ONE = ('{"n_max":"1","entries":[{"n":"0","k":"0","coeffs":["1"]},'
                 '{"n":"1","k":"0","coeffs":["0","-1"]},{"n":"1","k":"1","coeffs":["1"]}]}\n')


@pytest.mark.parametrize("text", [
    # an extra key in the document and in an entry
    CANONICAL_ONE.replace('{"n_max":"1",', '{"n_max":"1","note":"x",'),
    CANONICAL_ONE.replace('{"n":"0","k":"0",', '{"n":"0","k":"0","x":"1",'),
    # reordered keys, reordered entries
    CANONICAL_ONE.replace('{"n":"0","k":"0",', '{"k":"0","n":"0",'),
    CANONICAL_ONE.replace('{"n":"1","k":"0","coeffs":["0","-1"]},{"n":"1","k":"1","coeffs":["1"]}',
                          '{"n":"1","k":"1","coeffs":["1"]},{"n":"1","k":"0","coeffs":["0","-1"]}'),
    # JSON whitespace, and no final newline
    CANONICAL_ONE.replace(",", ", "),
    CANONICAL_ONE.rstrip("\n"),
], ids=["extra-key", "extra-entry-key", "reordered-keys", "reordered-entries",
        "whitespace", "no-final-newline"])
def test_json_rejects_documents_that_do_not_re_emit_identically(text):
    with pytest.raises(ValueError):
        triangle_from_json(text)


def test_json_canonical_fixture_parses():
    assert triangle_to_json(triangle_from_json(CANONICAL_ONE)) == CANONICAL_ONE


@st.composite
def triangles(draw):
    n_max = draw(st.integers(0, 4))
    coeffs = st.lists(st.integers(-10 ** 30, 10 ** 30), max_size=5).filter(
        lambda cs: not cs or cs[-1] != 0).map(tuple)
    rows = [[draw(coeffs) for _ in range(n + 1)] for n in range(n_max + 1)]
    return NoncentralTriangle(rows)


@given(triangles())
def test_json_round_trip_any_triangle(triangle):
    text = triangle_to_json(triangle)
    parsed = triangle_from_json(text)
    assert parsed == triangle
    assert triangle_to_json(parsed) == text
    doc = {"n_max": str(triangle.n_max), "entries": [
        {"n": str(n), "k": str(k), "coeffs": [str(c) for c in coeffs]}
        for n, row in enumerate(triangle.rows) for k, coeffs in enumerate(row)]}
    assert text == json.dumps(doc, separators=(",", ":")) + "\n"


def joined_json(n_max, rows):
    """json_renderer's text, written with one '","'.join(map(str, coeffs)) per entry."""
    entries = ['{"n":"%d","k":"%d","coeffs":[%s]}' % (n, k, '"%s"' % '","'.join(map(str, c))
                                                      if c else "")
               for n, row in enumerate(rows) for k, c in enumerate(row)]
    return '{"n_max":"%d","entries":[%s]}\n' % (n_max, ",".join(entries))


def joined_csv(rows):
    """csv_renderer's text, written with one " ".join(map(str, coeffs)) per entry."""
    return "n,k,degree,coeffs\n" + "".join(
        "%d,%d,%d,%s\n" % (n, k, len(c) - 1, " ".join(map(str, c)))
        for n, row in enumerate(rows) for k, c in enumerate(row))


@st.composite
def entry_rows(draw):
    """Row 0 of one entry, (0, 0) as in every triangle, then up to five rows of any width,
    whose entries take their coefficient counts (0-12) from a pool of at most four, so that
    each count recurs across rows and in no particular order."""
    counts = draw(st.lists(st.integers(0, 12), min_size=1, max_size=4))
    coeff = st.integers(-10 ** 300, 10 ** 300)
    entry = st.sampled_from(counts).flatmap(lambda count: st.tuples(*[coeff] * count))
    return [[draw(entry)]] + draw(st.lists(st.lists(entry, max_size=6), max_size=5))


@given(entry_rows())
def test_renderers_write_what_joining_each_entry_writes(rows):
    n_max, entries = len(rows) - 1, sum(map(len, rows))
    for renderer, joined in ((json_renderer(n_max), joined_json(n_max, rows)),
                             (csv_renderer(n_max), joined_csv(rows))):
        chunks = list(render_chunks(renderer, rows))
        assert len(chunks) == entries + 2  # one chunk per entry, between the head and the tail
        assert "".join(chunks) == joined


@pytest.mark.parametrize("renderer", [json_renderer, csv_renderer], ids=["json", "csv"])
def test_a_fresh_renderer_writes_any_row_as_the_whole_document_does(renderer):
    # as ncstirling.turns renders them: each process renders only its own rows, after the fork;
    # row 0 brings the head and row n_max the tail
    for n_max in range(21):
        rows = list(recurrence_rows(n_max))
        chunks = list(render_chunks(renderer(n_max), rows))  # the head, one per entry, the tail
        for n, row in enumerate(rows):
            row_chunks = renderer(n_max)
            assert "".join(row_chunks(n, row)) == "".join(
                chunks[(n and 1 + n * (n + 1) // 2):1 + (n + 1) * (n + 2) // 2 + (n == n_max)])


def test_renderers_write_any_coefficient_as_str_does():
    rows = [[(Fraction(3, 2), True, -7)], [(), (Fraction(-1, 3),)]]
    assert "".join(render_chunks(json_renderer(1), rows)) == joined_json(1, rows) == (
        '{"n_max":"1","entries":[{"n":"0","k":"0","coeffs":["3/2","True","-7"]},'
        '{"n":"1","k":"0","coeffs":[]},{"n":"1","k":"1","coeffs":["-1/3"]}]}\n')
    assert "".join(render_chunks(csv_renderer(1), rows)) == joined_csv(rows) == (
        "n,k,degree,coeffs\n0,0,2,3/2 True -7\n1,0,-1,\n1,1,0,-1/3\n")


NEAR_INTEGERS = st.from_regex(r"\s?[+-]?[0-9\u0660-\u0669_]{0,3}\s?", fullmatch=True)


@given(st.sampled_from(("n_max", "n", "k", "coeff")), NEAR_INTEGERS)
def test_json_accepts_only_what_re_emits_identically(field, number):
    doc = {"n_max": "1", "entries": [
        {"n": "0", "k": "0", "coeffs": ["1"]},
        {"n": "1", "k": "0", "coeffs": ["0", "-1"]},
        {"n": "1", "k": "1", "coeffs": ["1"]},
    ]}
    if field == "n_max":
        doc["n_max"] = number
    elif field == "coeff":
        doc["entries"][1]["coeffs"][1] = number
    else:
        doc["entries"][2][field] = number
    text = json.dumps(doc, separators=(",", ":")) + "\n"
    try:
        parsed = triangle_from_json(text)
    except ValueError:
        return
    assert triangle_to_json(parsed) == text


@pytest.mark.parametrize("coeffs", [[" -1_0 "], ["\u0661"], ["1", "0"], "1"])
def test_json_rejects_non_canonical_coefficients(coeffs):
    doc = {"n_max": "0", "entries": [{"n": "0", "k": "0", "coeffs": coeffs}]}
    with pytest.raises(ValueError):
        triangle_from_json(json.dumps(doc))


def test_constructor_rejects_a_trailing_zero_coefficient():
    with pytest.raises(ValueError, match=r"trailing zero coefficient in entry \(0, 0\)"):
        NoncentralTriangle([[(1, 0)]])
    with pytest.raises(ValueError, match=r"entry \(1, 0\)"):
        NoncentralTriangle([[(1,)], [(0, -1, 0), (1,)]])
    assert NoncentralTriangle([[()]]).rows == (((),),)


def test_corrupt_entry_changes_exactly_one(by_recurrence):
    # a hook on the rows: it takes each row only when the one before has gone by
    def rows(read):
        for m, row in enumerate(by_recurrence.rows):
            read.append(m)
            yield row

    for n, k in [(0, 0), (4, 2), (N_MAX, 0), (N_MAX, 5), (N_MAX, N_MAX)]:
        read = []
        hooked = corrupt_entry(rows(read), n, k)
        assert read == []
        first = next(hooked)
        assert read == [0]
        bad = NoncentralTriangle([first, *hooked])
        differing = [
            (m, i)
            for m in range(N_MAX + 1)
            for i in range(m + 1)
            if bad.entry(m, i) != by_recurrence.entry(m, i)
        ]
        assert differing == [(n, k)]
        assert bad.entry(n, k)(0) == by_recurrence.entry(n, k)(0) + 1
