import pytest
from math import comb

from dickeprep.krawtchouk import (
    abs_column_sum,
    column,
    columns,
    descending_columns,
    dump_rows,
    half_column,
    krawtchouk,
    matrix,
    next_half_column,
)

# reference matrices for n = 5 and n = 6, entries indexed (i, k)
MATRIX_N5 = (
    (1, 1, 1, 1, 1, 1),
    (5, 3, 1, -1, -3, -5),
    (10, 2, -2, -2, 2, 10),
    (10, -2, -2, 2, 2, -10),
    (5, -3, 1, 1, -3, 5),
    (1, -1, 1, -1, 1, -1),
)
MATRIX_N6 = (
    (1, 1, 1, 1, 1, 1, 1),
    (6, 4, 2, 0, -2, -4, -6),
    (15, 5, -1, -3, -1, 5, 15),
    (20, 0, -4, 0, 4, 0, -20),
    (15, -5, -1, 3, -1, -5, 15),
    (6, -4, 2, 0, -2, 4, -6),
    (1, -1, 1, -1, 1, -1, 1),
)


def oracle_k(i, k, m):
    """Defining binomial sum, zero for i > m (the sum is empty there)."""
    if m < 0:
        return 0
    return sum(
        (-1) ** j * comb(k, j) * comb(m - k, i - j)
        for j in range(max(0, i - (m - k)), min(i, k) + 1)
    )


def test_point_values():
    assert krawtchouk(2, 2, 6) == -1
    assert krawtchouk(0, 3, 5) == 1
    assert krawtchouk(3, 2, 6) == -4


def test_printed_matrices():
    assert matrix(5) == MATRIX_N5
    assert matrix(6) == MATRIX_N6


def test_columns_are_the_matrix_columns():
    for n in (0, 1, 6, 9, 40):
        assert columns(n) == [list(column(k, n)) for k in range(n + 1)]
    with pytest.raises(ValueError):
        columns(-1)


def test_matrix_trivial():
    assert matrix(0) == ((1,),)


def test_matrix_structure():
    m = matrix(9)
    assert all(v == 1 for v in m[0])
    assert [row[0] for row in m] == [comb(9, i) for i in range(10)]


def test_column_examples():
    assert column(2, 6) == (1, 2, -1, -4, -1, 2, 1)
    assert column(0, 4) == (1, 4, 6, 4, 1)
    # frozen from the defining-sum oracle
    assert column(1, 4) == (1, 2, 0, -2, -1)


def test_abs_column_sum_examples():
    assert abs_column_sum(3, 6) == 8
    assert abs_column_sum(2, 6) == 12
    for n in (1, 5, 9, 12):
        assert abs_column_sum(0, n) == 2**n


@pytest.mark.parametrize(
    "func,kwargs",
    [
        (krawtchouk, dict(i=3, k=1, n=2)),
        (krawtchouk, dict(i=-1, k=0, n=4)),
        (krawtchouk, dict(i=0, k=7, n=4)),
        (column, dict(k=5, n=4)),
        (column, dict(k=-1, n=4)),
        (abs_column_sum, dict(k=9, n=8)),
    ],
)
def test_domain_errors(func, kwargs):
    with pytest.raises(ValueError) as exc:
        func(**kwargs)
    # the offending parameter is named
    bad = next(name for name, v in kwargs.items() if not 0 <= v <= kwargs["n"])
    assert f"{bad}=" in str(exc.value)


def test_binomial_half_columns_equal_comb_rows():
    # columns 0 and n, built by one multiply and one exact divide per entry
    for n in [*range(65), 1029, 1030, 2000]:
        row = [comb(n, i) for i in range(n // 2 + 1)]
        assert half_column(0, n) == row, n
        assert half_column(n, n) == [-v if i & 1 else v for i, v in enumerate(row)], n


def test_recurrence_matches_defining_sum_up_to_100():
    for n in range(0, 101):
        for k in range(n + 1):
            vals = column(k, n)
            for i in range(n + 1):
                assert vals[i] == krawtchouk(i, k, n), (i, k, n)


def test_stepper_matches_recurrence_up_to_64():
    # the stepper yields half columns, entries i <= n//2
    for n in range(0, 65):
        steps = [tuple(col) for col in descending_columns(n)]
        assert steps == [column(m, n)[: n // 2 + 1] for m in range(n, -1, -1)], n


@pytest.mark.parametrize("n", [257, 999, 1000])
def test_stepper_matches_recurrence_large_n(n):
    wanted = {0, 1, n // 2, n}
    seen = 0
    for m, col in zip(range(n, -1, -1), descending_columns(n)):
        seen += 1
        if m in wanted:
            assert tuple(col) == column(m, n)[: n // 2 + 1], m
    assert seen == n + 1


def test_palindrome_against_defining_sum_up_to_64():
    # K_{n-i}(k, n) = (-1)^k K_i(k, n)
    for n in range(0, 65):
        for k in range(n + 1):
            sign = -1 if k & 1 else 1
            col = column(k, n)
            for i in range(n + 1):
                mirrored = sign * krawtchouk(i, k, n)
                assert krawtchouk(n - i, k, n) == mirrored, (i, k, n)
                assert col[n - i] == mirrored, (i, k, n)


@pytest.mark.parametrize("n", [257, 999, 1000])
def test_palindrome_against_defining_sum_large_n(n):
    # the defining sum costs O(n) big binomials per entry, so it is sampled
    sampled = set(range(0, n + 1, 37)) | {1, n // 2, n - n // 2, n - 1, n}
    for k in (0, 1, n // 2, n):
        sign = -1 if k & 1 else 1
        col = column(k, n)
        assert all(col[n - i] == sign * col[i] for i in range(n + 1)), k
        for i in sampled:
            assert col[n - i] == sign * krawtchouk(i, k, n), (i, k)


def test_abs_column_sum_matches_full_column_up_to_64():
    for n in range(0, 65):
        for k in range(n + 1):
            assert abs_column_sum(k, n) == sum(map(abs, column(k, n))), (k, n)


def test_binomial_rows():
    # columns 0 and n are the signed binomial rows that whole-row consumers read
    for n in list(range(0, 201)) + [1029]:
        row = [comb(n, i) for i in range(n + 1)]
        assert list(column(0, n)) == row, n
        signed = [-v if i & 1 else v for i, v in enumerate(row[: n // 2 + 1])]
        assert next(descending_columns(n)) == signed, n


def test_pascal_step_matches_column_up_to_64():
    # G_k^(n) (1+z) = G_k^(n+1), on the half column
    for n in range(0, 64):
        for k in range(n + 1):
            half = list(column(k, n)[: n // 2 + 1])
            assert next_half_column(half, k, n) == list(column(k, n + 1)[: (n + 1) // 2 + 1]), (k, n)
            assert half == list(column(k, n)[: n // 2 + 1])  # the input is left as it was


def dump_cells(n):
    """dump_rows(n) split into its cells: [i][k] is the text of K_i(k, n), the i column dropped."""
    text = "".join(dump_rows(n))
    assert text.endswith("\n")
    lines = text[:-1].split("\n")
    assert [line.split(",", 1)[0] for line in lines] == [str(i) for i in range(n + 1)]
    return [line.split(",")[1:] for line in lines]


def test_dump_rows_are_str_of_columns_up_to_64():
    for n in range(0, 65):
        assert dump_cells(n) == [list(map(str, row)) for row in zip(*columns(n))], n
    with pytest.raises(ValueError, match="n="):
        dump_rows(-1)


def test_dump_rows_come_one_row_per_item():
    # item i is row i, ended by its one newline, also past n = 190, where
    # the whole dump passes 2^20 characters
    for n in (0, 1, 64, 200, 330):
        items = list(dump_rows(n))
        assert len(items) == n + 1
        assert all(item.count("\n") == 1 and item.endswith("\n") for item in items)
        assert [item[:-1].split(",") for item in items] == [
            [str(i), *map(str, row)] for i, row in enumerate(zip(*columns(n)))]


def test_dump_rows_never_print_negative_zero():
    # K_3(1, 6) = 0 reaches column 5 through the mirror's sign flip; K_2(3, 9) = 0
    assert krawtchouk(3, 1, 6) == 0 and krawtchouk(3, 5, 6) == 0
    assert dump_cells(6)[3][5] == "0" and dump_cells(6)[3][1] == "0"
    assert krawtchouk(2, 3, 9) == 0
    assert dump_cells(9)[2][3] == "0" and dump_cells(9)[2][6] == "0"
    for n in range(0, 65):
        assert not any("-0" == t for row in dump_cells(n) for t in row), n


def test_stepper_domain_error():
    with pytest.raises(ValueError, match="n="):
        next(descending_columns(-1))


def check_identities(n, m, m_prev, m_next):
    """All seven identities over their full index range for one n.

    Out-of-domain values (degree above the variable count) enter through the
    boundary cases of (2), (6), (7); the defining sum is empty there, so they
    are zero.
    """
    for i in range(n + 1):
        for k in range(n + 1):
            v = m[i][k]
            if i == 0:
                assert v == 1
            if i == 1:
                assert v == n - 2 * k
            k_next = m[i + 1][k] if i + 1 <= n else 0
            k_prev = m[i - 1][k] if i >= 1 else 0
            assert (i + 1) * k_next == (n - 2 * k) * v - (n - i + 1) * k_prev
            assert v == (-1) ** k * m[n - i][k]
            assert comb(n, k) * v == comb(n, i) * m[k][i]
            assert v == (-1) ** i * m[i][n - k]
            lhs6 = (n - k) * (m[i][k + 1] if k + 1 <= n else 0)
            assert lhs6 == (n - 2 * i) * v - k * (m[i][k - 1] if k >= 1 else 0)
            if m_prev is not None and n >= 1:
                third = m_prev[i][k] if (i <= n - 1 and k <= n - 1) else 0
                lhs7 = (n - i + 1) * m_next[i][k]
                assert lhs7 == (3 * n - 2 * i - 2 * k + 1) * v - 2 * (n - k) * third


def run_identity_sweep(max_n):
    m_prev = None
    m = matrix(0)
    for n in range(0, max_n + 1):
        m_next = matrix(n + 1)
        check_identities(n, m, m_prev, m_next)
        m_prev, m = m, m_next


def test_proposition_identities_small():
    run_identity_sweep(24)


def test_middle_column_abs_sum_lemma():
    for n in range(1, 61):
        expected = 1 << ((n + 1) // 2)
        assert abs_column_sum(n // 2, n) == expected
        assert abs_column_sum((n + 1) // 2, n) == expected
