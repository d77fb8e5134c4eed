from types import SimpleNamespace

import pytest

from bridgesim.econ import (CostTable, TimingParams, btc,
                           format_deposit_table, max_parallelism,
                           min_separation, reproduce_deposit_table,
                           required_deposit, worst_case_vbytes)

PUBLISHED_TABLE = {
    (10, 5): "0.1216494", (10, 10): "0.2432988",
    (10, 20): "0.4865976", (10, 30): "0.7298964",
    (25, 5): "0.3243984", (25, 10): "0.6487968",
    (25, 20): "1.2975936", (25, 30): "1.9463904",
    (50, 5): "0.6623134", (50, 10): "1.3246268",
    (50, 20): "2.6492536", (50, 30): "3.9738804",
    (100, 5): "1.3381434", (100, 10): "2.6762868",
    (100, 20): "5.3525736", (100, 30): "8.0288604",
}


def test_worst_case_vbytes_reference_value():
    assert worst_case_vbytes(CostTable.default()) == 270332


def test_worst_case_vbytes_zero_table():
    # any object with the table's prices as attributes is a table
    zero = SimpleNamespace(**{name: 0 for name, v in vars(CostTable).items()
                              if type(v) is int})
    assert len(vars(zero)) == 7
    assert worst_case_vbytes(zero) == 0


def test_worst_case_vbytes_small_searches():
    t = CostTable.default()
    # arithmetic oracle: same formula with 4-step searches
    expected = (2513 + 653 + 5118 * (4 + 3) + 205 * (4 + 4)
                + 3105 + 1063 + 97780)
    assert worst_case_vbytes(t, 4, 4) == expected


def test_required_deposit_single_functionary_zero():
    assert required_deposit(1, 30) == 0


def test_required_deposit_examples():
    assert required_deposit(10, 5) == 12_164_940
    assert required_deposit(100, 30) == 802_886_040


@pytest.mark.parametrize("n, fee_rate", [(0, 5), (10, 0), (10, -1)])
def test_required_deposit_rejects_out_of_range(n, fee_rate):
    with pytest.raises(ValueError):
        required_deposit(n, fee_rate)


def test_deposit_table_matches_published_values():
    rows = reproduce_deposit_table()
    assert len(rows) == 16
    for n, x, sats in rows:
        assert btc(sats) == PUBLISHED_TABLE[(n, x)], (n, x)


def test_formula_table_consistency():
    for n, x, sats in reproduce_deposit_table():
        assert sats == worst_case_vbytes(CostTable.default()) * x * (n - 1)


def test_deposit_monotone_in_n_and_fee():
    deposits_n = [required_deposit(n, 10) for n in range(2, 30)]
    assert all(a < b for a, b in zip(deposits_n, deposits_n[1:]))
    deposits_x = [required_deposit(10, x) for x in range(1, 40)]
    assert all(a < b for a, b in zip(deposits_x, deposits_x[1:]))


def test_format_deposit_table_has_all_rows():
    text = format_deposit_table(reproduce_deposit_table())
    for value in PUBLISHED_TABLE.values():
        assert value in text


@pytest.mark.parametrize("t,expected", [
    ((10, 4, 2, 1), 9),
    ((10, 10, 0, 0), 0),
    ((20, 5, 3, 2), 20),
    ((7, 3, 1, 0), 5),
    ((100, 1, 0, 0), 99),
])
def test_min_separation(t, expected):
    assert min_separation(TimingParams(*t)) == expected


@pytest.mark.parametrize("t_total,t_min,expected", [
    (160, 16, 10), (105, 10, 10), (9, 10, 0), (0, 5, 0), (50, 7, 7),
])
def test_max_parallelism(t_total, t_min, expected):
    assert max_parallelism(t_total, t_min) == expected


def test_max_parallelism_rejects_zero_divisor():
    with pytest.raises(ValueError):
        max_parallelism(100, 0)


def test_timing_params_validation():
    with pytest.raises(ValueError):
        TimingParams(3, 5, 0, 0)
    with pytest.raises(ValueError):
        TimingParams(5, 0, 0, 0)
    for negative in ((5, 3, -1, 0), (5, 3, 0, -1)):
        with pytest.raises(ValueError):
            TimingParams(*negative)


def test_deposit_independent_of_tvl():
    # capital efficiency: the deposit depends only on (N, X), never on the
    # value locked in the packet
    base = required_deposit(10, 5)
    for _tvl in (10**8, 10**10, 10**12):
        assert required_deposit(10, 5) == base
