import pytest

from qshuffle.cartan import CartanData, builtin_cartan


def test_builtin_rank_two_tables():
    a2 = builtin_cartan("A2")
    assert a2.matrix == ((2, -1), (-1, 2))
    assert a2.symmetrizers == (1, 1)

    b2 = builtin_cartan("B2")
    assert b2.matrix == ((2, -1), (-2, 2))
    assert b2.symmetrizers == (2, 1)

    g2 = builtin_cartan("G2")
    assert g2.matrix == ((2, -1), (-3, 2))
    assert g2.symmetrizers == (3, 1)


def test_builtin_b3_c3_d4():
    b3 = builtin_cartan("B3")
    assert b3.matrix == ((2, -1, 0), (-1, 2, -1), (0, -2, 2))
    assert b3.symmetrizers == (2, 2, 1)

    c3 = builtin_cartan("C3")
    # C is the transpose of B with the long root last
    assert c3.matrix == tuple(zip(*b3.matrix))
    assert c3.symmetrizers == (1, 1, 2)

    d4 = builtin_cartan("D4")
    assert d4.matrix == (
        (2, -1, 0, 0),
        (-1, 2, -1, -1),
        (0, -1, 2, 0),
        (0, -1, 0, 2),
    )


def test_builtin_validity_ranges():
    builtin_cartan("A1")
    for bad in ["A0", "B1", "C1", "D3", "G3", "G1", "E6", "X2", "A", "2A"]:
        with pytest.raises(ValueError):
            builtin_cartan(bad)


def test_pairing_symmetric_all_builtins():
    for tag in ["A1", "A3", "B2", "B4", "C2", "C3", "D4", "D5", "G2"]:
        c = builtin_cartan(tag)
        for i in range(1, c.rank + 1):
            for j in range(1, c.rank + 1):
                assert c.pairing(i, j) == c.pairing(j, i)
            assert c.pairing(i, i) == 2 * c.d(i)


def test_g2_pairing_values():
    g2 = builtin_cartan("G2")
    assert g2.pairing(1, 1) == 6
    assert g2.pairing(2, 2) == 2
    assert g2.pairing(1, 2) == -3


def test_custom_matrix_validation():
    CartanData(2, ((2, -1), (-2, 2)), (2, 1))
    with pytest.raises(ValueError):
        CartanData(2, ((2, -1), (-2, 2)), (1, 1))  # does not symmetrize
    with pytest.raises(ValueError):
        CartanData(2, ((2, 1), (1, 2)), (1, 1))  # positive off-diagonal
    with pytest.raises(ValueError):
        CartanData(2, ((1, -1), (-1, 2)), (1, 1))  # bad diagonal
    with pytest.raises(ValueError):
        CartanData(2, ((2, 0), (-1, 2)), (1, 1))  # asymmetric zero pattern
    with pytest.raises(ValueError):
        CartanData(0, (), ())
    with pytest.raises(ValueError):
        CartanData(2, ((2, -1), (-1, 2)), (1, -1))
    # bool is an int subclass; it is never a valid entry
    with pytest.raises(ValueError):
        CartanData(1, ((2,),), (True,))
    with pytest.raises(ValueError):
        CartanData(True, ((2,),), (1,))
    with pytest.raises(ValueError):
        CartanData(2, ((2, False), (False, 2)), (1, 1))


def test_index_range_checked():
    a2 = builtin_cartan("A2")
    with pytest.raises(ValueError):
        a2.a(0, 1)
    with pytest.raises(ValueError):
        a2.d(3)
    with pytest.raises(ValueError):
        a2.d(True)
    with pytest.raises(ValueError):
        a2.a(1, True)


def test_json_roundtrip():
    for tag in ["A2", "B3", "G2"]:
        c = builtin_cartan(tag)
        assert CartanData.from_json_dict(c.to_json_dict()) == c
    with pytest.raises(ValueError):
        CartanData.from_json_dict({"rank": 2})
