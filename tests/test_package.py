import ffspread


def test_all_names_resolve():
    missing = [name for name in ffspread.__all__ if not hasattr(ffspread, name)]
    assert not missing
    assert len(set(ffspread.__all__)) == len(ffspread.__all__)
