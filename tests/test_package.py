import kpindex


def test_all_names_resolve():
    missing = [name for name in kpindex.__all__ if not hasattr(kpindex, name)]
    assert missing == []
