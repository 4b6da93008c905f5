import sadcluster


def test_all_is_sorted_unique_and_resolves():
    names = sadcluster.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(sadcluster, name)]
    assert missing == []
