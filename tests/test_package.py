"""The package's public name list."""

import sparsekis


def test_all_names_resolve_once():
    names = sparsekis.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(sparsekis, name), name
