"""The public API stays small: ``omnisim.__all__`` is the whole of it."""

import omnisim

MAX_PUBLIC_NAMES = 51  # ROADMAP: the public API gets smaller, not larger


def test_public_api_is_bounded_and_resolves():
    names = set(omnisim.__all__)
    assert len(names) == len(omnisim.__all__), "duplicate names in __all__"
    assert len(names) <= MAX_PUBLIC_NAMES
    missing = [name for name in names if not hasattr(omnisim, name)]
    assert not missing
