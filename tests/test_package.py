from __future__ import annotations

import gaitmogp


def test_public_api_resolves_and_star_imports():
    assert [name for name in gaitmogp.__all__
            if not hasattr(gaitmogp, name)] == []
    namespace: dict = {}
    exec("from gaitmogp import *", namespace)
    assert set(gaitmogp.__all__) <= set(namespace)
