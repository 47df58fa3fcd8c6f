import types

import quiverflow


def test_all_names_public_objects():
    assert len(set(quiverflow.__all__)) == len(quiverflow.__all__)
    for name in quiverflow.__all__:
        assert not isinstance(getattr(quiverflow, name), types.ModuleType), name
