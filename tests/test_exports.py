import types

import qpencil


def test_all_lists_exactly_the_public_names():
    assert all(hasattr(qpencil, name) for name in qpencil.__all__)
    assert len(set(qpencil.__all__)) == len(qpencil.__all__)
    public = {
        name
        for name, value in vars(qpencil).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(qpencil.__all__)
