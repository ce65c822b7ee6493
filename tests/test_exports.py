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


def test_the_exact_layer_exports_no_scalar_type():
    # the exact layer's one scalar form is the (re, im) pair
    exact = {n for n in qpencil.__all__ if getattr(qpencil, n).__module__ == "qpencil.exact"}
    assert exact == {
        "ExactMatrix", "Ray", "commutator_is_zero", "inner_product", "is_product_state"
    }
