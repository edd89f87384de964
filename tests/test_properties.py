"""Property-based tests for the algebraic layers."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from matsos import expr as ex
from matsos import jets
from matsos.reporting import CONDITION_IDS


@st.composite
def expr_trees(draw, depth=0):
    """Random expression trees over two variables, singularities avoided by
    keeping reciprocal/sqrt arguments offset into the positive axis."""
    if depth >= 3 or draw(st.booleans()):
        return draw(
            st.one_of(
                st.builds(ex.var, st.integers(0, 1)),
                st.builds(
                    ex.const,
                    st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
                ),
            )
        )
    kind = draw(st.sampled_from(["sum", "product", "intpow", "exp", "flat",
                                 "bump", "recipsafe", "sqrtsafe"]))
    child = draw(expr_trees(depth=depth + 1))
    if kind == "sum":
        other = draw(expr_trees(depth=depth + 1))
        return ex.add(child, other)
    if kind == "product":
        other = draw(expr_trees(depth=depth + 1))
        return ex.mul(child, other)
    if kind == "intpow":
        return ex.intpow(child, draw(st.integers(0, 3)))
    if kind == "exp":
        return ex.exp(ex.mul(ex.const(0.25), ex.bump(child)))
    if kind == "flat":
        return ex.flat(child)
    if kind == "bump":
        return ex.bump(child)
    if kind == "recipsafe":
        return ex.recip(ex.add(ex.const(1.5), ex.bump(child)))
    return ex.sqrt(ex.add(ex.const(1.5), ex.bump(child)))


@given(expr_trees())
@settings(max_examples=60, deadline=None)
def test_serialization_round_trips_any_tree(tree):
    assert ex.from_json(ex.to_json(tree)) is tree


def _rebuilt(node):
    """`node` built again through the builders from its kinds and
    parameters alone."""
    kids = [_rebuilt(c) for c in node.children]
    if node.kind in ("var", "const"):
        return getattr(ex, node.kind)(node.param)
    if node.kind == "intpow":
        return ex.intpow(kids[0], node.param)
    builder = {"sum": ex.add, "product": ex.mul}.get(node.kind)
    return builder(*kids) if builder else getattr(ex, node.kind)(kids[0])


@given(expr_trees())
@settings(max_examples=60, deadline=None)
def test_independent_builds_of_any_tree_are_one_node(tree):
    assert _rebuilt(tree) is tree


@given(expr_trees(), expr_trees(),
       st.floats(-0.9, 0.9, allow_nan=False),
       st.floats(-0.9, 0.9, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_product_jets_are_truncated_convolutions(f, g, x, y):
    pt = np.array([[x, y]])
    jf = jets.eval_jet_batch(f, pt, order=3, nvars=2)
    jg = jets.eval_jet_batch(g, pt, order=3, nvars=2)
    jfg = jets.eval_jet_batch(ex.mul(f, g), pt, order=3, nvars=2)
    if jf.invalid[0] or jg.invalid[0] or jfg.invalid[0]:
        return
    conv = jf.space.mul(jf.coef, jg.coef)
    scale = 1.0 + np.abs(conv).max()
    assert np.abs(conv - jfg.coef).max() <= 1e-12 * scale


@given(expr_trees(), st.floats(-0.8, 0.8, allow_nan=False),
       st.floats(-0.8, 0.8, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_value_matches_order_zero_jet(tree, x, y):
    pt = np.array([[x, y]])
    j0 = jets.eval_jet_batch(tree, pt, order=0, nvars=2)
    j3 = jets.eval_jet_batch(tree, pt, order=3, nvars=2)
    if j0.invalid[0] or j3.invalid[0]:
        return
    assert j0.values[0] == j3.values[0]


def test_condition_ids_cover_all_emitted_reports():
    import matsos.decompose
    import matsos.gallery
    import matsos.monotone
    import matsos.verify

    import re

    src = "".join(
        open(m.__file__).read()
        for m in (matsos.verify, matsos.gallery, matsos.monotone,
                  matsos.decompose)
    )
    used = set(re.findall(r'(?:CheckReport|sampled_bound)\(\s*\n?\s*"([a-z0-9-]+)"', src))
    used |= set(re.findall(r'condition in \("([a-z0-9-]+)"', src))
    assert used <= CONDITION_IDS, used - CONDITION_IDS
