import gc
import inspect
import weakref

import numpy as np
import numpy.testing as npt
import pytest

from minignn import tensor as T
from minignn.rng import Rng
from minignn.tensor import (NumericsError, ShapeError, Tensor, backward,
                            finite_diff_check)


def test_matmul_identity_bitwise():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    eye = Tensor(np.eye(2))
    out = T.matmul(eye, a)
    assert np.array_equal(out.data, a.data)


def test_matmul_by_hand():
    out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    npt.assert_array_equal(out.data, [[11.0]])


def test_matmul_shape_error_reports_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_matmul_gradient_matches_finite_differences():
    rng = Rng(17)
    a = Tensor(rng.normals((3, 4)), requires_grad=True)
    b = Tensor(rng.normals((4, 2)))

    def f(x):
        return T.sum_all(T.matmul(x, b))

    assert finite_diff_check(f, a) < 1e-6


def test_relu_values():
    out = T.relu(Tensor([-1.0, 0.0, 2.0]))
    npt.assert_array_equal(out.data, [0.0, 0.0, 2.0])


def test_sigmoid_at_zero():
    assert T.sigmoid(Tensor(np.zeros(1))).data[0] == 0.5


def test_concat_cols_widths():
    out = T.concat_cols(Tensor(np.ones((2, 2))), Tensor(np.zeros((2, 1))))
    assert out.shape == (2, 3)
    npt.assert_array_equal(out.data, [[1, 1, 0], [1, 1, 0]])


def test_row_broadcast_add_and_grad():
    x = Tensor(np.ones((3, 2)), requires_grad=True)
    b = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    out = T.add(x, b)
    npt.assert_array_equal(out.data, [[2, 3], [2, 3], [2, 3]])
    backward(T.sum_all(out))
    npt.assert_array_equal(b.grad, [3.0, 3.0])


def _alternate_rows(op):
    """op(a, b[rows]), reading the two rows of b as 0, 1, 0, ..."""
    return lambda a, b: op(a, b, np.arange(a.shape[0]) % 2)


@pytest.mark.parametrize("op", [T.add, T.sub, T.mul, T.matmul,
                                pytest.param(_alternate_rows(T.add), id="add/rows"),
                                pytest.param(_alternate_rows(T.mul), id="mul/rows")])
def test_constant_operand_gets_no_gradient_computed(op):
    square = op not in (T.add, T.sub, T.mul)  # a (2, 2) second operand
    x = Tensor(np.ones((3, 2)), requires_grad=True)
    out = op(x, Tensor(np.eye(2) if square else np.array([1.0, 2.0])))
    grads = out.node.backward_fn(np.ones((3, 2)))
    assert grads[0] is not None and grads[1] is None
    assert out.node.inputs == (x, None)
    out = op(Tensor(np.array([[1.0, 2.0]])),
             Tensor(np.ones((2, 2) if square else (1, 2)), requires_grad=True))
    assert out.node.backward_fn(np.ones((1, 2)))[1] is not None
    assert out.node.inputs[0] is None


def test_column_broadcast_values_and_grads():
    rng = Rng(44)
    a0 = rng.normals((4, 3))
    c0 = rng.normals((4, 1))
    for op, ref in ((T.add, np.add), (T.sub, np.subtract), (T.mul, np.multiply)):
        npt.assert_array_equal(op(Tensor(a0), Tensor(c0)).data, ref(a0, c0))
        c = Tensor(c0.copy(), requires_grad=True)

        def f(t, _op=op):
            out = _op(Tensor(a0), t)
            return T.sum_all(T.mul(out, out))

        assert finite_diff_check(f, c) < 1e-5
        assert c.grad.shape == (4, 1)


def test_column_broadcast_grad_is_the_row_sum_kept_as_a_column():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    c = Tensor(np.array([[2.0], [-1.0]]), requires_grad=True)
    backward(T.sum_all(T.mul(x, c)))
    npt.assert_array_equal(c.grad, [[3.0], [12.0]])
    npt.assert_array_equal(x.grad, [[2.0] * 3, [-1.0] * 3])


def test_incompatible_broadcast_rejected():
    for a_shape, b_shape in (((3, 2), (2, 2)), ((3, 2), (2, 1)), ((3, 2), (3,)),
                             ((3, 1), (3, 2)), ((3, 2), (1, 2))):
        with pytest.raises(ShapeError):
            T.add(Tensor(np.ones(a_shape)), Tensor(np.ones(b_shape)))


def test_backward_sum_grad_is_ones():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    backward(T.sum_all(x))
    npt.assert_array_equal(x.grad, [1.0, 1.0, 1.0])


def test_backward_square_grad():
    x = Tensor([1.0, 2.0], requires_grad=True)
    backward(T.sum_all(T.mul(x, x)))
    npt.assert_array_equal(x.grad, [2.0, 4.0])


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ShapeError):
        backward(T.mul(x, x))


def test_backward_twice_accumulates():
    x = Tensor([1.0, 2.0], requires_grad=True)
    loss = T.sum_all(x)
    backward(loss)
    backward(loss)
    npt.assert_array_equal(x.grad, [2.0, 2.0])


def test_backward_through_a_chain_deeper_than_the_recursion_limit():
    x = Tensor([1.0], requires_grad=True)
    y = x
    for _ in range(3000):
        y = T.scale(y, 1.0)
    backward(T.sum_all(y))
    npt.assert_array_equal(x.grad, [1.0])


def test_no_grad_links_nothing():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with T.no_grad():
        y = T.mul(x, x)
    assert not y.requires_grad
    assert y.node is None


X = np.abs(Rng(47).normals((3, 4))) + 0.5  # positive where log and powc read it
# One sample call per recording op, and per form of an op ("add/rows": add with a
# row index); the Tensor arguments come from a factory t.
NO_GRAD_CASES = {
    "matmul": lambda t: (t(X), t(X.T)),
    "add": lambda t: (t(X), t(X[0])),
    "add/rows": lambda t: (t(X), t(X[:2]), np.array([1, 0, 1])),
    "sub": lambda t: (t(X), t(X[:, :1])),
    "mul": lambda t: (t(X), t(X - 1.0)),
    "mul/rows": lambda t: (t(X), t(X[:2] - 1.0), T.Rows(np.array([1, 0, 1]), 2)),
    "scale": lambda t: (t(X), -2.5),
    "relu": lambda t: (t(X - 1.0),),
    "sigmoid": lambda t: (t(X - 1.0),),
    "exp": lambda t: (t(X),),
    "log": lambda t: (t(X),),
    "powc": lambda t: (t(X), 1.5),
    "absolute": lambda t: (t(X - 1.0),),
    "concat_cols": lambda t: (t(X), t(X[:, :2])),
    "sum_all": lambda t: (t(X),),
    "sum_rows": lambda t: (t(X),),
    "sum_cols": lambda t: (t(X),),
    "gather_rows": lambda t: (t(X), np.array([2, 0, 1, 0])),
    "segment_sum": lambda t: (t(X), np.array([1, 0, 1]), 2),
}


def test_no_grad_cases_cover_every_recording_op():
    recording = {name for name, fn in vars(T).items()
                 if inspect.isfunction(fn) and fn.__module__ == T.__name__
                 and "_record" in fn.__code__.co_names}
    assert sorted(recording) == sorted({name.split("/")[0] for name in NO_GRAD_CASES})


@pytest.mark.parametrize("name", sorted(NO_GRAD_CASES))
def test_an_op_that_records_nothing_computes_the_same_output(name):
    op, args = getattr(T, name.split("/")[0]), NO_GRAD_CASES[name]
    tracked = op(*args(lambda a: Tensor(a, requires_grad=True)))
    assert tracked.node is not None
    with T.no_grad():
        untracked = [op(*args(lambda a: Tensor(a, requires_grad=True)))]
    untracked.append(op(*args(Tensor)))  # grad on, but no input needs a gradient
    for out in untracked:
        assert out.node is None and out.requires_grad is False
        assert out.data.dtype == tracked.data.dtype and out.data.shape == tracked.data.shape
        assert np.array_equal(out.data, tracked.data)


def test_graph_lives_as_long_as_its_loss():
    # What a backward rule reads lives as long as the loss; what none reads
    # is freed when the forward drops it.
    x = Tensor([1.0, 2.0], requires_grad=True)
    read = T.scale(x, 2.0)  # the mul's rule reads its factors
    unread = T.mul(read, read)  # the relu's rule reads only its mask
    loss = T.sum_all(T.relu(unread))
    kept, freed = weakref.ref(read.data), weakref.ref(unread.data)  # Tensor has __slots__
    del read, unread
    assert kept() is not None and freed() is None
    backward(loss)
    backward(loss)  # the rules still read what they kept
    assert kept() is not None and loss.grad is None
    del loss
    gc.collect()
    assert kept() is None
    npt.assert_array_equal(x.grad, [16.0, 32.0])  # twice 8x


def test_gradient_accumulation_linearity():
    rng = Rng(3)
    vals = rng.normals((4,))

    x = Tensor(vals.copy(), requires_grad=True)
    backward(T.sum_all(T.mul(x, x)))
    gf = x.grad.copy()

    x = Tensor(vals.copy(), requires_grad=True)
    backward(T.sum_all(T.relu(x)))
    gg = x.grad.copy()

    x = Tensor(vals.copy(), requires_grad=True)
    backward(T.add(T.sum_all(T.mul(x, x)), T.sum_all(T.relu(x))))
    npt.assert_array_equal(x.grad, gf + gg)


def test_mlp_gradient_vs_finite_differences():
    rng = Rng(23)
    w1 = Tensor(rng.normals((5, 7)), requires_grad=True)
    b1 = Tensor(rng.normals((7,)), requires_grad=True)
    w2 = Tensor(rng.normals((7, 1)), requires_grad=True)
    x0 = rng.normals((4, 5))

    def net(inp):
        hidden = T.relu(T.add(T.matmul(inp, w1), b1))
        return T.sum_all(T.matmul(hidden, w2))

    x = Tensor(x0, requires_grad=True)
    assert finite_diff_check(net, x) < 1e-5
    for p in (w1, b1, w2):
        assert finite_diff_check(lambda _t: net(Tensor(x0)), p) < 1e-5


@pytest.mark.parametrize("op", [
    T.relu, T.sigmoid, T.exp, T.absolute,
    lambda t: T.scale(t, -2.5),
    lambda t: T.powc(T.mul(t, t), 1.5),
    T.sum_rows, T.sum_cols,
    lambda t: T.concat_cols(t, T.mul(t, t)),
    lambda t: T.gather_rows(t, np.array([2, 0, 1, 0])),
    lambda t: T.segment_sum(t, np.array([1, 0, 1]), 2),
])
def test_primitive_gradients(op):
    rng = Rng(41)
    x = Tensor(rng.normals((3, 4)) + 0.1, requires_grad=True)

    def f(t):
        return T.sum_all(T.mul(op(t), op(t)))

    assert finite_diff_check(f, x) < 1e-5


def test_binary_primitive_gradients():
    rng = Rng(43)
    a0 = rng.normals((3, 4))
    b0 = rng.normals((3, 4))
    rows = np.array([2, 0, 2])  # b's row 1 is unread, its row 2 read twice
    for op in (T.add, T.sub, T.mul, lambda a, b: T.add(a, b, rows),
               lambda a, b: T.mul(a, b, rows)):
        for side in (0, 1):
            x = Tensor((a0 if side == 0 else b0).copy(), requires_grad=True)

            def f(t, _op=op, _side=side):
                other = Tensor(b0 if _side == 0 else a0)
                args = (t, other) if _side == 0 else (other, t)
                return T.sum_all(T.mul(_op(*args), _op(*args)))

            assert finite_diff_check(f, x) < 1e-5


def test_finite_diff_sum_of_squares():
    x = Tensor([3.0], requires_grad=True)
    assert finite_diff_check(lambda t: T.sum_all(T.mul(t, t)), x) < 1e-8


def test_finite_diff_constant_function():
    x = Tensor([1.0, -2.0], requires_grad=True)
    err = finite_diff_check(lambda t: Tensor(np.float64(5.0)), x)
    assert err < 1e-8


def test_finite_diff_refines_a_step_across_a_kink():
    # 3e-6 lies within the default step h=1e-5 of relu's kink at 0.
    x = Tensor([3e-6, 0.5, -0.7], requires_grad=True)
    assert finite_diff_check(lambda t: T.sum_all(T.relu(t)), x) < 1e-6


def test_finite_diff_flags_a_wrong_gradient_at_a_kink():
    def wrong_relu(a):
        mask = a.data > 0.0
        out = Tensor(np.maximum(a.data, 0.0))
        return T._record(out, (a,), lambda g: (1.01 * g * mask,))

    x = Tensor([3e-6, 0.5, -0.7], requires_grad=True)
    assert finite_diff_check(lambda t: T.sum_all(wrong_relu(t)), x) > 1e-3


def test_finite_diff_rejects_nonscalar():
    x = Tensor([1.0], requires_grad=True)
    with pytest.raises(ShapeError):
        finite_diff_check(lambda t: t, x)


def test_finite_diff_rejects_nan():
    x = Tensor([1.0], requires_grad=True)
    with pytest.raises(NumericsError):
        finite_diff_check(lambda t: Tensor(np.float64("nan")), x)


def test_determinism_same_seed_same_values():
    def run():
        rng = Rng(99)
        a = Tensor(rng.normals((4, 4)), requires_grad=True)
        b = Tensor(rng.normals((4, 4)))
        out = T.sum_all(T.sigmoid(T.matmul(a, b)))
        backward(out)
        return out.data.copy(), a.grad.copy()

    v1, g1 = run()
    v2, g2 = run()
    assert np.array_equal(v1, v2)
    assert np.array_equal(g1, g2)


def test_assert_finite():
    with pytest.raises(NumericsError, match="somewhere"):
        T.assert_finite(Tensor([np.inf]), "somewhere")


# --- scatters through Rows: bit-identical to an np.add.at reference -------------

def _add_at(idx, x, n):
    out = np.zeros((n,) + x.shape[1:])
    np.add.at(out, idx, x)
    return out


def _spread(rng, shape):
    """Values over 16 decades, so a different summation order changes the bits."""
    return rng.normals(shape) * 10.0 ** rng.uniforms(shape, -8.0, 8.0)


SCATTER_CASES = {
    "repeated": (np.array([1, 0, 1, 1, 3, 0, 1]), 4),
    "many-repeats": (np.array([(7 * i) % 5 for i in range(300)]), 5),
    "empty-segments": (np.array([3, 3, 0]), 6),
    "no-rows": (np.zeros(0, dtype=np.int64), 3),
    "permutation": (np.array([2, 4, 0, 1, 3]), 5),
}


@pytest.mark.parametrize("case", sorted(SCATTER_CASES))
def test_segment_sum_forward_bit_identical_to_add_at(case):
    idx, n = SCATTER_CASES[case]
    x = _spread(Rng(61), (len(idx), 16))
    out = T.segment_sum(Tensor(x), idx, n)
    assert out.shape == (n, 16)
    assert np.array_equal(out.data, _add_at(idx, x, n))


@pytest.mark.parametrize("case", sorted(SCATTER_CASES))
def test_gather_rows_backward_bit_identical_to_add_at(case):
    idx, n = SCATTER_CASES[case]
    rng = Rng(62)
    a = Tensor(rng.normals((n, 16)), requires_grad=True)
    g = _spread(rng, (len(idx), 16))
    backward(T.sum_all(T.mul(T.gather_rows(a, idx), Tensor(g))))
    assert np.array_equal(a.grad, _add_at(idx, g, n))


def test_gather_rows_backward_of_a_non_contiguous_gradient():
    idx, n = SCATTER_CASES["many-repeats"]
    rng = Rng(63)
    a = Tensor(rng.normals((n, 3)), requires_grad=True)
    b = Tensor(rng.normals((len(idx), 5)))
    g = _spread(rng, (len(idx), 8))
    # concat_cols passes a column slice of g back: a non-contiguous view
    backward(T.sum_all(T.mul(T.concat_cols(T.gather_rows(a, idx), b), Tensor(g))))
    assert np.array_equal(a.grad, _add_at(idx, g[:, :3], n))


def test_one_rows_serves_two_widths():
    idx, n = SCATTER_CASES["many-repeats"]
    rows = T.Rows(idx, n)
    rng = Rng(64)
    for d in (16, 32, 16):
        x = _spread(rng, (len(idx), d))
        assert np.array_equal(T.segment_sum(Tensor(x), rows, n).data, _add_at(idx, x, n))
        a = Tensor(rng.normals((n, d)), requires_grad=True)
        backward(T.sum_all(T.mul(T.gather_rows(a, rows), Tensor(x))))
        assert np.array_equal(a.grad, _add_at(idx, x, n))


def test_rows_into_the_wrong_row_count_rejected():
    rows = T.Rows(np.array([0, 1]), 2)
    with pytest.raises(ShapeError, match="2 rows used for 3"):
        T.segment_sum(Tensor(np.ones((2, 4))), rows, 3)
    with pytest.raises(ShapeError, match="2 rows used for 3"):
        T.gather_rows(Tensor(np.ones((3, 4))), rows)
    for op in (T.add, T.mul):
        with pytest.raises(ShapeError, match="2 rows used for 3"):
            op(Tensor(np.ones((2, 4))), Tensor(np.ones((3, 4))), rows)


def test_segment_sum_index_out_of_range_rejected():
    with pytest.raises(IndexError):
        T.segment_sum(Tensor(np.ones((2, 4))), np.array([0, 2]), 2)


@pytest.mark.parametrize("op", [T.add, T.mul])
@pytest.mark.parametrize("case", sorted(SCATTER_CASES))
def test_an_operand_read_through_rows_equals_a_gather_bit_for_bit(case, op):
    # forward and both gradients; b's gradient is scattered through the same
    # flattened index as gather_rows's, so it is the same sum in the same order
    idx, n = SCATTER_CASES[case]
    rng = Rng(65)
    a0, b0 = _spread(rng, (len(idx), 16)), _spread(rng, (n, 16))
    g = _spread(rng, (len(idx), 24))
    runs = []
    for through_rows in (False, True):
        a = Tensor(a0.copy(), requires_grad=True)
        b = Tensor(b0.copy(), requires_grad=True)
        out = op(a, b, idx) if through_rows else op(a, T.gather_rows(b, idx))
        # concat_cols passes a column slice of g back: a non-contiguous view
        wide = T.concat_cols(out, Tensor(np.zeros((len(idx), 8))))
        backward(T.sum_all(T.mul(wide, Tensor(g))))
        runs.append((out.data, a.grad, b.grad))
    for through_rows, gathered in zip(*runs):
        assert np.array_equal(through_rows, gathered)


@pytest.mark.parametrize("op", [T.add, T.mul])
def test_an_operand_read_through_rows_must_fit_the_first(op):
    a, b = Tensor(np.ones((3, 4))), Tensor(np.ones((2, 4)))
    for bad_a, bad_b, idx in ((a, b, np.array([0, 1])),  # b[idx] is (2, 4), a (3, 4)
                              (a, Tensor(np.ones((2, 5))), np.array([0, 1, 1])),
                              (a, Tensor(np.ones(2)), np.array([0, 1, 1]))):
        with pytest.raises(ShapeError):
            op(bad_a, bad_b, idx)
    with pytest.raises(IndexError):
        op(a, b, np.array([0, 2, 1]))
