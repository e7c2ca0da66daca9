"""Reverse-mode automatic differentiation on numpy arrays.

This module is the foundation of :mod:`repro.nn`. It provides a
:class:`Tensor` type that records the operations applied to it and can
back-propagate gradients through arbitrary DAGs of those operations.

The design is a classic "tape" autograd:

* every differentiable operation returns a new :class:`Tensor` whose
  ``_parents`` reference the inputs and whose ``_backward`` closure knows how
  to push an upstream gradient to those inputs;
* :meth:`Tensor.backward` topologically sorts the graph reachable from the
  output and runs the closures in reverse order, accumulating ``.grad``.

Only tensors with ``requires_grad=True`` (or depending on one) build graph
nodes, so pure inference carries no bookkeeping overhead.

The paper's experiments (training VGG variants, training inversion attack
models, and running the maximum-likelihood attack which differentiates with
respect to the *input image*) all run on top of this engine.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "tensor", "zeros", "ones", "randn"]


# Per-thread so concurrent serving sessions (each wrapping its clear-phase
# forward in no_grad) cannot race on one process-wide flag: interleaved
# enter/exit from two threads could restore the wrong previous value and
# leave gradient recording off for everyone.
_GRAD_STATE = threading.local()


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction (this thread only).

    Used for evaluation loops, the secure-inference engine (which operates on
    plain integer arrays anyway) and for in-place parameter updates inside
    the optimizers.
    """
    previous = is_grad_enabled()
    _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_STATE.enabled = previous


def is_grad_enabled() -> bool:
    """Return whether operations currently record gradient information."""
    return getattr(_GRAD_STATE, "enabled", True)


def _as_array(data, dtype=None) -> np.ndarray:
    if isinstance(data, Tensor):
        data = data.data
    if dtype is not None:
        return np.asarray(data, dtype=dtype)
    if isinstance(data, (np.ndarray, np.generic)):
        # Preserve the float precision of arrays (and numpy scalars, which
        # reductions produce) the caller already built: float64 inputs stay
        # float64 — gradient checking relies on this.
        array = np.asarray(data)
        if array.dtype.kind in "iub":
            return array.astype(np.float32)
        return array
    array = np.asarray(data)
    if array.dtype.kind in "iub" or array.dtype == np.float64:
        # Python scalars/lists default to float32, the library's working
        # precision: it halves memory traffic for conv-heavy workloads.
        array = array.astype(np.float32)
    return array


def _sum_to_shape(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` (which may be broadcast) back to ``shape``.

    Broadcasting in the forward direction becomes summation in the backward
    direction; this helper undoes numpy broadcasting for arbitrary shapes.
    """
    if grad.shape == shape:
        return grad
    # Added leading axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Axes broadcast from 1 to n.
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor with reverse-mode automatic differentiation.

    Parameters
    ----------
    data:
        Anything convertible to a numpy array. Integer input is promoted to
        ``float32``.
    requires_grad:
        If ``True``, gradients with respect to this tensor are accumulated
        into :attr:`grad` during :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data: np.ndarray = _as_array(data, dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad: bool = bool(requires_grad)
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name: str | None = None

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        self.grad = None

    def astype(self, dtype) -> "Tensor":
        return Tensor(self.data.astype(dtype), requires_grad=False)

    # ------------------------------------------------------------------
    # graph construction helper
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create the result tensor of an op, wiring the graph if needed."""
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = grad.astype(self.data.dtype, copy=True)
        else:
            self.grad += grad

    # ------------------------------------------------------------------
    # backward
    # ------------------------------------------------------------------
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Back-propagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Upstream gradient. Defaults to ``1`` for scalar outputs (the
            common loss case); required for non-scalar outputs.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without a gradient requires a scalar output")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        # Topological order over the reachable graph.
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(order):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node.requires_grad and node._backward is None:
                # Leaf tensor: accumulate into .grad.
                node._accumulate(node_grad)
            if node._backward is not None:
                node._push_parent_grads(node_grad, grads)

    def _push_parent_grads(self, grad: np.ndarray, grads: dict[int, np.ndarray]) -> None:
        parent_grads = self._backward(grad)
        if not isinstance(parent_grads, tuple):
            parent_grads = (parent_grads,)
        for parent, pgrad in zip(self._parents, parent_grads):
            if pgrad is None or not parent.requires_grad:
                continue
            if parent._backward is None:
                parent._accumulate(pgrad)
            else:
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pgrad
                else:
                    grads[key] = pgrad

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data + other.data

        def backward(grad):
            return (_sum_to_shape(grad, self.shape), _sum_to_shape(grad, other.shape))

        return Tensor._make(data, (self, other), backward)

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data - other.data

        def backward(grad):
            return (_sum_to_shape(grad, self.shape), _sum_to_shape(-grad, other.shape))

        return Tensor._make(data, (self, other), backward)

    def __rsub__(self, other) -> "Tensor":
        return Tensor(other) - self

    def __mul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data * other.data
        a, b = self, other

        def backward(grad):
            return (
                _sum_to_shape(grad * b.data, a.shape),
                _sum_to_shape(grad * a.data, b.shape),
            )

        return Tensor._make(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data / other.data
        a, b = self, other

        def backward(grad):
            return (
                _sum_to_shape(grad / b.data, a.shape),
                _sum_to_shape(-grad * a.data / (b.data * b.data), b.shape),
            )

        return Tensor._make(data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor(other) / self

    def __neg__(self) -> "Tensor":
        def backward(grad):
            return (-grad,)

        return Tensor._make(-self.data, (self,), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        data = self.data**exponent
        base = self

        def backward(grad):
            return (grad * exponent * base.data ** (exponent - 1),)

        return Tensor._make(data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data @ other.data
        a, b = self, other

        def backward(grad):
            a_grad = grad @ np.swapaxes(b.data, -1, -2)
            b_grad = np.swapaxes(a.data, -1, -2) @ grad
            return (_sum_to_shape(a_grad, a.shape), _sum_to_shape(b_grad, b.shape))

        return Tensor._make(data, (self, other), backward)

    # comparisons produce plain numpy bool arrays (non-differentiable)
    def __gt__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data > other

    def __lt__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data < other

    def __ge__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data >= other

    def __le__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data <= other

    # ------------------------------------------------------------------
    # elementwise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad):
            return (grad * data,)

        return Tensor._make(data, (self,), backward)

    def log(self) -> "Tensor":
        source = self

        def backward(grad):
            return (grad / source.data,)

        return Tensor._make(np.log(self.data), (self,), backward)

    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)

        def backward(grad):
            return (grad * 0.5 / data,)

        return Tensor._make(data, (self,), backward)

    def abs(self) -> "Tensor":
        source = self

        def backward(grad):
            return (grad * np.sign(source.data),)

        return Tensor._make(np.abs(self.data), (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad):
            return (grad * (1.0 - data * data),)

        return Tensor._make(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        # exp overflow here is pure saturation: exp(-x) -> inf makes the
        # quotient exactly 0.0, the correct limit — same bits as before.
        with np.errstate(over="ignore"):
            data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad):
            return (grad * data * (1.0 - data),)

        return Tensor._make(data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        data = np.where(mask, self.data, 0.0).astype(self.data.dtype, copy=False)

        def backward(grad):
            return (grad * mask,)

        return Tensor._make(data, (self,), backward)

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        mask = self.data > 0
        data = np.where(mask, self.data, negative_slope * self.data).astype(self.data.dtype)

        def backward(grad):
            return (grad * np.where(mask, 1.0, negative_slope).astype(grad.dtype),)

        return Tensor._make(data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        data = np.clip(self.data, low, high)
        mask = (self.data >= low) & (self.data <= high)

        def backward(grad):
            return (grad * mask,)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)
        source_shape = self.shape

        def backward(grad):
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            return (np.broadcast_to(g, source_shape).astype(g.dtype),)

        return Tensor._make(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.mean(axis=axis, keepdims=keepdims)
        source_shape = self.shape
        count = self.data.size if axis is None else np.prod(
            [source_shape[a] for a in (axis if isinstance(axis, tuple) else (axis,))]
        )

        def backward(grad):
            g = np.asarray(grad) / count
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            return (np.broadcast_to(g, source_shape).astype(g.dtype),)

        return Tensor._make(data, (self,), backward)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mean = self.mean(axis=axis, keepdims=True)
        centered = self - mean
        squared = centered * centered
        return squared.mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)
        source = self

        def backward(grad):
            g = np.asarray(grad)
            expanded = data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
                expanded = np.expand_dims(data, axis=axis)
            mask = source.data == expanded
            # Split gradient evenly between ties, matching numpy semantics of
            # "all maxima participate".
            counts = mask.sum(axis=axis, keepdims=True)
            return (mask * g / counts,)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)
        source_shape = self.shape

        def backward(grad):
            return (grad.reshape(source_shape),)

        return Tensor._make(data, (self,), backward)

    def flatten(self, start_dim: int = 1) -> "Tensor":
        lead = self.shape[:start_dim]
        return self.reshape(*lead, -1)

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        data = self.data.transpose(axes)
        inverse = tuple(np.argsort(axes))

        def backward(grad):
            return (grad.transpose(inverse),)

        return Tensor._make(data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]
        source_shape = self.shape
        source_dtype = self.data.dtype

        def backward(grad):
            full = np.zeros(source_shape, dtype=source_dtype)
            np.add.at(full, index, grad)
            return (full,)

        return Tensor._make(data, (self,), backward)

    def pad2d(self, padding: int | tuple[int, int]) -> "Tensor":
        """Zero-pad the last two (spatial) axes of an NCHW tensor."""
        if isinstance(padding, int):
            ph = pw = padding
        else:
            ph, pw = padding
        if ph == 0 and pw == 0:
            return self
        pad_width = [(0, 0)] * (self.ndim - 2) + [(ph, ph), (pw, pw)]
        data = np.pad(self.data, pad_width)

        def backward(grad):
            slicer = tuple(
                slice(None) for _ in range(self.ndim - 2)
            ) + (slice(ph, grad.shape[-2] - ph), slice(pw, grad.shape[-1] - pw))
            return (grad[slicer],)

        return Tensor._make(data, (self,), backward)

    @staticmethod
    def concatenate(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
        data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(grad):
            pieces = []
            for start, stop in zip(offsets[:-1], offsets[1:]):
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(start, stop)
                pieces.append(grad[tuple(slicer)])
            return tuple(pieces)

        return Tensor._make(data, tuple(tensors), backward)


# ----------------------------------------------------------------------
# factory helpers
# ----------------------------------------------------------------------
def tensor(data, requires_grad: bool = False, dtype=None) -> Tensor:
    """Create a :class:`Tensor` (convenience mirror of the constructor)."""
    return Tensor(data, requires_grad=requires_grad, dtype=dtype)


def zeros(*shape, requires_grad: bool = False, dtype=np.float32) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)


def ones(*shape, requires_grad: bool = False, dtype=np.float32) -> Tensor:
    return Tensor(np.ones(shape, dtype=dtype), requires_grad=requires_grad)


def randn(*shape, rng: np.random.Generator | None = None, requires_grad: bool = False) -> Tensor:
    rng = rng or np.random.default_rng()
    return Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=requires_grad)
