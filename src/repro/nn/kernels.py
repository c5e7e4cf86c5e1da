"""Forward-sweep kernels: gather projections and inference-mode LSTM loops.

The extraction hot path (``model.hidden_states`` under a cold cache) spends
its time in places the training-oriented layer code never optimized: a
dense one-hot matmul that multiplies mostly zeros, a masked stable sigmoid
whose boolean fancy indexing costs ~10x the arithmetic it guards, per-step
history buffers (``cs``/``gates``) nobody reads at inference time, and gate
arithmetic on strided slices of a ``(batch, 4h)`` row.  This module
provides drop-in kernels for each, all **bit-identical** to the layer
implementations they replace:

* :func:`gather_projection` -- ``onehot(ids) @ W + b`` as a row gather of
  the pre-biased table ``W + b``.  A one-hot row's dot product with a
  weight column touches exactly one nonzero term, so the gather returns
  the same bits the matmul would (the pre-bias add is the same elementwise
  ``+ b`` the projection applies, just hoisted out of the batch).
* :func:`sigmoid` / :func:`sigmoid_into` -- the numerically stable sigmoid
  in branch-free form, ``num / (1 + e)`` with ``e = exp(-|x|)`` and
  ``num = max(x >= 0, e)``.  One ``exp`` serves both halves: the numerator
  is exactly ``1.0`` where ``x >= 0`` (``e <= 1``) and exactly ``e ==
  exp(x)`` where ``x < 0``, so every finite (and infinite) input produces
  the same bits as the masked two-branch form; only the sign of a NaN
  *payload* for NaN inputs may differ, which ``==`` cannot observe.
* :func:`lstm_sweep` -- the LSTM recurrence with preallocated scratch,
  in-place ``sigmoid``/``tanh`` and no gate or cell history.  Each step's
  gates live in one contiguous ``(4, batch, h)`` block, so the sigmoid
  over ``i|f|o``, the ``tanh`` of ``g`` and the cell update all run on
  contiguous memory.  The add that builds that block reads the recurrent
  product ``h_prev @ w_h`` gate-interleaved, as the ``(batch, 4h)`` GEMM
  lays it out, and step ``t`` of the dense input projection through a
  step-major view of its ``(batch, time, 4h)`` layout.  The product stays
  that one GEMM on purpose: BLAS sums a GEMM in a shape-dependent order,
  and only the training loop's own ``(batch, h) @ (h, 4h)`` shape is
  guaranteed to sum the same way on every BLAS kernel (a per-gate ``(4,
  h, h)`` split matches on some CPUs, not all).  Elementwise ops are
  applied in the training loop's evaluation order (IEEE addition is
  commutative bitwise on non-NaN values), so the hidden-state sequence
  matches the training forward pass bit for bit.
* :func:`lstm_sweep_ids` -- the same loop on integer ids, with no
  ``(batch, time, 4h)`` projection at all: the pre-biased table is copied
  gate-major to ``(4, vocab, h)`` once, and each step takes its ``(4,
  batch, h)`` gate block from it into the gate scratch with one unbuffered
  ``np.take`` (ids range-checked once per sweep, as ``table[ids]`` would).
  The rows taken are :func:`gather_projection`'s rows, so the recurrent
  product is the one strided operand left and the bits are
  ``lstm_sweep(gather_projection(ids, w_x, b), w_h, h)``'s.

Scratch buffers are allocated per call: they are small next to the sweep
itself, and per-call allocation keeps the kernels thread-safe for the
pipeline's pool-thread sweeps (one per extraction pair of a block).
"""

from __future__ import annotations

import numpy as np


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function, branch-free.

    Bit-identical to the masked form ``where(x >= 0, 1/(1+exp(-x)),
    exp(x)/(1+exp(x)))`` on finite and infinite inputs (see module
    docstring), roughly 4x faster because no boolean fancy indexing runs.
    """
    return sigmoid_into(x, np.empty_like(x))


def sigmoid_into(x: np.ndarray, out: np.ndarray,
                 scratch: tuple[np.ndarray, np.ndarray] | None = None
                 ) -> np.ndarray:
    """Allocation-free :func:`sigmoid`: writes into ``out``.

    ``scratch`` is a float array shaped/typed like ``x`` and a bool array
    of the same shape (allocated on demand when omitted).  ``out`` may
    alias ``x``; the scratch arrays may not alias either.
    """
    if scratch is None:
        scratch = (np.empty_like(x), np.empty(x.shape, dtype=bool))
    e, nonneg = scratch
    np.greater_equal(x, 0.0, out=nonneg)
    np.abs(x, out=e)                   # abs + negative: the same bits as
    np.negative(e, out=e)              # copysign(x, -1), at a third the cost
    np.exp(e, out=e)                   # e = exp(-|x|)
    np.maximum(nonneg, e, out=out)     # 1 where x >= 0, else exp(x)
    np.add(e, 1.0, out=e)
    np.divide(out, e, out=out)
    return out


def gather_projection(ids: np.ndarray, weight: np.ndarray,
                      bias: np.ndarray | None = None) -> np.ndarray:
    """``onehot(ids) @ weight (+ bias)`` as a bit-identical row gather.

    ``ids`` is any integer index array; the result has shape
    ``ids.shape + (weight.shape[1],)`` and the weights' dtype.  With a
    bias, the table is pre-biased once (``weight + bias`` is the same
    elementwise add the projection would apply per row) so the gather
    already carries it.
    """
    table = weight if bias is None else weight + bias
    return table[ids]


def lstm_sweep(x_proj: np.ndarray, w_h: np.ndarray, n_units: int,
               h0: np.ndarray | None = None,
               c0: np.ndarray | None = None) -> np.ndarray:
    """Inference-only LSTM recurrence over a pre-projected input.

    ``x_proj`` is the biased input projection ``(batch, time, 4h)`` (gate
    order i, f, o, g -- the layout :class:`repro.nn.recurrent.LSTM` uses);
    returns the hidden-state sequence ``(batch, time, h)``, bit-identical
    to the training loop's ``hs``, without materializing gate or cell
    history and without allocating inside the time loop.  The loop reads
    ``x_proj`` through a step-major ``(time, 4, batch, h)`` *view*: a
    transposing copy would cost more than the strided per-step reads it
    saves.
    """
    batch, time, four_h = x_proj.shape
    assert four_h == 4 * n_units, "x_proj width must be 4 * n_units"
    steps = x_proj.reshape(batch, time, 4, n_units).transpose(1, 2, 0, 3)
    return _recurrence(steps, None, w_h, batch, time, h0, c0)


def lstm_sweep_ids(ids: np.ndarray, w_x: np.ndarray, bias: np.ndarray,
                   w_h: np.ndarray, h0: np.ndarray | None = None,
                   c0: np.ndarray | None = None) -> np.ndarray:
    """:func:`lstm_sweep` over ``gather_projection(ids, w_x, bias)``, bit
    for bit, without building that ``(batch, time, 4h)`` projection (see
    the module docstring).  Ids are range-checked once, as ``table[ids]``
    would, so each step's take can run unbuffered in ``"wrap"`` mode."""
    vocab, four_h = w_x.shape
    batch, time = ids.shape
    if ids.size and (ids.min() < -vocab or ids.max() >= vocab):
        raise IndexError(f"ids out of bounds for a table of {vocab} rows")
    table = np.ascontiguousarray(
        (w_x + bias).reshape(vocab, 4, four_h // 4).transpose(1, 0, 2))
    step_ids = ids.T.astype(np.intp)   # (time, batch), one row per step
    return _recurrence(table, step_ids, w_h, batch, time, h0, c0)


def _recurrence(source: np.ndarray, step_ids: np.ndarray | None,
                w_h: np.ndarray, batch: int, time: int,
                h0: np.ndarray | None,
                c0: np.ndarray | None) -> np.ndarray:
    """The one inference loop behind both sweeps.  Step ``t``'s input
    gates are ``source[t]`` (a step-major ``(time, 4, batch, h)`` view)
    when ``step_ids`` is None, else ``source[:, step_ids[t]]`` (a
    gate-major ``(4, vocab, h)`` table)."""
    h = w_h.shape[0]
    dtype = source.dtype
    hs = np.empty((batch, time, h), dtype=dtype)

    zw = np.empty((batch, 4 * h), dtype=dtype)
    z = np.empty((4, batch, h), dtype=dtype)
    scratch = (np.empty((3, batch, h), dtype=dtype),
               np.empty((3, batch, h), dtype=bool))
    c = (np.zeros((batch, h), dtype=dtype) if c0 is None
         else c0.astype(dtype, copy=True))
    hbuf = (np.zeros((batch, h), dtype=dtype) if h0 is None
            else h0.astype(dtype, copy=True))
    i, f, o, g = z
    zw_gates = zw.reshape(batch, 4, h).transpose(1, 0, 2)

    for t in range(time):
        np.matmul(hbuf, w_h, out=zw)
        if step_ids is None:
            np.add(zw_gates, source[t], out=z)   # x_proj + h @ w_h, commuted
        else:
            np.take(source, step_ids[t], axis=1, out=z, mode="wrap")
            np.add(z, zw_gates, out=z)
        # one fused sigmoid over the i|f|o block: elementwise, so the bits
        # match three per-gate calls
        sigmoid_into(z[:3], z[:3], scratch)
        np.tanh(g, out=g)
        np.multiply(f, c, out=c)       # c = f * c_prev + i * g,
        np.multiply(i, g, out=g)       # in the training loop's order
        c += g
        np.tanh(c, out=hbuf)
        np.multiply(o, hbuf, out=hbuf)  # h = o * tanh(c)
        hs[:, t] = hbuf
    return hs
