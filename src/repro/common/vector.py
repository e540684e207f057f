"""Optional numpy gate + columnar helpers for vectorized backends.

The batch simulation kernel (:mod:`repro.kernels.batch`) and the
bulk-query helpers in ``mem/`` and ``coherence/``
express their hot work as whole-column array operations.  When numpy
is installed those columns are real ndarrays; when it is not, the
same functions run over plain Python lists with identical results —
no caller ever sees an ``ImportError``.  ``HAVE_NUMPY`` reports which
path is live (published as the ``kernels.batch.numpy`` metric).

This module sits at the bottom of the layering (``repro.common``):
it must import nothing from the simulator so every layer — kernels,
metabit store, coherence — can reach it without cycles.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

try:  # pragma: no cover - exercised indirectly on both paths
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: True when the numpy-accelerated column builders are in use.
HAVE_NUMPY = _np is not None

#: Expose the module (or None) for callers that want raw ndarray ops.
np = _np


def compute_prefix(opcodes: Sequence[int], args: Sequence[int],
                   compute_opcode: int) -> List[int]:
    """Cumulative COMPUTE-cycle sums: ``prefix[i]`` = cycles consumed
    by COMPUTE ops strictly before index ``i`` (length ``n + 1``).

    The batch kernel advances a whole COMPUTE run per quantum with one
    ``bisect_left`` over this column instead of one loop iteration per
    op.  Non-COMPUTE positions contribute zero, so the column is valid
    to bisect across any maximal COMPUTE run.
    """
    n = len(opcodes)
    if HAVE_NUMPY and n:
        opc = _np.asarray(opcodes, dtype=_np.int64)
        arg = _np.asarray(args, dtype=_np.int64)
        prefix = _np.zeros(n + 1, dtype=_np.int64)
        _np.cumsum(_np.where(opc == compute_opcode, arg, 0),
                   out=prefix[1:])
        return prefix.tolist()
    prefix = [0] * (n + 1)
    acc = 0
    for i in range(n):
        if opcodes[i] == compute_opcode:
            acc += args[i]
        prefix[i + 1] = acc
    return prefix


def run_ends(opcodes: Sequence[int],
             members: Tuple[int, ...]) -> List[int]:
    """For every index ``i``: the first ``j >= i`` whose opcode is NOT
    in ``members`` (``n`` when the run extends to the end).

    ``ends[i]`` bounds the maximal run of member ops starting at
    ``i``; positions whose own opcode is not a member get ``i``
    itself, so the column is safe to read at any pc.
    """
    n = len(opcodes)
    if HAVE_NUMPY and n:
        opc = _np.asarray(opcodes, dtype=_np.int64)
        member = _np.zeros(n, dtype=bool)
        for m in members:
            member |= opc == m
        stop = _np.where(member, n, _np.arange(n, dtype=_np.int64))
        ends = _np.minimum.accumulate(stop[::-1])[::-1]
        return ends.tolist()
    ends = [0] * n
    end = n
    for i in range(n - 1, -1, -1):
        if opcodes[i] in members:
            ends[i] = end
        else:
            ends[i] = i
            end = i
    return ends


def state_counts(values: Iterable[int], shift: int, mask: int,
                 num_states: int) -> List[int]:
    """Histogram of ``(v >> shift) & mask`` over ``values``.

    Used for the TokenTM metabit fission/fusion profile: one columnar
    pass over the raw 16-bit metabit words instead of a decode per
    block.
    """
    vals = list(values)
    if HAVE_NUMPY and vals:
        arr = (_np.asarray(vals, dtype=_np.int64) >> shift) & mask
        counts = _np.bincount(arr, minlength=num_states)
        return counts[:num_states].tolist()
    counts = [0] * num_states
    for v in vals:
        state = (v >> shift) & mask
        if state < num_states:
            counts[state] += 1
    return counts


def histogram_dict(labels: Sequence[str],
                   counts: Sequence[int]) -> Dict[str, int]:
    """Zip state labels with their columnar counts."""
    return dict(zip(labels, counts))
