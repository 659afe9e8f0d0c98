"""Faults planted in freshly built modules and lattices.

Built modules and lattices are shared through the builders' memos, so
each helper here changes its argument in place and must only be given an
object built under the fresh_modules fixture.
"""

import numpy as np

from pbwdeg.exactla import _pack_rows
from pbwdeg.weylmod import BlockOp


def inject_fault(mod, kind, beta, k, row, col, delta):
    """Add delta to one entry of the operator op(kind, beta, k) that mod
    stores, the one op() and the filtration read.  An entry that sends a
    weight block into a second target block has no block form
    (IntegrityError)."""
    rows, cols, vals = mod.op(kind, beta, k).coo()
    hit = (rows == row) & (cols == col)
    rows, cols = np.append(rows[~hit], row), np.append(cols[~hit], col)
    vals = np.append(vals[~hit], (int(vals[hit].sum()) + delta) % mod.p)
    keep = vals != 0
    mod._ops[(kind, beta, k)] = BlockOp(
        mod.layout, mod.p, mod.layout.group(rows[keep], cols[keep],
                                            vals[keep]))


def shrink_weight_space(lat, weight, scale):
    """Scale the basis of one weight space of lat, which then spans a
    sublattice of the weight space it had."""
    for row in lat._by_weight[weight].final.rows:
        for col in row:
            row[col] *= scale


def set_block_rows(blk, rows):
    """Give a weight block of a module the int64 rows rows, in the form
    the block keeps them: int bitsets over F_2, the matrix otherwise."""
    blk.basis = _pack_rows(rows, blk.p)
