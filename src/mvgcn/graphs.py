"""KNN adjacency construction, symmetric degree renormalization, and the
edge support the learned graph lives on.

Each point's k nearest neighbours come from one row-wise partition of the
distance matrix: every distance below the row's k-th smallest is taken, and
the remaining places go to the entries equal to it, lowest sample index
first. The chosen set is the first k entries of the row's stable argsort,
bit for bit, without sorting any row.

Fusion, refinement and node selection only ever scale entries where some
view is nonzero, so the graphs they produce are carried as edge values on
one ``EdgeSupport``: a 1 x nnz row holding the value of each edge, with
every entry off the support zero.

Refinement, node selection and the Adam update sweep m x m arrays in
blocks of rows (``_row_blocks``). ``_row_runs`` cuts the blocks into at
most two runs of consecutive blocks, at the block boundary nearest the
middle, and ``_in_row_runs`` runs the first in the calling thread and the
second in one worker thread when that thread may have a CPU to itself: the
process may use more than one CPU, its BLAS is set to one thread, and it
is not a child of a parallel sweep's process pool (otherwise both run in
turn in the calling thread). The cut depends on the array's shape only,
and each run writes only its own rows and returns its own results, which
the caller combines in a fixed order, so the bits never depend on the
worker. The worker runs only the package's private helpers and numpy or
scipy calls, and a forked child starts its own on first use.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array
from scipy.spatial.distance import cdist

from .errors import DomainError, ParameterError, ShapeError

METRICS = ("euclidean", "cosine")

# Gathered entries per block of the sampled product, so that a block's rows
# stay in cache: 1.3 against 4.4 ms for the whole array at m=800 and 30
# columns, and no slower at m=200 or at 4 and 64 columns.
_SDDMM_BLOCK_ENTRIES = 1 << 15

# Entries per block of rows when node selection and the Adam update sweep an
# array a block of rows at a time, so that no temporary as large as the whole
# array is allocated: m=200 fits in one block, m=800 runs in 81-row blocks.
# The blocks also set the runs of refinement, node selection and the Adam
# update (``_row_runs``): m=200 makes one run, m=400 two cut at row 163, m=800
# two cut at row 405.
_ROW_BLOCK_ENTRIES = 1 << 16


def _row_blocks(rows: int, cols: int) -> list[slice]:
    """Consecutive slices covering ``rows`` rows of a ``cols``-wide array,
    each holding at most ``_ROW_BLOCK_ENTRIES`` entries but at least one row."""
    step = max(1, _ROW_BLOCK_ENTRIES // max(cols, 1))
    return [slice(start, min(start + step, rows)) for start in range(0, rows, step)]


def _row_runs(rows: int, cols: int) -> list[list[slice]]:
    """The ``_row_blocks`` of a ``rows`` x ``cols`` array as at most two
    runs of consecutive blocks, cut at the block boundary nearest the
    middle (the lower of two equally near). No run holds a single row: a
    one-row matrix product takes other bits than the same row of a larger
    one, so a cut that would leave one is not made."""
    blocks = _row_blocks(rows, cols)
    cuts = [i for i in range(1, len(blocks)) if 2 <= blocks[i].start <= rows - 2]
    if not cuts:
        return [blocks]
    cut = min(cuts, key=lambda i: abs(2 * blocks[i].start - rows))
    return [blocks[:cut], blocks[cut:]]


def _span(run: list[slice]) -> slice:
    """The rows a run of consecutive row blocks covers."""
    return slice(run[0].start, run[-1].stop)


class Buffers:
    """Float64 work arrays that one ``model.train`` call reuses in every
    iteration, each under a key of its own.

    ``array(key, rows, cols)`` gives a C-ordered rows x cols view of the
    key's memory, allocated in the calling thread on the key's first use
    and again only when a larger array is asked for, so from the second
    iteration on every request gets the memory of the first. Freeing these
    arrays between iterations cost page faults instead: glibc trims the
    freed top of the heap, and the next iteration faults it back in.

    The contents are what the key's last user wrote, and no two keys share
    memory. Block scratch that nothing keeps once the call that took it
    returns shares the key ``"scratch"`` (``_with_scratch``), since those
    calls run one after another; an array kept from one call to another
    has a key of its own. Each ``train`` call makes its own: no two calls,
    in one thread or two, share one.
    """

    def __init__(self):
        self._flat: dict = {}

    def array(self, key, rows: int, cols: int) -> np.ndarray:
        size = rows * cols
        flat = self._flat.get(key)
        if flat is None or flat.size < size:
            flat = self._flat[key] = np.empty(size)
        return flat[:size].reshape(rows, cols)


def _work_array(buffers: Buffers | None, key, rows: int, cols: int) -> np.ndarray:
    """``buffers.array(key, rows, cols)``, or a fresh array without ``buffers``."""
    if buffers is None:
        return np.empty((rows, cols))
    return buffers.array(key, rows, cols)


def _with_scratch(
    runs: list[list[slice]], cols: int, count: int, buffers: Buffers | None = None, key="scratch"
) -> list:
    """Each run paired with ``count`` arrays as large as its first (and
    largest) block, ``cols`` wide, to work in: allocated here, in the
    calling thread, so the worker thread's own heap stays small, and taken
    from ``buffers`` under ``key`` when given."""
    out = []
    for r, run in enumerate(runs):
        rows = run[0].stop - run[0].start
        out.append((run, [_work_array(buffers, (key, r, i), rows, cols) for i in range(count)]))
    return out


# the thread variables of OpenBLAS and MKL, and OpenMP's, which either reads
# when its own is unset
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")

_worker: ThreadPoolExecutor | None = None
# False in a parallel sweep's pool child, whose siblings keep the other CPUs
# busy
_own_cpus = True


def _forget_worker() -> None:
    # a forked child inherits the executor but not its thread
    global _worker
    _worker = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def _share_cpus() -> None:
    """Run both row runs in the calling thread from now on: the initializer
    of a parallel sweep's pool children, which share the CPUs among them."""
    global _own_cpus
    _own_cpus = False


def _use_worker() -> bool:
    """Whether the second run may have a CPU to itself: the process may run
    on more than one CPU, is no pool child (``_share_cpus``), and its BLAS
    runs one thread: at least one BLAS thread variable is set, and every
    one that is set reads 1. With none set, OpenBLAS takes every CPU for
    each product, and two concurrent products made an m=800 epoch 5% slower
    on two CPUs."""
    threads = {os.environ.get(name, "").strip() for name in _BLAS_THREAD_VARIABLES}
    if not _own_cpus or threads - {""} != {"1"}:
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


def _in_row_runs(fn, runs: list) -> list:
    """``[fn(run) for run in runs]`` for at most two runs: the first in the
    calling thread and the second in the worker thread when ``_use_worker``
    allows, else both here in turn. An exception of either run is raised
    here once both have ended."""
    global _worker
    if len(runs) < 2 or not _use_worker():
        return [fn(run) for run in runs]
    if _worker is None:
        _worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="mvgcn-rows")
    second = _worker.submit(fn, runs[1])
    try:
        first = fn(runs[0])
    except BaseException:
        second.exception()
        raise
    return [first, second.result()]


@dataclass
class Graph:
    """Dense symmetric non-negative adjacency with a renormalization flag."""

    adjacency: np.ndarray
    renormalized: bool = False

    @property
    def num_nodes(self) -> int:
        return self.adjacency.shape[0]


@dataclass(frozen=True, eq=False)
class EdgeSupport:
    """The entries where any of some m x m matrices, or its transpose, is
    nonzero, in row-major order.

    Edge e is (``rows[e]``, ``cols[e]``), at flat index ``flat[e]`` of an
    m x m array: rows ascend, and columns ascend within a row. ``indptr`` is
    the CSR row pointer, ``twin[e]`` the edge (``cols[e]``, ``rows[e]``),
    which the symmetrized support always holds, and ``views`` each input
    matrix's values on the edges, as 1 x nnz rows.

    ``buffers``, if set, holds the work arrays that refinement and node
    selection reuse in every forward and backward pass on this support
    (``Buffers``). ``model.train`` sets it on the support each call builds
    and runs one pass at a time on it: a refinement gradient lives in its
    buffer until the next forward pass, and selection's backward pass reads
    a block its forward pass left there. Without it, every pass allocates
    its own.
    """

    num_nodes: int
    rows: np.ndarray
    cols: np.ndarray
    flat: np.ndarray
    indptr: np.ndarray
    twin: np.ndarray
    views: tuple
    buffers: Buffers | None = None

    @classmethod
    def of(cls, matrices) -> EdgeSupport:
        arrays = [np.asarray(x, dtype=np.float64) for x in matrices]
        if not arrays:
            raise ParameterError("an edge support needs at least one matrix")
        m = arrays[0].shape[0]
        for x in arrays:
            if x.shape != (m, m):
                raise ShapeError(f"matrix shapes {[x.shape for x in arrays]} are not one square shape")
        nz = arrays[0] != 0
        for x in arrays[1:]:
            nz |= x != 0
        nz |= nz.T
        flat = np.flatnonzero(nz)
        rows, cols = np.divmod(flat, m)
        return cls(
            num_nodes=m,
            rows=rows,
            cols=cols,
            flat=flat,
            indptr=np.searchsorted(rows, np.arange(m + 1)),
            # the k-th smallest transposed index is flat[k], the twin of edge k
            twin=np.argsort(cols * m + rows),
            views=tuple(x.take(flat).reshape(1, -1) for x in arrays),
        )

    @property
    def nnz(self) -> int:
        return self.flat.size

    def gather(self, dense: np.ndarray) -> np.ndarray:
        """The entries of an m x m array at the edges, as a 1 x nnz row."""
        return dense.take(self.flat).reshape(1, -1)

    def densify(self, edges: np.ndarray) -> np.ndarray:
        """The m x m array holding ``edges`` on the support and 0 elsewhere."""
        out = np.zeros((self.num_nodes, self.num_nodes))
        np.put(out, self.flat, edges)
        return out

    def edge_range(self, rows: slice) -> slice:
        """The edges of a run of consecutive rows, as a slice of the edge order."""
        return slice(self.indptr[rows.start], self.indptr[rows.stop])

    def csr(self, edges: np.ndarray, rows: slice | None = None) -> csr_array:
        """Edge values as a sparse m x m matrix, without a sort or a copy of
        the values and columns; with ``rows``, a run of consecutive rows of
        it, built from those rows' edges only."""
        m = self.num_nodes
        rows = slice(0, m) if rows is None else rows
        edge_range = self.edge_range(rows)
        indptr = self.indptr[rows.start : rows.stop + 1] - edge_range.start
        return csr_array(
            (np.ravel(edges)[edge_range], self.cols[edge_range], indptr),
            shape=(rows.stop - rows.start, m),
        )

    def sddmm(self, G: np.ndarray, B: np.ndarray) -> np.ndarray:
        """(G @ B.T) sampled at the edges, as a 1 x nnz row: edge (r, c)
        gets the dot product of row r of G with row c of B."""
        out = np.empty(self.nnz)
        step = max(1, _SDDMM_BLOCK_ENTRIES // B.shape[1])
        for start in range(0, self.nnz, step):
            block = slice(start, start + step)
            out[block] = np.einsum(
                "ij,ij->i",
                G.take(self.rows[block], axis=0),
                B.take(self.cols[block], axis=0),
            )
        return out.reshape(1, -1)


def pairwise_distances(features: np.ndarray, metric: str = "euclidean") -> np.ndarray:
    """All-pairs distance matrix; cosine rows with zero norm are treated as orthogonal."""
    if metric == "euclidean":
        return cdist(features, features, metric="euclidean")
    if metric == "cosine":
        norms = np.linalg.norm(features, axis=1)
        safe = np.where(norms > 0, norms, 1.0)
        unit = features / safe[:, None]
        sim = unit @ unit.T
        return 1.0 - np.clip(sim, -1.0, 1.0)
    raise ParameterError(f"unknown metric {metric!r}, expected one of {METRICS}")


def _smallest_k_mask(values: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask of the k smallest entries of each row, ties to the lower
    column index: the set ``np.argsort(row, kind="stable")[:k]`` picks.

    ``values`` must hold no NaN; -0.0 equals 0.0 and inf equals inf, as in
    the sort.
    """
    kth = np.partition(values, k - 1, axis=1)[:, k - 1 : k]
    below = values < kth
    tied = values == kth
    # the places left after the strictly smaller entries go to the first ties;
    # int32 counts suffice for any row that fits in memory and take about half
    # the time of the default int64 ones
    tied &= np.cumsum(tied, axis=1, dtype=np.int32) <= k - below.sum(axis=1, keepdims=True)
    return below | tied


def build_knn_graph(features: np.ndarray, k: int, metric: str = "euclidean") -> Graph:
    """Binary mutual-max KNN adjacency: an edge i-j exists when either point
    ranks the other among its k nearest. The diagonal stays zero.

    Point i's neighbours are the first k entries of the stable argsort of
    its distance row, so a tie in distance goes to the lower sample index.
    They are read off one row-wise partition without sorting (module
    docstring). Features must be finite.
    """
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeError(f"expected samples-by-features matrix, got shape {X.shape}")
    m = X.shape[0]
    if not 1 <= k < m:
        raise ParameterError(f"k must satisfy 1 <= k < m, got k={k} with m={m}")
    if not np.isfinite(X).all():
        raise DomainError("feature matrix contains non-finite (NaN or inf) entries")

    dist = pairwise_distances(X, metric)
    np.fill_diagonal(dist, np.inf)
    nearest = _smallest_k_mask(dist, k)
    adjacency = (nearest | nearest.T).astype(np.float64)
    return Graph(adjacency=adjacency, renormalized=False)


def renormalize(graph: Graph) -> Graph:
    """Self-loop degree renormalization: with hat(A) = A + I and
    hat(D) its row-sum diagonal, returns hat(D)^-1/2 hat(A) hat(D)^-1/2.
    Rejects graphs that are already renormalized.
    """
    if graph.renormalized:
        raise ParameterError("graph is already renormalized")
    A = np.asarray(graph.adjacency, dtype=np.float64)
    if A.shape[0] != A.shape[1]:
        raise ShapeError(f"adjacency must be square, got shape {A.shape}")
    # exact equality settles the common case without allclose's temporaries;
    # it accepts nothing allclose would refuse (NaN fails both)
    if not (np.array_equal(A, A.T) or np.allclose(A, A.T, atol=1e-12)):
        raise ParameterError("adjacency must be symmetric")
    if np.any(A < 0):
        raise ParameterError("adjacency must be non-negative")

    a_hat = A + np.eye(A.shape[0])
    inv_sqrt_deg = 1.0 / np.sqrt(a_hat.sum(axis=1))
    # np.outer keeps the result bitwise symmetric.
    out = a_hat * np.outer(inv_sqrt_deg, inv_sqrt_deg)
    return Graph(adjacency=out, renormalized=True)
