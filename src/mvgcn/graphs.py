"""KNN adjacency construction, symmetric degree renormalization, and the
edge support the learned graph lives on.

Each point's k nearest neighbours come from one row-wise partition of the
distance matrix: every distance below the row's k-th smallest is taken, and
the remaining places go to the entries equal to it, lowest sample index
first. The chosen set is the first k entries of the row's stable argsort,
bit for bit, without sorting any row. Each graph is carried as its edges
(``Graph``), never as an m x m float array.

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


@dataclass(frozen=True, eq=False)
class Graph:
    """A symmetric non-negative m x m adjacency as its edges, with a
    renormalization flag: ``flat`` holds the row-major flat indices
    (row * m + col) of its entries in ascending order and ``values`` their
    values, the layout of ``EdgeSupport.flat``; every other entry is zero."""

    num_nodes: int
    flat: np.ndarray
    values: np.ndarray
    renormalized: bool = False


@dataclass(frozen=True, eq=False)
class EdgeSupport:
    """The edges of some graphs and their twins, in row-major order
    (``fusion.edge_support``).

    Edge e is (``rows[e]``, ``cols[e]``), at flat index ``flat[e]`` of an
    m x m array: rows ascend, and columns ascend within a row. ``indptr`` is
    the CSR row pointer, ``twin[e]`` the edge (``cols[e]``, ``rows[e]``),
    which the symmetrized support always holds, and ``views`` each input
    graph's values on the edges, as 1 x nnz rows.

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
        dist = unit @ unit.T  # clipped and subtracted in place: one m x m array
        return np.subtract(1.0, np.clip(dist, -1.0, 1.0, out=dist), out=dist)
    raise ParameterError(f"unknown metric {metric!r}, expected one of {METRICS}")


def _smallest_k_mask(values: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask of the k smallest entries of each row, ties to the lower
    column index: the set ``np.argsort(row, kind="stable")[:k]`` picks.

    ``values`` must hold no NaN; -0.0 equals 0.0 and inf equals inf, as in
    the sort.
    """
    kth = np.partition(values, k - 1, axis=1)[:, k - 1 : k].copy()  # frees the partition
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
    docstring) and symmetrized on an m x m bool mask. Features must be finite.
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
    flat = np.flatnonzero(nearest | nearest.T)
    return Graph(m, flat, np.ones(flat.size))


def _column_order(cols: np.ndarray, num_nodes: int) -> np.ndarray:
    """A row-major edge list's edges in column-major order, by a stable sort
    on the column (numpy radix-sorts 16-bit keys)."""
    return np.argsort(cols.astype(np.uint16) if num_nodes <= 1 << 16 else cols, kind="stable")


def _first_misplaced_edge(flat: np.ndarray, num_nodes: int) -> int | None:
    """The first edge of an edge list that lies outside m x m or does not
    come after the edge before it, or None: ``flat`` must ascend strictly,
    as ``Graph.flat`` does. A strictly ascending list is in range if its
    ends are, so the common case is settled without flagging every edge."""
    rising = flat[1:] > flat[:-1]
    if flat.size == 0 or (rising.all() and flat[0] >= 0 and flat[-1] < num_nodes * num_nodes):
        return None
    flags = (flat < 0) | (flat >= num_nodes * num_nodes)
    flags[1:] |= ~rising
    return int(flags.argmax())


def _check_edges(graph: Graph, owner: str) -> None:
    """Refuses a graph whose edges are not a 1-D integer array with one
    value each, or are misplaced (``_first_misplaced_edge``), naming
    ``owner`` and the first misplaced edge as (row, col)."""
    m, flat = graph.num_nodes, graph.flat
    if flat.ndim != 1 or flat.dtype.kind not in "iu" or np.shape(graph.values) != flat.shape:
        raise ShapeError(
            f"{owner}: edges must be a 1-D integer array with one value each, got "
            f"{flat.dtype} {flat.shape} edges and {np.shape(graph.values)} values"
        )
    e = _first_misplaced_edge(flat, m)
    if e is not None:
        raise ParameterError(
            f"{owner} edge {divmod(int(flat[e]), m)} is out of row-major order or outside {m} x {m}"
        )


def _asymmetric_edges(flat, values, num_nodes: int, atol=0.0, rtol=0.0) -> np.ndarray:
    """Flags the edges of a sorted edge list whose twin (col, row) holds
    another value, beyond ``atol + rtol * |twin value|`` as ``np.isclose``
    measures it (with neither, any other value); a missing twin holds 0."""
    rows, cols = np.divmod(flat, num_nodes)
    twin_flat = cols * num_nodes + rows
    # in column-major order the twins' indices ascend, and a search for
    # ascending keys runs several times faster than for keys in edge order
    order = _column_order(cols, num_nodes)
    twin = np.empty_like(order)
    twin[order] = np.searchsorted(flat, twin_flat[order])
    found = flat.take(twin, mode="clip") == twin_flat
    twin_values = np.where(found, values.take(twin, mode="clip"), 0.0)
    gap = np.abs(values - twin_values)
    return ~((values == twin_values) | (gap <= atol + rtol * np.abs(twin_values)))


def renormalize(graph: Graph) -> Graph:
    """Self-loop degree renormalization: with hat(A) = A + I and hat(D) its
    row-sum diagonal, hat(D)^-1/2 hat(A) hat(D)^-1/2 on the edges of hat(A).
    Refuses a renormalized graph, and names the first edge out of order
    (``_check_edges``), NaN, without a twin of the same value
    (``np.isclose`` with atol 1e-12), or negative. A binary graph's degrees
    are integers, exact in any order, so its values have the bits of the
    m x m formula."""
    if graph.renormalized:
        raise ParameterError("graph is already renormalized")
    _check_edges(graph, "adjacency")
    m, flat, values = graph.num_nodes, graph.flat, np.asarray(graph.values, dtype=np.float64)
    for flags, what in (
        (np.isnan(values), "is NaN"),
        (_asymmetric_edges(flat, values, m, 1e-12, 1e-5), "has no twin with the same value"),
        (values < 0, "is negative"),
    ):
        flagged = np.flatnonzero(flags)
        if flagged.size:
            raise ParameterError(f"adjacency edge {divmod(int(flat[flagged[0]]), m)} {what}")

    diagonal = np.arange(m) * (m + 1)
    at = np.searchsorted(flat, diagonal)
    missing = np.searchsorted(flat, diagonal, side="right") == at
    flat = np.insert(flat, at[missing], diagonal[missing])
    a_hat = np.insert(values, at[missing], 0.0)
    a_hat[np.searchsorted(flat, diagonal)] += 1.0
    rows, cols = np.divmod(flat, m)
    inv_sqrt_deg = 1.0 / np.sqrt(np.bincount(rows, weights=a_hat, minlength=m))
    # inv[r] * inv[c] is the entry of np.outer(inv, inv): bitwise symmetric
    return Graph(m, flat, a_hat * (inv_sqrt_deg[rows] * inv_sqrt_deg[cols]), renormalized=True)
