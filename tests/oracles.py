"""Independent scalar-loop reference implementations.

Everything here is written with explicit Python loops and ``math`` so the
tests never share a code path with the vectorized implementations they check.
"""

import math


def softmax_row(xs):
    m = max(xs)
    exps = [math.exp(x - m) for x in xs]
    total = sum(exps)
    return [e / total for e in exps]


def euclidean(p, q):
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(p, q)))


def cosine_distance(p, q):
    np_ = math.sqrt(sum(a * a for a in p))
    nq = math.sqrt(sum(b * b for b in q))
    if np_ == 0 or nq == 0:
        return 1.0
    sim = sum(a * b for a, b in zip(p, q)) / (np_ * nq)
    return 1.0 - max(-1.0, min(1.0, sim))


def knn_edge_set(points, k, metric="euclidean"):
    """Mutual-max KNN edges via exhaustive pairwise distances."""
    dist_fn = euclidean if metric == "euclidean" else cosine_distance
    m = len(points)
    directed = set()
    for i in range(m):
        ranked = sorted(
            (j for j in range(m) if j != i),
            key=lambda j: (dist_fn(points[i], points[j]), j),
        )
        for j in ranked[:k]:
            directed.add((i, j))
    return {(i, j) for i, j in directed} | {(j, i) for i, j in directed}


def renormalize_dense(A):
    """Degree renormalization with an explicitly built diagonal matrix."""
    m = len(A)
    a_hat = [[A[i][j] + (1.0 if i == j else 0.0) for j in range(m)] for i in range(m)]
    deg = [sum(a_hat[i][j] for j in range(m)) for i in range(m)]
    d_inv_sqrt = [[0.0] * m for _ in range(m)]
    for i in range(m):
        d_inv_sqrt[i][i] = 1.0 / math.sqrt(deg[i])
    left = matmul(d_inv_sqrt, a_hat)
    return matmul(left, d_inv_sqrt)


def matmul(A, B):
    rows, inner, cols = len(A), len(B), len(B[0])
    out = [[0.0] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            s = 0.0
            for t in range(inner):
                s += A[i][t] * B[t][j]
            out[i][j] = s
    return out


def transpose(A):
    return [[A[i][j] for i in range(len(A))] for j in range(len(A[0]))]


def fusion_chain(adjacencies, raw_weights):
    """Two-stage fusion: softmax weights, complementary graphs, importance,
    and the merged adjacency, all by naive accumulation."""
    V = len(adjacencies)
    m = len(adjacencies[0])
    W = [softmax_row(row) for row in raw_weights]
    complementary = []
    for v in range(V):
        acc = [[0.0] * m for _ in range(m)]
        for i in range(V):
            for r in range(m):
                for c in range(m):
                    acc[r][c] += W[v][i] * adjacencies[i][r][c]
        complementary.append(acc)
    alpha = [sum(W[v][i] for v in range(V)) for i in range(V)]
    total = sum(alpha)
    alpha = [a / total for a in alpha]
    fused = [[0.0] * m for _ in range(m)]
    for i in range(V):
        for r in range(m):
            for c in range(m):
                fused[r][c] += alpha[i] * complementary[i][r][c]
    return W, complementary, alpha, fused


def refine_score(S1, S2):
    """The antisymmetric score M[i][j] = sum_t S1[i][t] S2[j][t] - S2[i][t] S1[j][t]."""
    m = len(S1)
    M = [[0.0] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            s = 0.0
            for t in range(len(S1[0])):
                s += S1[i][t] * S2[j][t] - S2[i][t] * S1[j][t]
            M[i][j] = s
    return M


def refine(A_f, S1, S2, gamma):
    """Shrinkage mask sigmoid(gamma * |S1 S2^T - S2 S1^T|) applied entrywise."""
    m = len(A_f)
    M = refine_score(S1, S2)
    out = [[0.0] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            mask = 1.0 / (1.0 + math.exp(-gamma * abs(M[i][j])))
            out[i][j] = A_f[i][j] * mask
    return out


def refine_gradients(A_f, S1, S2, gamma, R):
    """Gradients of sum_ij R[i][j] * refine(A_f, S1, S2, gamma)[i][j] with
    respect to A_f, S1 and S2, entry by entry from the definition
    A_f[i][j] * sigmoid(gamma * |M[i][j]|) with M = refine_score(S1, S2).
    The subgradient of |.| at 0 is 0."""
    m, r = len(A_f), len(S1[0])
    M = refine_score(S1, S2)
    dA = [[0.0] * m for _ in range(m)]
    G = [[0.0] * m for _ in range(m)]  # d loss / d M[i][j]
    for i in range(m):
        for j in range(m):
            mask = 1.0 / (1.0 + math.exp(-gamma * abs(M[i][j])))
            sign = (M[i][j] > 0.0) - (M[i][j] < 0.0)
            dA[i][j] = R[i][j] * mask
            G[i][j] = R[i][j] * A_f[i][j] * mask * (1.0 - mask) * gamma * sign
    # S1[i][t] enters M[i][j] as S1[i][t] S2[j][t] and M[j][i] as
    # -S2[j][t] S1[i][t]; S2[i][t] enters M[j][i] and M[i][j] likewise
    dS1 = [[0.0] * r for _ in range(m)]
    dS2 = [[0.0] * r for _ in range(m)]
    for i in range(m):
        for t in range(r):
            for j in range(m):
                dS1[i][t] += (G[i][j] - G[j][i]) * S2[j][t]
                dS2[i][t] += (G[j][i] - G[i][j]) * S1[j][t]
    return dA, dS1, dS2


def column_mean_nonzero(A):
    m, n = len(A), len(A[0])
    out = []
    for j in range(n):
        total, count = 0.0, 0
        for i in range(m):
            total += A[i][j]
            if A[i][j] != 0.0:
                count += 1
        out.append(total / count if count else 0.0)
    return out


def pairwise_diff(a):
    return [[abs(x - y) for y in a] for x in a]


def neuralsort_matrix(a_s, tau):
    """Temperature-relaxed sorting permutation, row by row."""
    m = len(a_s)
    delta = pairwise_diff(a_s)
    delta_row_sums = [sum(delta[i]) for i in range(m)]
    P = []
    for i in range(1, m + 1):
        logits = [((m + 1 - 2 * i) * a_s[j] - delta_row_sums[j]) / tau for j in range(m)]
        P.append(softmax_row(logits))
    return P


def dcg_scores(P):
    scores = []
    for row in P:
        s = 0.0
        for j, p in enumerate(row, start=1):
            s += (2.0**p - 1.0) / math.log2(j + 1)
        scores.append(s)
    return scores


def minmax_normalize(values):
    lo, hi = min(values), max(values)
    if hi == lo:
        return [0.5] * len(values)
    return [(v - lo) / (hi - lo) for v in values]


def confidence_coefficients(ibar):
    return [[(a + b) / 2.0 for b in ibar] for a in ibar]


def select_edges(A_hat, C, theta):
    """Threshold-gate the coefficients, rescale by their max, apply entrywise."""
    m = len(A_hat)
    gated = [[max(C[i][j] - theta, 0.0) for j in range(m)] for i in range(m)]
    peak = max(max(row) for row in gated)
    if peak == 0.0:
        return [row[:] for row in A_hat]
    return [[A_hat[i][j] * gated[i][j] / peak for j in range(m)] for i in range(m)]


def topk_rows(A, k):
    """Keep the k largest entries per row (ties to the lower column index)."""
    m, n = len(A), len(A[0])
    out = [[0.0] * n for _ in range(m)]
    for i in range(m):
        order = sorted(range(n), key=lambda j: (-A[i][j], j))
        for j in order[:k]:
            out[i][j] = A[i][j]
    return out


def gcn_layer(A, H, W, activation="none"):
    prod = matmul(matmul(A, H), W)
    if activation == "relu":
        return [[max(x, 0.0) for x in row] for row in prod]
    if activation == "softmax":
        return [softmax_row(row) for row in prod]
    return prod


def masked_cross_entropy(Z, Y, labeled, eps=1e-12):
    loss = 0.0
    for i in labeled:
        for j in range(len(Z[0])):
            loss -= Y[i][j] * math.log(max(Z[i][j], eps))
    return loss


def adam_trajectory(grads, lr, beta1=0.9, beta2=0.999, eps=1e-8, x0=0.0):
    """Scalar Adam recurrence, returning the iterates after each step."""
    x, m, v = x0, 0.0, 0.0
    out = []
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        x = x - lr * m_hat / (math.sqrt(v_hat) + eps)
        out.append(x)
    return out


def accuracy_count(Z, labels, mask):
    correct = 0
    for i in mask:
        row = Z[i]
        best, best_j = row[0], 0
        for j in range(1, len(row)):
            if row[j] > best:
                best, best_j = row[j], j
        if best_j == labels[i]:
            correct += 1
    return correct / len(mask)
