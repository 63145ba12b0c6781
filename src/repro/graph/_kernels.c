/*
 * Native traversal kernels for repro.graph.engine and repro.graph.msengine,
 * plus the bound-progress reduction repro.core.bounds runs per probe.
 *
 * Built on first use by repro.graph.native (gcc -O2 -shared -fPIC) and
 * called through ctypes, which releases the GIL for the duration of a
 * call.  Each entry point is a line-for-line port of the numpy level
 * loop it replaces and makes the same decisions:
 *
 *   - the same Beamer direction choice before every level (including
 *     the lane engine's m_unsaturated check and its m_checked doubling);
 *   - the same per-level accounting: edges_scanned counts arcs expanded
 *     top-down, edges_inspected adds the full degree of every bottom-up
 *     candidate (even when the probe stops at its first frontier hit),
 *     words_touched is (active + arcs) * words per level.
 *
 * Only the order inside a frontier differs (discovery order instead of
 * ascending ids), which no output depends on.  Distances, run stats and
 * traversal counters are therefore bit-identical to the numpy kernels.
 *
 * Graphs are CSR: indptr is int64[n + 1], indices int32[indptr[n]].
 */

#include <stdint.h>
#include <string.h>

#define UNREACHED (-1)
#define KERNEL_ABI 1

/* Mode codes shared with repro.graph.native. */
#define MODE_HYBRID 0
#define MODE_TOP_DOWN 1
#define MODE_BOTTOM_UP 2

/* Direction codes written per level (0 = "td", 1 = "bu"). */
#define DIR_TD 0
#define DIR_BU 1

int repro_kernels_abi(void) { return KERNEL_ABI; }

/*
 * Single-source direction-optimizing BFS (BFSEngine._run_impl).
 *
 * dist:   int32[n], overwritten (UNREACHED where not reached).
 * queue:  int32[n] scratch; level l occupies one contiguous segment.
 * cand:   int32[n] scratch; the bottom-up candidate list.
 * dirs, sizes: per-level direction code and frontier size (>= n slots).
 * out:    int64[4] = levels, edges_scanned, edges_inspected, visited.
 * limit < 0 means "no level limit".
 */
void repro_bfs(int64_t n, const int64_t *indptr, const int32_t *indices,
               int64_t source, int64_t limit, int mode, double alpha,
               double beta, int32_t *dist, int32_t *queue, int32_t *cand,
               uint8_t *dirs, int64_t *sizes, int64_t *out)
{
    const int hybrid = mode == MODE_HYBRID;
    const double n_over_beta = (double)n / beta;
    int bottom_up = mode == MODE_BOTTOM_UP;
    int64_t head = 0, tail = 1, level = 0, visited = 1;
    int64_t ncand = -1; /* < 0: candidate list not materialised */
    int64_t scanned = 0, inspected = 0;
    int64_t m_frontier = indptr[source + 1] - indptr[source];
    int64_t m_unvisited = indptr[n] - m_frontier;
    int64_t prev_m_frontier = 0;

    memset(dist, 0xff, (size_t)n * sizeof(int32_t));
    dist[source] = 0;
    queue[0] = (int32_t)source;

    while (tail > head) {
        if (limit >= 0 && level >= limit)
            break;
        if (hybrid) {
            if (!bottom_up) {
                if (m_frontier > prev_m_frontier &&
                    (double)m_frontier * alpha > (double)m_unvisited)
                    bottom_up = 1;
            } else if ((double)(tail - head) < n_over_beta) {
                bottom_up = 0;
                ncand = -1;
            }
        }
        int64_t next_tail = tail, arcs = 0, fresh_mass = 0;
        const int32_t next_level = (int32_t)(level + 1);
        if (!bottom_up) {
            for (int64_t i = head; i < tail; ++i) {
                const int32_t u = queue[i];
                const int64_t end = indptr[u + 1];
                arcs += end - indptr[u];
                for (int64_t p = indptr[u]; p < end; ++p) {
                    const int32_t v = indices[p];
                    if (dist[v] == UNREACHED) {
                        dist[v] = next_level;
                        queue[next_tail++] = v;
                        fresh_mass += indptr[v + 1] - indptr[v];
                    }
                }
            }
            scanned += arcs;
        } else {
            if (ncand < 0) {
                ncand = 0;
                for (int64_t v = 0; v < n; ++v)
                    if (dist[v] == UNREACHED && indptr[v + 1] > indptr[v])
                        cand[ncand++] = (int32_t)v;
            }
            const int32_t cur = (int32_t)level;
            int64_t keep = 0;
            for (int64_t j = 0; j < ncand; ++j) {
                const int32_t v = cand[j];
                const int64_t begin = indptr[v], end = indptr[v + 1];
                int found = 0;
                arcs += end - begin;
                for (int64_t p = begin; p < end; ++p) {
                    if (dist[indices[p]] == cur) {
                        found = 1;
                        break;
                    }
                }
                if (found) {
                    dist[v] = next_level;
                    queue[next_tail++] = v;
                    fresh_mass += end - begin;
                } else {
                    cand[keep++] = v;
                }
            }
            ncand = keep;
        }
        inspected += arcs;
        if (next_tail == tail)
            break;
        dirs[level] = bottom_up ? DIR_BU : DIR_TD;
        sizes[level] = next_tail - tail;
        level += 1;
        visited += next_tail - tail;
        prev_m_frontier = m_frontier;
        m_frontier = fresh_mass;
        m_unvisited -= m_frontier;
        head = tail;
        tail = next_tail;
    }
    out[0] = level;
    out[1] = scanned;
    out[2] = inspected;
    out[3] = visited;
}

/*
 * Bit-parallel multi-source BFS (MSBFSEngine._sweep_impl), W uint64
 * lane words per vertex.  Instantiated below for W = 1..4 so every
 * per-vertex word loop has a constant trip count.
 *
 * seen, frontier, next: uint64[n * W] scratch (zeroed here).
 * active, fresh:        int32[n] scratch vertex lists.
 * dist_t:  int32[n * k] vertex-major distances, or NULL to skip them.
 * ecc:     int32[k], the last level each lane reached (0 if none).
 * dirs, live_lanes, sizes: per-level audit (>= n slots).
 * out:     int64[5] = levels, edges_scanned, edges_inspected,
 *          words_touched, reached (cells of dist_t that are set).
 */
static inline __attribute__((always_inline)) void
msbfs_impl(const int W, int64_t n, const int64_t *indptr,
           const int32_t *indices, const int64_t *src, int64_t k,
           int64_t limit, int mode, double alpha, double beta,
           uint64_t *seen, uint64_t *frontier, uint64_t *next,
           int32_t *active, int32_t *fresh, int32_t *dist_t, int32_t *ecc,
           uint8_t *dirs, int64_t *live_lanes, int64_t *sizes, int64_t *out)
{
    const int hybrid = mode == MODE_HYBRID;
    const double n_over_beta = (double)n / beta;
    int bottom_up = mode == MODE_BOTTOM_UP;
    int64_t nactive = 0, level = 0, reached = k;
    int64_t scanned = 0, inspected = 0, words_touched = 0;
    int64_t m_frontier = 0, prev_m_frontier = 0, m_checked = 0;
    uint64_t live[4] = {0, 0, 0, 0};

    memset(seen, 0, (size_t)n * W * sizeof(uint64_t));
    memset(frontier, 0, (size_t)n * W * sizeof(uint64_t));
    memset(next, 0, (size_t)n * W * sizeof(uint64_t));
    if (dist_t != NULL)
        memset(dist_t, 0xff, (size_t)n * k * sizeof(int32_t));
    for (int64_t j = 0; j < k; ++j) {
        const int64_t v = src[j];
        const uint64_t bit = (uint64_t)1 << (j % 64);
        int first = 1;
        for (int w = 0; w < W; ++w)
            if (seen[v * W + w])
                first = 0;
        if (first) {
            active[nactive++] = (int32_t)v;
            m_frontier += indptr[v + 1] - indptr[v];
        }
        seen[v * W + j / 64] |= bit;
        frontier[v * W + j / 64] |= bit;
        live[j / 64] |= bit;
        ecc[j] = 0;
        if (dist_t != NULL)
            dist_t[v * k + j] = 0;
    }
    int64_t m_unvisited = indptr[n] - m_frontier;

    while (nactive > 0) {
        if (limit >= 0 && level >= limit)
            break;
        if (hybrid) {
            if (!bottom_up) {
                if (m_frontier > prev_m_frontier &&
                    (double)m_frontier * alpha > (double)m_unvisited &&
                    (double)nactive >= n_over_beta &&
                    m_frontier > 2 * m_checked) {
                    int64_t m_unsaturated = 0;
                    for (int64_t v = 0; v < n; ++v) {
                        uint64_t missing = 0;
                        for (int w = 0; w < W; ++w)
                            missing |= ~seen[v * W + w] & live[w];
                        if (missing)
                            m_unsaturated += indptr[v + 1] - indptr[v];
                    }
                    if ((double)m_frontier * alpha > (double)m_unsaturated)
                        bottom_up = 1;
                    else
                        m_checked = m_frontier;
                }
            } else if ((double)nactive < n_over_beta) {
                bottom_up = 0;
            }
        }
        int64_t nfresh = 0, arcs = 0;
        if (!bottom_up) {
            for (int64_t i = 0; i < nactive; ++i) {
                const int32_t u = active[i];
                const uint64_t *fu = frontier + (int64_t)u * W;
                const int64_t end = indptr[u + 1];
                arcs += end - indptr[u];
                for (int64_t p = indptr[u]; p < end; ++p) {
                    const int64_t v = indices[p];
                    uint64_t *nv = next + v * W;
                    const uint64_t *sv = seen + v * W;
                    uint64_t was = 0, add = 0;
                    for (int w = 0; w < W; ++w) {
                        const uint64_t bits = fu[w] & ~sv[w];
                        was |= nv[w];
                        add |= bits;
                        nv[w] |= bits;
                    }
                    if (add && !was)
                        fresh[nfresh++] = (int32_t)v;
                }
            }
            scanned += arcs;
        } else {
            for (int64_t v = 0; v < n; ++v) {
                const int64_t begin = indptr[v], end = indptr[v + 1];
                if (begin == end)
                    continue;
                const uint64_t *sv = seen + v * W;
                uint64_t missing[4] = {0, 0, 0, 0}, any = 0;
                for (int w = 0; w < W; ++w) {
                    missing[w] = ~sv[w] & live[w];
                    any |= missing[w];
                }
                if (!any)
                    continue;
                arcs += end - begin;
                uint64_t acc[4] = {0, 0, 0, 0};
                for (int64_t p = begin; p < end; ++p) {
                    const uint64_t *fw = frontier + (int64_t)indices[p] * W;
                    uint64_t short_of = 0;
                    for (int w = 0; w < W; ++w) {
                        acc[w] |= fw[w];
                        short_of |= missing[w] & ~acc[w];
                    }
                    if (!short_of)
                        break; /* every missing live lane found */
                }
                uint64_t hit = 0;
                for (int w = 0; w < W; ++w) {
                    next[v * W + w] = acc[w] & missing[w];
                    hit |= acc[w] & missing[w];
                }
                if (hit)
                    fresh[nfresh++] = (int32_t)v;
            }
        }
        inspected += arcs;
        words_touched += (nactive + arcs) * W;
        if (nfresh == 0)
            break;
        level += 1;
        int64_t lanes = 0;
        for (int w = 0; w < W; ++w)
            lanes += __builtin_popcountll(live[w]);
        dirs[level - 1] = bottom_up ? DIR_BU : DIR_TD;
        live_lanes[level - 1] = lanes;
        sizes[level - 1] = nfresh;
        for (int64_t i = 0; i < nactive; ++i)
            for (int w = 0; w < W; ++w)
                frontier[(int64_t)active[i] * W + w] = 0;
        for (int w = 0; w < W; ++w)
            live[w] = 0;
        int64_t fresh_mass = 0;
        for (int64_t i = 0; i < nfresh; ++i) {
            const int64_t v = fresh[i];
            const int64_t degree = indptr[v + 1] - indptr[v];
            uint64_t was_seen = 0;
            for (int w = 0; w < W; ++w) {
                const uint64_t bits = next[v * W + w];
                next[v * W + w] = 0;
                was_seen |= seen[v * W + w];
                seen[v * W + w] |= bits;
                frontier[v * W + w] = bits;
                live[w] |= bits;
                for (uint64_t b = bits; b; b &= b - 1) {
                    const int64_t lane = w * 64 + __builtin_ctzll(b);
                    ecc[lane] = (int32_t)level;
                    if (dist_t != NULL)
                        dist_t[v * k + lane] = (int32_t)level;
                    reached += 1;
                }
            }
            if (!was_seen)
                m_unvisited -= degree;
            fresh_mass += degree;
        }
        prev_m_frontier = m_frontier;
        m_frontier = fresh_mass;
        int32_t *swap = active;
        active = fresh;
        fresh = swap;
        nactive = nfresh;
    }
    out[0] = level;
    out[1] = scanned;
    out[2] = inspected;
    out[3] = words_touched;
    out[4] = reached;
}

/*
 * Progress of int32 eccentricity bounds (BoundState.progress): returns
 * how many vertices have upper - lower <= tolerance and stores the
 * capped gap mass, the sum of min(upper - lower, cap), in *gap_mass.
 * One pass serves the solver's per-probe resolved count and the gap
 * attribute of traced probes together.
 *
 * Bounds are non-negative, so the int32 difference cannot overflow.
 * The inner loop works on int32 lanes over blocks short enough that
 * the per-block count cannot overflow either; together with O3 (only
 * here) that lets gcc vectorise it.  The pass then costs about half
 * of the numpy count plus gap reduction it replaces.
 */
#define PROGRESS_BLOCK 4096
__attribute__((optimize("O3"))) int64_t
repro_bound_progress(int64_t n, const int32_t *lower, const int32_t *upper,
                     int64_t tolerance, int64_t cap, int64_t *gap_mass)
{
    const int32_t tol = tolerance < INT32_MAX ? (int32_t)tolerance : INT32_MAX;
    const int32_t c = cap < INT32_MAX ? (int32_t)cap : INT32_MAX;
    int64_t resolved = 0, mass = 0;
    for (int64_t start = 0; start < n; start += PROGRESS_BLOCK) {
        const int64_t end =
            n - start < PROGRESS_BLOCK ? n : start + PROGRESS_BLOCK;
        int32_t block_resolved = 0;
        int64_t block_mass = 0;
        for (int64_t i = start; i < end; ++i) {
            const int32_t gap = upper[i] - lower[i];
            block_resolved += gap <= tol;
            block_mass += gap < c ? gap : c;
        }
        resolved += block_resolved;
        mass += block_mass;
    }
    *gap_mass = mass;
    return resolved;
}

/*
 * One out-of-line instance per lane-word count.  Separate functions
 * (rather than four inlined copies in the dispatcher) keep the
 * compiler's peak memory near that of one instance, which matters
 * when the first-use build runs inside a short-lived CLI process.
 */
#define MSBFS_WIDTH(W)                                                    \
    static __attribute__((noinline)) void msbfs_w##W(                     \
        int64_t n, const int64_t *indptr, const int32_t *indices,         \
        const int64_t *src, int64_t k, int64_t limit, int mode,           \
        double alpha, double beta, uint64_t *seen, uint64_t *frontier,    \
        uint64_t *next, int32_t *active, int32_t *fresh, int32_t *dist_t, \
        int32_t *ecc, uint8_t *dirs, int64_t *live_lanes, int64_t *sizes, \
        int64_t *out)                                                     \
    {                                                                     \
        msbfs_impl(W, n, indptr, indices, src, k, limit, mode, alpha,     \
                   beta, seen, frontier, next, active, fresh, dist_t, ecc, \
                   dirs, live_lanes, sizes, out);                         \
    }
MSBFS_WIDTH(1)
MSBFS_WIDTH(2)
MSBFS_WIDTH(3)
MSBFS_WIDTH(4)

/* Lane sweep entry point; returns -1 for an unsupported word count. */
int repro_msbfs(int64_t words, int64_t n, const int64_t *indptr,
                const int32_t *indices, const int64_t *src, int64_t k,
                int64_t limit, int mode, double alpha, double beta,
                uint64_t *seen, uint64_t *frontier, uint64_t *next,
                int32_t *active, int32_t *fresh, int32_t *dist_t,
                int32_t *ecc, uint8_t *dirs, int64_t *live_lanes,
                int64_t *sizes, int64_t *out)
{
#define MSBFS_CASE(W)                                                     \
    case W:                                                               \
        msbfs_w##W(n, indptr, indices, src, k, limit, mode, alpha, beta,  \
                   seen, frontier, next, active, fresh, dist_t, ecc,      \
                   dirs, live_lanes, sizes, out);                         \
        return 0;
    switch (words) {
        MSBFS_CASE(1)
        MSBFS_CASE(2)
        MSBFS_CASE(3)
        MSBFS_CASE(4)
    default:
        return -1;
    }
#undef MSBFS_CASE
}
