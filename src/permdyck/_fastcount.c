/* Compiled kernels: occurrence counting, the encoder primitives, the
 * decoder primitive and the bounded census.  permdyck.kernels states their
 * contract and the hand-over to permdyck._purecount.
 *
 * count_pair and histogram_pair both build a permutation left to right and
 * carry the state of the bounded census (permdyck.census): for every
 * unplaced value u, in increasing order,
 *
 *   above(u)   the number of placed values greater than u,
 *   two312(u)  the pairs of placed entries that u, placed later, completes
 *              to a (3,1,2)-occurrence, and two321(u) likewise for (3,2,1).
 *
 * Placing v adds two312(v) and two321(v) to the running counts; then every
 * u < v gains 1 in above(u) and above(v) in two321(u) (a pair a > v > u),
 * and every u > v gains above(u) in two312(u) (a pair a > u > v).
 * count_pair places every entry of its permutation (place_prefix).
 * histogram_pair places its prefix the same way, then walks the tree of
 * the remaining placements depth first; with one value left, a
 * permutation's counts are read off in O(1).  Every prefix is shared by the
 * permutations below it, so a sweep costs O(1) per permutation, touches no
 * Python object and runs with the interpreter lock released.
 *
 * heights_321 is derived from the (3,1,2) heights rather than counted:
 * h321_i = h312_m - (i - m) - h312_i for an entry i that is not a
 * left-to-right maximum, m being the preceding maximum (see
 * permdyck.perms.heights_321).
 *
 * bounded_census runs the layers of the bounded census with its own code
 * (below) and the interpreter lock released, for n_max <= 34: its counts
 * are unsigned __int128 (GCC and Clang on 64-bit targets), and 34! <
 * 2^128.  It returns None above that, and permdyck._purecount runs them.
 *
 * Written directly against the CPython C API; build it in place with
 *     python setup.py build_ext --inplace
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <stdint.h>
#include <string.h>

/* Stack arrays are sized for n <= MAXN; 20! still fits a long long bin. */
#define MAXN 20
#define MAX_HIST (MAXN * (MAXN - 1) * (MAXN - 2) / 6 + 1)

/* The census state of one unplaced value. */
typedef struct {
    int above, two312, two321;
} slot;

/* Place the value in s[i] (of m unplaced values): write the other m - 1
 * states, updated, to out, which may be s itself. */
static void
place(const slot *s, int m, int i, slot *out)
{
    int av = s[i].above;
    for (int j = 0; j < i; j++) {
        out[j].above = s[j].above + 1;
        out[j].two312 = s[j].two312;
        out[j].two321 = s[j].two321 + av;
    }
    for (int j = i + 1; j < m; j++) {
        out[j - 1].above = s[j].above;
        out[j - 1].two312 = s[j].two312 + s[j].above;
        out[j - 1].two321 = s[j].two321;
    }
}

/* Place p[0 .. q) into the empty state of n values: leave the state of the
 * n - q unplaced values in s and the occurrences among the placed entries
 * in *c312 and *c321. */
static void
place_prefix(const int *p, int q, int n, slot *s, int *c312, int *c321)
{
    memset(s, 0, n * sizeof *s);
    *c312 = *c321 = 0;
    for (int k = 0; k < q; k++) {
        /* p[k]'s index among the unplaced values: those below it, less the
         * placed ones */
        int i = p[k] - 1;
        for (int j = 0; j < k; j++)
            i -= p[j] < p[k];
        *c312 += s[i].two312;
        *c321 += s[i].two321;
        place(s, n - k, i, s);
    }
}

/* Add every completion of the state s (m unplaced values, counts c312 and
 * c321 so far) to the histograms. */
static void
walk(const slot *s, int m, int c312, int c321, long long *h312, long long *h321)
{
    if (m <= 1) {
        if (m == 1) {
            c312 += s[0].two312;
            c321 += s[0].two321;
        }
        h312[c312]++;
        h321[c321]++;
        return;
    }
    slot child[MAXN];
    for (int i = 0; i < m; i++) {
        place(s, m, i, child);
        walk(child, m - 1, c312 + s[i].two312, c321 + s[i].two321, h312, h321);
    }
}

static PyObject *
hist_to_list(const long long *hist, int size)
{
    PyObject *list = PyList_New(size);
    if (list == NULL)
        return NULL;
    for (int r = 0; r < size; r++) {
        PyObject *count = PyLong_FromLongLong(hist[r]);
        if (count == NULL) {
            Py_DECREF(list);
            return NULL;
        }
        PyList_SET_ITEM(list, r, count);
    }
    return list;
}

/* Read a tuple or list of distinct ints in 1..top, top <= MAXN, into p; a
 * negative top stands for the length, so that only a permutation of 1..n
 * reads.  Returns the length, or -1 for anything else (no exception set). */
static Py_ssize_t
read_perm(PyObject *obj, int *p, Py_ssize_t top)
{
    if (!PyTuple_Check(obj) && !PyList_Check(obj))
        return -1;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(obj);
    PyObject **items = PySequence_Fast_ITEMS(obj);
    char used[MAXN + 1] = {0};
    if (top < 0)
        top = n;
    if (n > top || top > MAXN)
        return -1;
    for (Py_ssize_t i = 0; i < n; i++) {
        int overflow;
        long v = PyLong_Check(items[i]) ? PyLong_AsLongAndOverflow(items[i], &overflow) : 0;
        if (v < 1 || v > top || used[v])
            return -1;
        used[v] = 1;
        p[i] = (int)v;
    }
    return n;
}

/* A tuple of the n ints in v; with width > 0, of n tuples of width ints. */
static PyObject *
to_tuple(const Py_ssize_t *v, Py_ssize_t n, Py_ssize_t width)
{
    PyObject *tuple = PyTuple_New(n);
    for (Py_ssize_t i = 0; tuple != NULL && i < n; i++) {
        PyObject *item = width ? to_tuple(v + i * width, width, 0) : PyLong_FromSsize_t(v[i]);
        if (item == NULL)
            Py_CLEAR(tuple);
        else
            PyTuple_SET_ITEM(tuple, i, item);
    }
    return tuple;
}

/* h[i] = the entries right of position i smaller than p[i]. */
static void
heights_312_c(const int *p, int n, Py_ssize_t *h)
{
    for (int i = 0; i < n; i++) {
        h[i] = 0;
        for (int j = i + 1; j < n; j++)
            h[i] += p[j] < p[i];
    }
}

PyDoc_STRVAR(heights_312_doc,
"heights_312(values) -> tuple | None\n\n"
"Per entry of a permutation of 1..n, the smaller entries to its right;\n"
"None for anything but a tuple or list holding a permutation, n <= MAXN.");

static PyObject *
heights_312(PyObject *module, PyObject *values)
{
    int p[MAXN];
    Py_ssize_t h[MAXN], n = read_perm(values, p, -1);
    if (n < 0)
        Py_RETURN_NONE;
    heights_312_c(p, (int)n, h);
    return to_tuple(h, n, 0);
}

PyDoc_STRVAR(heights_321_doc,
"heights_321(values) -> tuple | None\n\n"
"Per entry of a permutation of 1..n: for a left-to-right maximum, the\n"
"smaller entries to its right; for another entry, those to its right\n"
"between it and the preceding maximum.  None as for heights_312.");

static PyObject *
heights_321(PyObject *module, PyObject *values)
{
    int p[MAXN];
    Py_ssize_t h[MAXN], n = read_perm(values, p, -1);
    if (n < 0)
        Py_RETURN_NONE;
    heights_312_c(p, (int)n, h);
    /* hm keeps the (3,1,2) height of the maximum at m */
    for (Py_ssize_t i = 0, m = 0, hm = 0, top = 0; i < n; i++) {
        if (p[i] > top) {
            top = p[i];
            m = i;
            hm = h[i];
        } else {
            h[i] = hm - (i - m) - h[i];
        }
    }
    return to_tuple(h, n, 0);
}

PyDoc_STRVAR(scan_path_doc,
"scan_path(path) -> (heights, peaks, spans) | None\n\n"
"One left-to-right pass over a valid path over U, D, J: per down-step, the\n"
"height it lands on and the 1-based index of the peak weakly to its left\n"
"(0 when there is none), and per jump run (start, end, position, m, l).\n"
"None for anything but a str holding a valid path.");

static PyObject *
scan_path(PyObject *module, PyObject *path)
{
    if (!PyUnicode_Check(path))
        Py_RETURN_NONE;
    Py_ssize_t len = PyUnicode_GET_LENGTH(path);
    int kind = PyUnicode_KIND(path);
    const void *data = PyUnicode_DATA(path);
    /* per down-step its height and peak, per jump run five fields */
    Py_ssize_t *heights = PyMem_New(Py_ssize_t, 7 * len + 1);
    if (heights == NULL)
        return PyErr_NoMemory();
    Py_ssize_t *peaks = heights + len, *spans = heights + 2 * len, *span = NULL;
    Py_ssize_t h = 0, n = 0, s = 0, run = 0, peak = 0;
    Py_UCS4 prev = 0;
    Py_ssize_t i = 0;
    for (; i < len; i++) {
        Py_UCS4 ch = PyUnicode_READ(kind, data, i);
        if (ch == 'U') {
            h++;
            run = 0;
            span = NULL; /* closes the jump run's trailing down-run */
        } else if (ch == 'D') {
            h--;
            run++;
            if (prev == 'U')
                peak = n + 1;
            heights[n] = h;
            peaks[n++] = peak;
            if (span != NULL)
                span[4]++;
        } else if (ch == 'J') {
            h--;
            if (prev == 'J') {
                span[1]++;
            } else {
                span = spans + 5 * s++;
                span[0] = i;
                span[1] = i + 1;
                span[2] = n;
                span[3] = run;
                span[4] = 0;
            }
            run = 0;
        } else {
            break;
        }
        if (h < 0)
            break;
        prev = ch;
    }
    PyObject *result = i < len || h != 0 ? Py_NewRef(Py_None)
        : Py_BuildValue("(NNN)", to_tuple(heights, n, 0), to_tuple(peaks, n, 0), to_tuple(spans, s, 5));
    PyMem_Free(heights);
    return result;
}

PyDoc_STRVAR(path_from_heights_doc,
"path_from_heights(heights) -> str | None\n\n"
"The path whose i-th down-step lands on height heights[i]: before it, rise\n"
"with up-steps to heights[i] + 1 if below it, or descend with down-jumps if\n"
"above it.  None for anything but a tuple or list of nonnegative ints that\n"
"ends at 0.");

static PyObject *
path_from_heights(PyObject *module, PyObject *heights)
{
    if (!PyTuple_Check(heights) && !PyList_Check(heights))
        Py_RETURN_NONE;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(heights), len = n;
    PyObject **items = PySequence_Fast_ITEMS(heights);
    /* first pass: check the vector and size the path */
    long cur = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        int overflow;
        long h = PyLong_Check(items[i]) ? PyLong_AsLongAndOverflow(items[i], &overflow) : -1;
        if (h < 0 || h >= INT_MAX)
            Py_RETURN_NONE;
        len += labs(h + 1 - cur);
        cur = h;
    }
    if (cur != 0)
        Py_RETURN_NONE;
    PyObject *path = PyUnicode_New(len, 127);
    if (path == NULL)
        return NULL;
    Py_UCS1 *out = PyUnicode_1BYTE_DATA(path);
    for (Py_ssize_t i = 0; i < n; i++) {
        long h = PyLong_AsLong(items[i]), step = h + 1 - cur;
        memset(out, step > 0 ? 'U' : 'J', labs(step));
        out += labs(step);
        *out++ = 'D';
        cur = h;
    }
    return path;
}

PyDoc_STRVAR(perm_from_heights_doc,
"perm_from_heights(heights) -> tuple | None\n\n"
"The permutation of 1..n whose inversion table is heights: the entry at\n"
"position i is the (heights[i] + 1)-th smallest value not used before it.\n"
"None for anything but a tuple or list of n <= MAXN ints, the i-th\n"
"(from 1) in 0..n - i.");

static PyObject *
perm_from_heights(PyObject *module, PyObject *heights)
{
    if (!PyTuple_Check(heights) && !PyList_Check(heights))
        Py_RETURN_NONE;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(heights), unused[MAXN], out[MAXN];
    PyObject **items = PySequence_Fast_ITEMS(heights);
    if (n > MAXN)
        Py_RETURN_NONE;
    for (Py_ssize_t i = 0; i < n; i++)
        unused[i] = i + 1;
    /* unused[0 .. n - i) holds the values not yet placed, in increasing order */
    for (Py_ssize_t i = 0; i < n; i++) {
        int overflow;
        long h = PyLong_Check(items[i]) ? PyLong_AsLongAndOverflow(items[i], &overflow) : -1;
        if (h < 0 || h >= n - i)
            Py_RETURN_NONE;
        out[i] = unused[h];
        memmove(unused + h, unused + h + 1, (n - i - 1 - h) * sizeof *unused);
    }
    return to_tuple(out, n, 0);
}

PyDoc_STRVAR(count_pair_doc,
"count_pair(values) -> (c312, c321) | None\n\n"
"Number of (3,1,2)- and of (3,2,1)-occurrences in a permutation of 1..n;\n"
"None as for heights_312.");

static PyObject *
count_pair(PyObject *module, PyObject *values)
{
    int p[MAXN], c312, c321;
    slot state[MAXN];
    Py_ssize_t n = read_perm(values, p, -1);
    if (n < 0)
        Py_RETURN_NONE;
    place_prefix(p, (int)n, (int)n, state, &c312, &c321);
    return Py_BuildValue("(ii)", c312, c321);
}

PyDoc_STRVAR(histogram_pair_doc,
"histogram_pair(n, prefix=()) -> (hist312, hist321)\n\n"
"Occurrence-count histograms over the permutations of 1..n whose first\n"
"len(prefix) entries equal prefix, each indexed by occurrence count up to\n"
"binom(n, 3).");

static PyObject *
histogram_pair(PyObject *module, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", "prefix", NULL};
    int n, p[MAXN], c312, c321;
    long long h312[MAX_HIST] = {0}, h321[MAX_HIST] = {0};
    PyObject *prefix = NULL, *l312, *l321;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "i|O:histogram_pair", kwlist, &n, &prefix))
        return NULL;
    if (n < 0 || n > MAXN)
        return PyErr_Format(PyExc_ValueError, "kernel supports 0 <= n <= %d", MAXN);
    Py_ssize_t q = prefix == NULL ? 0 : read_perm(prefix, p, n);
    if (q < 0)
        return PyErr_Format(PyExc_ValueError, "bad prefix %R for n=%d", prefix, n);

    int size = n >= 3 ? n * (n - 1) * (n - 2) / 6 + 1 : 1;
    Py_BEGIN_ALLOW_THREADS
    slot state[MAXN];
    place_prefix(p, (int)q, n, state, &c312, &c321);
    walk(state, n - (int)q, c312, c321, h312, h321);
    Py_END_ALLOW_THREADS

    if ((l312 = hist_to_list(h312, size)) == NULL)
        return NULL;
    if ((l321 = hist_to_list(h321, size)) == NULL) {
        Py_DECREF(l312);
        return NULL;
    }
    return Py_BuildValue("(NN)", l312, l321);
}

/* ---- the bounded census (permdyck.census) ------------------------------
 *
 * Its own code, not the sweep's place/walk, so that the checks of the sweep
 * against the census compare two algorithms.  A state is packed as bytes,
 * one per unplaced value in increasing order: above * (r_max + 2) + two,
 * each part capped at r_max + 1, as in the pure census; the capped updates
 * are table lookups.  Counts are unsigned __int128: a count of layer k is at
 * most n_max! / (n_max - k)! <= 34! < 2^128, so n_max <= CENSUS_MAXN. */

#define CENSUS_MAXN 34
#define CENSUS_MAXR 14 /* (r_max + 2)^2 <= 256: an entry fits one byte */

typedef unsigned __int128 u128;

/* The capped update rules of one census. */
typedef struct {
    int r, is321;
    unsigned char above[256], two[256];
    /* (3,2,1): tab[av] updates a value below the placed one, whose above()
     * is av; (3,1,2): tab[0] a value below it and tab[1] one above it */
    unsigned char tab[CENSUS_MAXR + 2][256];
} rules;

/* An entry (a, t), each part capped at cap, packed into one byte. */
static unsigned char
pack(int a, int t, int cap)
{
    return (a < cap ? a : cap) * (cap + 1) + (t < cap ? t : cap);
}

static void
census_rules(rules *R, int r, int is321)
{
    int cap = r + 1, base = r + 2;
    memset(R, 0, sizeof *R);
    R->r = r;
    R->is321 = is321;
    for (int b = 0; b < base * base; b++) {
        int a = b / base, t = b % base;
        R->above[b] = a;
        R->two[b] = t;
        if (is321) {
            /* a pair (a, v) with a > v > u: every u < v gains above(v) */
            for (int av = 0; av <= cap; av++)
                R->tab[av][b] = pack(a + 1, t + av, cap);
        } else {
            /* a pair (a, v) with a > u > v: every u > v gains above(u) */
            R->tab[0][b] = pack(a + 1, t, cap);
            R->tab[1][b] = pack(a, t + a, cap);
        }
    }
}

/* One layer.  Its states lie in insertion order in one arena, each a record
 * of its key and its count vector.  A key is one byte per unplaced value and
 * then the vector's width, zero-padded to 16 bytes: a state whose two() sum
 * to P holds counts c <= r_max - P only, so r_max + 1 - P of them.  (The
 * width follows from the other bytes; it is kept so that the walk over a
 * layer never depends on that.)  An index, open-addressed and at most half
 * full, holds 1 + each record's offset in 16-byte units (0: empty). */
typedef struct {
    unsigned char *arena;
    size_t used, room; /* bytes */
    uint32_t *index;
    size_t len, slots;
} layer;

enum { CENSUS_DONE = 0, CENSUS_NOMEM = -1 };

/* The m + 1 bytes of a key are read 8 at a time, so every key buffer is
 * zero-padded to a multiple of 8 bytes (16 in the arena). */
static size_t
key_hash(const unsigned char *key, int m)
{
    uint64_t h = 0x9e3779b97f4a7c15u, w;
    for (int j = 0; j <= m; j += 8) {
        memcpy(&w, key + j, 8);
        h = (h ^ w) * 0xff51afd7ed558ccdu;
        h ^= h >> 32;
    }
    return (size_t)h;
}

static int
layer_reindex(layer *L, int m)
{
    size_t slots = L->index == NULL ? 64 : 2 * L->slots;
    uint32_t *index = PyMem_RawCalloc(slots, sizeof *index);
    if (index == NULL)
        return 0;
    for (size_t j = 0; L->index != NULL && j < L->slots; j++) {
        uint32_t slot = L->index[j];
        if (slot == 0)
            continue;
        size_t i = key_hash(L->arena + 16 * (size_t)(slot - 1), m) & (slots - 1);
        while (index[i])
            i = (i + 1) & (slots - 1);
        index[i] = slot;
    }
    PyMem_RawFree(L->index);
    L->index = index;
    L->slots = slots;
    return 1;
}

/* The count vector of the state whose key (m values, then the width) is
 * key in L, a new one of zeros if it is not there.  NULL when a new state
 * would make more than limit (*full set) or memory runs out. */
static u128 *
layer_get(layer *L, const unsigned char *key, int m, long long limit, int *full)
{
    size_t kb = ((size_t)m + 16) & ~(size_t)15, size = kb + 16 * (size_t)key[m];
    if (2 * (L->len + 1) > L->slots && !layer_reindex(L, m))
        return NULL;
    size_t i = key_hash(key, m) & (L->slots - 1);
    for (; L->index[i]; i = (i + 1) & (L->slots - 1)) {
        unsigned char *rec = L->arena + 16 * (size_t)(L->index[i] - 1);
        if (memcmp(rec, key, m + 1) == 0)
            return (u128 *)(rec + kb);
    }
    if ((long long)L->len >= limit) {
        *full = 1;
        return NULL;
    }
    if (L->used + size > L->room) {
        size_t room = 2 * L->room > L->used + size ? 2 * L->room : L->used + size + 4096;
        unsigned char *arena = PyMem_RawRealloc(L->arena, room);
        if (arena == NULL)
            return NULL;
        L->arena = arena;
        L->room = room;
    }
    if (L->used / 16 >= UINT32_MAX)
        return NULL;
    unsigned char *rec = L->arena + L->used;
    memset(rec, 0, size);
    memcpy(rec, key, m + 1);
    L->index[i] = (uint32_t)(L->used / 16 + 1);
    L->used += size;
    L->len++;
    return (u128 *)(rec + kb);
}

/* The counts of the all-zero state of m values in L, added if not there. */
static u128 *
layer_zero(layer *L, int m, int r)
{
    unsigned char key[(CENSUS_MAXN + 16) / 16 * 16] = {0};
    int full = 0;
    key[m] = r + 1;
    return layer_get(L, key, m, LLONG_MAX, &full);
}

/* Layers 0..n of the census; the counts of layer k's all-zero state, the
 * distribution over S_k, go to out[k * (r + 1) ..].  Returns CENSUS_DONE,
 * the first layer that would hold more than limit states, or CENSUS_NOMEM.
 * Touches no Python object. */
static int
census_run(const rules *R, int n, long long limit, u128 *out)
{
    int r = R->r, full = 0, status = CENSUS_NOMEM;
    unsigned char child[(CENSUS_MAXN + 16) / 16 * 16]; /* padded as in the arena */
    layer cur = {0}, nxt = {0};
    u128 *zero = layer_zero(&cur, n, r);
    if (zero == NULL)
        goto done;
    zero[0] = 1;
    memcpy(out, zero, (r + 1) * sizeof *out);
    for (int k = 1; k <= n; k++) {
        int m = n - k + 1; /* the unplaced values of layer k - 1's states */
        size_t kb = ((size_t)m + 16) & ~(size_t)15;
        memset(child, 0, sizeof child);
        /* the index of a layer is not read once the next one is built */
        PyMem_RawFree(cur.index);
        cur.index = NULL;
        for (size_t off = 0; off < cur.used;) {
            const unsigned char *s = cur.arena + off;
            int pending = 0, upper = 0, lo = 0, width = s[m];
            for (int j = 0; j < m; j++) {
                pending += R->two[s[j]];
                upper += R->above[s[j]];
            }
            const u128 *vec = (const u128 *)(s + kb);
            off += kb + 16 * (size_t)width;
            while (lo < width && vec[lo] == 0)
                lo++;
            /* the state after placing s[0]: every other value lies above it;
             * placing s[i] instead moves s[0 .. i) below the placed value */
            for (int j = 1; j < m; j++)
                child[j - 1] = R->is321 ? s[j] : R->tab[1][s[j]];
            for (int i = 0; i < m; i++) {
                int tv = R->two[s[i]], av = R->above[s[i]];
                upper -= av; /* now the above() of the values over s[i] */
                if (i > 0 && !R->is321)
                    child[i - 1] = R->tab[0][s[i - 1]];
                /* placing s[i] completes tv occurrences; the others' two()
                 * then sum to pending - tv + gained, so an old count c
                 * survives iff c + pending + gained <= r */
                int gained = R->is321 ? i * av : upper, budget = r - pending - gained;
                if (budget < lo)
                    continue;
                for (int j = 0; R->is321 && j < i; j++)
                    child[j] = R->tab[av][s[j]];
                child[m - 1] = budget + tv + 1;
                u128 *got = layer_get(&nxt, child, m - 1, limit, &full);
                if (got == NULL) {
                    status = full ? k : CENSUS_NOMEM;
                    goto done;
                }
                for (int c = lo; c <= budget; c++)
                    got[c + tv] += vec[c];
            }
        }
        if ((zero = layer_zero(&nxt, m - 1, r)) == NULL)
            goto done;
        memcpy(out + k * (r + 1), zero, (r + 1) * sizeof *out);
        PyMem_RawFree(cur.arena);
        cur = nxt;
        memset(&nxt, 0, sizeof nxt);
    }
    status = CENSUS_DONE;
done:
    PyMem_RawFree(cur.arena);
    PyMem_RawFree(cur.index);
    PyMem_RawFree(nxt.arena);
    PyMem_RawFree(nxt.index);
    return status;
}

static PyObject *
from_u128(u128 v)
{
    if (v >> 64 == 0)
        return PyLong_FromUnsignedLongLong((unsigned long long)v);
    PyObject *high = PyLong_FromUnsignedLongLong((unsigned long long)(v >> 64));
    PyObject *low = PyLong_FromUnsignedLongLong((unsigned long long)v);
    PyObject *bits = PyLong_FromLong(64), *shifted = NULL, *sum = NULL;
    if (high != NULL && low != NULL && bits != NULL && (shifted = PyNumber_Lshift(high, bits)) != NULL)
        sum = PyNumber_Or(shifted, low);
    Py_XDECREF(high);
    Py_XDECREF(low);
    Py_XDECREF(bits);
    Py_XDECREF(shifted);
    return sum;
}

PyDoc_STRVAR(bounded_census_doc,
"bounded_census(n_max, key, r_max, limit) -> tuple | int | None\n\n"
"The bounded census of permdyck.census for the pattern key, \"312\" or\n"
"\"321\": per n <= n_max, the numbers of permutations of 1..n with\n"
"0..r_max occurrences; or, when a layer would hold more than limit states\n"
"(None: no bound), that layer's number.  None for n_max outside\n"
"0..34, r_max outside 0..14, any other key, or a limit that is neither\n"
"None nor an int.");

static PyObject *
bounded_census(PyObject *module, PyObject *args)
{
    PyObject *n_obj, *key, *r_obj, *limit_obj;
    if (!PyArg_UnpackTuple(args, "bounded_census", 4, 4, &n_obj, &key, &r_obj, &limit_obj))
        return NULL;
    int overflow;
    long n = PyLong_Check(n_obj) ? PyLong_AsLongAndOverflow(n_obj, &overflow) : -1;
    long r = PyLong_Check(r_obj) ? PyLong_AsLongAndOverflow(r_obj, &overflow) : -1;
    long long limit = LLONG_MAX;
    if (PyLong_Check(limit_obj)) {
        limit = PyLong_AsLongLongAndOverflow(limit_obj, &overflow);
        if (overflow)
            limit = overflow > 0 ? LLONG_MAX : LLONG_MIN;
    } else if (limit_obj != Py_None) {
        Py_RETURN_NONE;
    }
    if (n < 0 || n > CENSUS_MAXN || r < 0 || r > CENSUS_MAXR || !PyUnicode_Check(key))
        Py_RETURN_NONE;
    int is321 = PyUnicode_CompareWithASCIIString(key, "321") == 0;
    if (!is321 && PyUnicode_CompareWithASCIIString(key, "312") != 0)
        Py_RETURN_NONE;

    rules R;
    u128 out[(CENSUS_MAXN + 1) * (CENSUS_MAXR + 1)];
    int status;
    census_rules(&R, (int)r, is321);
    Py_BEGIN_ALLOW_THREADS
    status = census_run(&R, (int)n, limit, out);
    Py_END_ALLOW_THREADS
    if (status == CENSUS_NOMEM)
        return PyErr_NoMemory();
    if (status != CENSUS_DONE)
        return PyLong_FromLong(status);

    PyObject *result = PyTuple_New(n + 1);
    for (long k = 0; result != NULL && k <= n; k++) {
        PyObject *row = PyTuple_New(r + 1);
        for (long c = 0; row != NULL && c <= r; c++) {
            PyObject *count = from_u128(out[k * (r + 1) + c]);
            if (count == NULL)
                Py_CLEAR(row);
            else
                PyTuple_SET_ITEM(row, c, count);
        }
        if (row == NULL)
            Py_CLEAR(result);
        else
            PyTuple_SET_ITEM(result, k, row);
    }
    return result;
}

static PyMethodDef fastcount_methods[] = {
    {"count_pair", (PyCFunction)count_pair, METH_O, count_pair_doc},
    {"histogram_pair", (PyCFunction)(void (*)(void))histogram_pair,
     METH_VARARGS | METH_KEYWORDS, histogram_pair_doc},
    {"heights_312", (PyCFunction)heights_312, METH_O, heights_312_doc},
    {"heights_321", (PyCFunction)heights_321, METH_O, heights_321_doc},
    {"scan_path", (PyCFunction)scan_path, METH_O, scan_path_doc},
    {"path_from_heights", (PyCFunction)path_from_heights, METH_O, path_from_heights_doc},
    {"perm_from_heights", (PyCFunction)perm_from_heights, METH_O, perm_from_heights_doc},
    {"bounded_census", (PyCFunction)bounded_census, METH_VARARGS, bounded_census_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef fastcount_module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "permdyck._fastcount",
    .m_doc = "Compiled counting kernels, encoder and decoder primitives; see permdyck.kernels.",
    .m_size = -1,
    .m_methods = fastcount_methods,
};

PyMODINIT_FUNC
PyInit__fastcount(void)
{
    PyObject *module = PyModule_Create(&fastcount_module);
    if (module != NULL && PyModule_AddIntConstant(module, "MAXN", MAXN) < 0)
        Py_CLEAR(module);
    return module;
}
