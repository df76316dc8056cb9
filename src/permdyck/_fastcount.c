/* Compiled kernels: occurrence counting, the encoder primitives and the
 * decoder primitive.  permdyck.kernels states their contract and the
 * hand-over to permdyck._purecount.
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
 * Written directly against the CPython C API; build it in place with
 *     python setup.py build_ext --inplace
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
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

static PyMethodDef fastcount_methods[] = {
    {"count_pair", (PyCFunction)count_pair, METH_O, count_pair_doc},
    {"histogram_pair", (PyCFunction)(void (*)(void))histogram_pair,
     METH_VARARGS | METH_KEYWORDS, histogram_pair_doc},
    {"heights_312", (PyCFunction)heights_312, METH_O, heights_312_doc},
    {"heights_321", (PyCFunction)heights_321, METH_O, heights_321_doc},
    {"scan_path", (PyCFunction)scan_path, METH_O, scan_path_doc},
    {"path_from_heights", (PyCFunction)path_from_heights, METH_O, path_from_heights_doc},
    {"perm_from_heights", (PyCFunction)perm_from_heights, METH_O, perm_from_heights_doc},
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
