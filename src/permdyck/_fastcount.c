/* Compiled occurrence-counting kernels: the hot loop of the exhaustive census.
 *
 * Same contract as permdyck._purecount, by a different algorithm.
 * count_pair runs the quadratic counting identity of that module.
 * histogram_pair walks the tree of placements depth first, building each
 * permutation left to right, and carries the state of the bounded census
 * (permdyck.census): for every unplaced value u, in increasing order,
 *
 *   above(u)   the number of placed values greater than u,
 *   two312(u)  the pairs of placed entries that u, placed later, completes
 *              to a (3,1,2)-occurrence, and two321(u) likewise for (3,2,1).
 *
 * Placing v adds two312(v) and two321(v) to the running counts; then every
 * u < v gains 1 in above(u) and above(v) in two321(u) (a pair a > v > u),
 * and every u > v gains above(u) in two312(u) (a pair a > u > v).  With
 * one value left, a permutation's counts are read off in O(1).  Every
 * prefix is shared by the permutations below it, so a sweep costs O(1) per
 * permutation, touches no Python object and runs with the interpreter lock
 * released.
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

static void
count_pair_c(const int *p, int n, long long *out312, long long *out321)
{
    long long c312 = 0, c321 = 0;
    for (int k = 1; k < n; k++) {
        int vk = p[k], bigger = 0, acc = 0;
        for (int i = 0; i < k; i++) {
            if (p[i] > vk)
                bigger++;
            else if (p[i] < vk)
                acc += bigger;
        }
        c312 += acc;
        c321 += (long long)bigger * (vk - 1 - (k - bigger));
    }
    *out312 = c312;
    *out321 = c321;
}

/* The census state of one unplaced value. */
typedef struct {
    int above, two312, two321;
} slot;

/* Place the value in s[i] (of m unplaced values): write the other m - 1
 * states, updated, to out. */
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

/* Copy the entries of a sequence of at most MAXN ints into p.  Returns the
 * length, or -1 with an exception set. */
static Py_ssize_t
read_ints(PyObject *obj, int *p, const char *what)
{
    PyObject *seq = PySequence_Fast(obj, "expected a sequence of ints");
    if (seq == NULL)
        return -1;
    Py_ssize_t len = PySequence_Fast_GET_SIZE(seq);
    PyObject **items = PySequence_Fast_ITEMS(seq);
    if (len > MAXN) {
        PyErr_Format(PyExc_ValueError, "%s: kernel supports length <= %d", what, MAXN);
        len = -1;
    }
    for (Py_ssize_t i = 0; i < len; i++) {
        int overflow;
        long v = PyLong_AsLongAndOverflow(items[i], &overflow);
        if (v == -1 && PyErr_Occurred()) {
            len = -1;
            break;
        }
        if (overflow || v < INT_MIN || v > INT_MAX) {
            PyErr_Format(PyExc_ValueError, "%s: entry %R out of range", what, items[i]);
            len = -1;
            break;
        }
        p[i] = (int)v;
    }
    Py_DECREF(seq);
    return len;
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

PyDoc_STRVAR(count_pair_doc,
"count_pair(values) -> (c312, c321)\n\n"
"Number of (3,1,2)- and of (3,2,1)-occurrences in a permutation of 1..n.");

static PyObject *
count_pair(PyObject *module, PyObject *values)
{
    int p[MAXN];
    long long c312, c321;
    Py_ssize_t n = read_ints(values, p, "count_pair");
    if (n < 0)
        return NULL;
    count_pair_c(p, (int)n, &c312, &c321);
    return Py_BuildValue("(LL)", c312, c321);
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
    int n, p[MAXN], used[MAXN + 1] = {0}, c312 = 0, c321 = 0;
    long long h312[MAX_HIST] = {0}, h321[MAX_HIST] = {0};
    PyObject *prefix = NULL, *l312, *l321;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "i|O:histogram_pair", kwlist, &n, &prefix))
        return NULL;
    if (n < 0 || n > MAXN)
        return PyErr_Format(PyExc_ValueError, "kernel supports 0 <= n <= %d", MAXN);
    Py_ssize_t q = prefix == NULL ? 0 : read_ints(prefix, p, "prefix");
    if (q < 0)
        return NULL;
    for (Py_ssize_t i = 0; i < q; i++) {
        if (i >= n || p[i] < 1 || p[i] > n || used[p[i]])
            return PyErr_Format(PyExc_ValueError, "bad prefix %R for n=%d", prefix, n);
        used[p[i]] = 1;
    }

    int size = n >= 3 ? n * (n - 1) * (n - 2) / 6 + 1 : 1;
    Py_BEGIN_ALLOW_THREADS
    /* place the prefix with the walk's update rule, then walk the rest */
    slot state[MAXN] = {{0, 0, 0}}, next[MAXN];
    int m = n;
    for (Py_ssize_t k = 0; k < q; k++, m--) {
        /* p[k]'s index among the unplaced values: those below it, less the
         * placed ones */
        int i = p[k] - 1;
        for (Py_ssize_t j = 0; j < k; j++)
            i -= p[j] < p[k];
        c312 += state[i].two312;
        c321 += state[i].two321;
        place(state, m, i, next);
        memcpy(state, next, (m - 1) * sizeof(slot));
    }
    walk(state, m, c312, c321, h312, h321);
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
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef fastcount_module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "permdyck._fastcount",
    .m_doc = "Compiled occurrence-counting kernels; same contract as permdyck._purecount.",
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
