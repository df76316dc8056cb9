/* Compiled kernels: occurrence counting, the encoder primitives, the
 * decoder primitives, the jump predictions and the bounded census.
 * permdyck.kernels states their contract.
 *
 * Every function here but histogram_pair hands an input it does not handle
 * to the function of the same name in permdyck._purecount (hand_over), whose
 * value or exception is then the call's; hand_overs() counts these calls.
 * So permdyck.kernels binds the functions here directly, with no Python
 * frame between a caller and the compiled body.
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
 * heights_321 is derived from the (3,1,2) heights (heights_312_c) rather
 * than counted: h321_i = h312_m - (i - m) - h312_i for an entry i that is
 * not a left-to-right maximum, m being the preceding maximum (see
 * permdyck.perms.heights_321).  encode_path is psi312 or psi321 in one
 * call: it reads the permutation, computes its heights and writes the path
 * with the helpers of heights_321 and path_from_heights.  is_permutation is
 * the check of permdyck.perms.Permutation.
 *
 * scan is the one parser of a path: scan_path returns what it reads, and
 * decode_psi312 parses with it, checks that every jump run is sandwiched
 * and decodes the down-step heights as an inversion table (decode_table).
 * read_ints is the one reader of an int vector, read_perm that of a
 * permutation.
 *
 * predicted_triples is the compiled twin of permdyck._purecount's
 * jump_pieces, the one statement of the occurrence triples each jump
 * forces; it marks them in a bitset over (a, b, c), see below.
 *
 * bounded_census runs the layers of the bounded census with its own code
 * (below) and the interpreter lock released, for n_max <= 34: its counts
 * are unsigned __int128 (GCC and Clang on 64-bit targets), and 34! <
 * 2^128.  It hands a larger n_max over.
 *
 * audit_images runs the per-permutation checks of the bijection audit
 * (permdyck.audit.audit_bijections) over S_n, regenerated in lexicographic
 * order in place, with the bodies of scan_path, the heights, count_pair,
 * decode_psi312 and predicted_triples: on the n! encoder images it is
 * given, or, given none, on the stock encoder's images, which it writes
 * itself (the walk, which checks injectivity too).  It returns, per
 * failing check, the first permutation that fails it and its image, the
 * avoiders with their images and the one-occurrence hosts.  It hands over
 * n > 12, any key but "312" and "321", images that are not a list or tuple
 * of n! str, images with a jump run whose prediction the audit compares but
 * predict does not take and, on the walk, an image whose heights repeat an
 * earlier image's or do not index the bitmap (see below); the pure
 * audit_images then answers None, and the audit takes its next route.
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

/* The inputs handed over so far, read by hand_overs(); every call that
 * changes it holds the interpreter lock. */
static Py_ssize_t handed_over = 0;

/* The outcome of permdyck._purecount.<name>(*args), looked up at each call,
 * for an input the compiled function name does not handle.  Rare, so it is
 * kept out of line, off the fast path of each of its callers. */
static __attribute__((noinline, cold)) PyObject *
hand_over(const char *name, PyObject *const *args, Py_ssize_t nargs)
{
    handed_over++;
    PyObject *pure = PyImport_ImportModule("permdyck._purecount");
    if (pure == NULL)
        return NULL;
    PyObject *fn = PyObject_GetAttrString(pure, name);
    Py_DECREF(pure);
    if (fn == NULL)
        return NULL;
    PyObject *result = PyObject_Vectorcall(fn, args, nargs, NULL);
    Py_DECREF(fn);
    return result;
}

PyDoc_STRVAR(hand_overs_doc,
"hand_overs() -> int\n\n"
"The number of calls so far whose input a compiled function handed to the\n"
"function of the same name in permdyck._purecount.");

static PyObject *
hand_overs(PyObject *module, PyObject *unused)
{
    return PyLong_FromSsize_t(handed_over);
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

/* Turn the (3,1,2) heights h of p into the (3,2,1) ones, in place. */
static void
heights_321_c(const int *p, int n, Py_ssize_t *h)
{
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
}

PyDoc_STRVAR(heights_321_doc,
"heights_321(values) -> tuple\n\n"
"Per entry of a permutation of 1..n: for a left-to-right maximum, the\n"
"smaller entries to its right; for another entry, those to its right\n"
"between it and the preceding maximum.  Hands anything but a tuple or list\n"
"holding a permutation, n <= MAXN, to _purecount.");

static PyObject *
heights_321(PyObject *module, PyObject *values)
{
    int p[MAXN];
    Py_ssize_t h[MAXN], n = read_perm(values, p, -1);
    if (n < 0)
        return hand_over("heights_321", &values, 1);
    heights_312_c(p, (int)n, h);
    heights_321_c(p, (int)n, h);
    return to_tuple(h, n, 0);
}

/* One pass over the len steps of a path (kind and data as PyUnicode_READ
 * takes them): per down-step, the height it lands on into heights and the
 * 1-based index of the peak weakly to its left (0 when there is none) into
 * peaks, and per jump run (start, end, position, m, l) into spans; each
 * array has room for len entries (spans 5 len).  *nd and *ns get the
 * numbers of down-steps and of runs.  Returns 0 if the steps are not a
 * valid path. */
static int
scan(int kind, const void *data, Py_ssize_t len, Py_ssize_t *heights, Py_ssize_t *peaks,
     Py_ssize_t *spans, Py_ssize_t *nd, Py_ssize_t *ns)
{
    Py_ssize_t *span = NULL, h = 0, n = 0, s = 0, run = 0, peak = 0;
    Py_UCS4 prev = 0;
    for (Py_ssize_t i = 0; i < len; i++) {
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
            return 0;
        }
        if (h < 0)
            return 0;
        prev = ch;
    }
    *nd = n;
    *ns = s;
    return h == 0;
}

PyDoc_STRVAR(scan_path_doc,
"scan_path(path) -> (heights, peaks, spans)\n\n"
"One left-to-right pass over a valid path over U, D, J: per down-step, the\n"
"height it lands on and the 1-based index of the peak weakly to its left\n"
"(0 when there is none), and per jump run (start, end, position, m, l).\n"
"Hands anything but a str holding a valid path to _purecount.");

static PyObject *
scan_path(PyObject *module, PyObject *path)
{
    if (!PyUnicode_Check(path))
        return hand_over("scan_path", &path, 1);
    Py_ssize_t len = PyUnicode_GET_LENGTH(path), n, s;
    /* per down-step its height and peak, per jump run five fields */
    Py_ssize_t *heights = PyMem_New(Py_ssize_t, 7 * len + 1);
    if (heights == NULL)
        return PyErr_NoMemory();
    Py_ssize_t *peaks = heights + len, *spans = heights + 2 * len;
    PyObject *result = !scan(PyUnicode_KIND(path), PyUnicode_DATA(path), len, heights, peaks, spans, &n, &s)
        ? hand_over("scan_path", &path, 1)
        : Py_BuildValue("(NNN)", to_tuple(heights, n, 0), to_tuple(peaks, n, 0), to_tuple(spans, s, 5));
    PyMem_Free(heights);
    return result;
}

/* Read a tuple or list of at most max ints, each in lo..hi (lo >= 0), into
 * v.  Returns the length, or -1 for anything else (no exception set). */
static Py_ssize_t
read_ints(PyObject *obj, Py_ssize_t *v, Py_ssize_t max, long lo, long hi)
{
    if (!PyTuple_Check(obj) && !PyList_Check(obj))
        return -1;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(obj);
    PyObject **items = PySequence_Fast_ITEMS(obj);
    if (n > max)
        return -1;
    for (Py_ssize_t i = 0; i < n; i++) {
        int overflow;
        /* an overflowing int reads as -1, below lo */
        v[i] = PyLong_Check(items[i]) ? PyLong_AsLongAndOverflow(items[i], &overflow) : -1;
        if (v[i] < lo || v[i] > hi)
            return -1;
    }
    return n;
}

/* Write to out the path whose i-th down-step lands on height h[i], i < n:
 * before it, up-steps to h[i] + 1 if below it, else down-jumps.  The
 * heights are nonnegative and end at 0.  With out NULL, write nothing.
 * Returns the path's length. */
static Py_ssize_t
write_path(const Py_ssize_t *h, Py_ssize_t n, Py_UCS1 *out)
{
    Py_ssize_t len = 0, cur = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        Py_ssize_t step = h[i] + 1 - cur, size = step > 0 ? step : -step;
        if (out != NULL) {
            memset(out + len, step > 0 ? 'U' : 'J', size);
            out[len + size] = 'D';
        }
        len += size + 1;
        cur = h[i];
    }
    return len;
}

/* The path of write_path, as a str. */
static PyObject *
path_of(const Py_ssize_t *h, Py_ssize_t n)
{
    PyObject *path = PyUnicode_New(write_path(h, n, NULL), 127);
    if (path != NULL)
        write_path(h, n, PyUnicode_1BYTE_DATA(path));
    return path;
}

PyDoc_STRVAR(path_from_heights_doc,
"path_from_heights(heights) -> str\n\n"
"The path whose i-th down-step lands on height heights[i]: before it, rise\n"
"with up-steps to heights[i] + 1 if below it, or descend with down-jumps if\n"
"above it.  Hands anything but a tuple or list of nonnegative ints that\n"
"ends at 0 to _purecount.");

static PyObject *
path_from_heights(PyObject *module, PyObject *heights)
{
    if (!PyTuple_Check(heights) && !PyList_Check(heights))
        return hand_over("path_from_heights", &heights, 1);
    Py_ssize_t n = PySequence_Fast_GET_SIZE(heights), *h = PyMem_New(Py_ssize_t, n + 1);
    if (h == NULL)
        return PyErr_NoMemory();
    PyObject *path = read_ints(heights, h, n, 0, INT_MAX - 1) < 0 || (n > 0 && h[n - 1] != 0)
        ? hand_over("path_from_heights", &heights, 1) : path_of(h, n);
    PyMem_Free(h);
    return path;
}

/* 0 for the key "312", 1 for "321", -1 for anything else. */
static int
pattern_key(PyObject *key)
{
    if (!PyUnicode_Check(key))
        return -1;
    if (PyUnicode_CompareWithASCIIString(key, "321") == 0)
        return 1;
    return PyUnicode_CompareWithASCIIString(key, "312") == 0 ? 0 : -1;
}

PyDoc_STRVAR(encode_path_doc,
"encode_path(values, key) -> str\n\n"
"The image of a permutation of 1..n under the encoder for the pattern key,\n"
"\"312\" or \"321\": path_from_heights of its (3,1,2) or (3,2,1) heights.\n"
"Hands values over as heights_321 does, and any other key, to _purecount.");

static PyObject *
encode_path(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2)
        return PyErr_Format(PyExc_TypeError, "encode_path expected 2 arguments, got %zd", nargs);
    int p[MAXN], is321 = pattern_key(args[1]);
    Py_ssize_t h[MAXN], n = is321 < 0 ? -1 : read_perm(args[0], p, -1);
    if (n < 0)
        return hand_over("encode_path", args, nargs);
    heights_312_c(p, (int)n, h);
    if (is321)
        heights_321_c(p, (int)n, h);
    return path_of(h, n);
}

PyDoc_STRVAR(is_permutation_doc,
"is_permutation(values) -> bool\n\n"
"Whether values is a tuple or list of ints, each exactly an int (no bool),\n"
"that is a permutation of 1..n.  Hands a tuple or list of more than MAXN\n"
"such ints to _purecount.");

static PyObject *
is_permutation(PyObject *module, PyObject *values)
{
    if (!PyTuple_Check(values) && !PyList_Check(values))
        Py_RETURN_FALSE;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(values);
    PyObject **items = PySequence_Fast_ITEMS(values);
    for (Py_ssize_t i = 0; i < n; i++)
        if (!PyLong_CheckExact(items[i]))
            Py_RETURN_FALSE;
    if (n > MAXN)
        return hand_over("is_permutation", &values, 1);
    int p[MAXN];
    return PyBool_FromLong(read_perm(values, p, -1) == n);
}

/* The permutation whose inversion table is h[0 .. n), n <= MAXN, into out:
 * out[i] is the (h[i] + 1)-th smallest value not used before it.  Returns
 * 0 if some h[i] lies outside 0..n - 1 - i. */
static int
decode_table(const Py_ssize_t *h, Py_ssize_t n, Py_ssize_t *out)
{
    Py_ssize_t unused[MAXN];
    for (Py_ssize_t i = 0; i < n; i++)
        unused[i] = i + 1;
    /* unused[0 .. n - i) holds the values not yet placed, in increasing order */
    for (Py_ssize_t i = 0; i < n; i++) {
        if (h[i] < 0 || h[i] >= n - i)
            return 0;
        out[i] = unused[h[i]];
        memmove(unused + h[i], unused + h[i] + 1, (n - i - 1 - h[i]) * sizeof *unused);
    }
    return 1;
}

PyDoc_STRVAR(decode_psi312_doc,
"decode_psi312(path) -> tuple\n\n"
"The permutation whose psi312 image is path: the path is parsed, its jumps\n"
"checked to be sandwiched between down-steps and its down-step heights\n"
"decoded as an inversion table.  Hands anything but a str holding a valid\n"
"path with at most MAXN down-steps, every jump run sandwiched, whose\n"
"heights are an inversion table, to _purecount, which names the fault.");

static PyObject *
decode_psi312(PyObject *module, PyObject *path)
{
    if (!PyUnicode_Check(path))
        return hand_over("decode_psi312", &path, 1);
    Py_ssize_t len = PyUnicode_GET_LENGTH(path), n = 0, s = 0, out[MAXN];
    /* per down-step its height and peak, per jump run five fields */
    Py_ssize_t *heights = PyMem_New(Py_ssize_t, 7 * len + 1);
    if (heights == NULL)
        return PyErr_NoMemory();
    Py_ssize_t *spans = heights + 2 * len;
    int ok = scan(PyUnicode_KIND(path), PyUnicode_DATA(path), len, heights, heights + len, spans, &n, &s)
        && n <= MAXN;
    /* sandwiched: a down-step right before and right after each run */
    for (Py_ssize_t j = 0; ok && j < s; j++)
        ok = spans[5 * j + 3] > 0 && spans[5 * j + 4] > 0;
    ok = ok && decode_table(heights, n, out);
    PyMem_Free(heights);
    return ok ? to_tuple(out, n, 0) : hand_over("decode_psi312", &path, 1);
}

/* ---- jump predictions (permdyck.bijections.analyze_jumps) --------------
 *
 * The rule is stated once in Python, permdyck._purecount.jump_pieces; this
 * is its compiled twin, tested against it.  The triples (a, b, c) of one
 * host, each in 1..n, are marked in a bitset indexed by
 * ((a - 1) n + b - 1) n + c - 1, which drops duplicates and is read out in
 * sorted order. */

/* bounds every height and jump-run field, so that the sums below fit */
#define FIELD_MAX (1L << 30)

static void
mark(uint64_t *bits, Py_ssize_t n, int a, int b, int c)
{
    size_t i = ((size_t)(a - 1) * n + (b - 1)) * n + (c - 1);
    bits[i / 64] |= (uint64_t)1 << (i % 64);
}

/* Mark in bits the triples that the jumps of an encoder image force
 * (jump_pieces): p is the permutation of 1..n, n <= MAXN, h the image's nh
 * down-step heights and spans its s jump runs, five fields each.  Returns
 * 0 for a run outside 1 <= position < n, position <= nh, m <= position and
 * position + l <= n, the runs the rule is stated for.  A run's triples
 * depend on the heights up to its position only, so nh may differ from n. */
static int
predict(const int *p, int n, int is321, const Py_ssize_t *h, Py_ssize_t nh,
        const Py_ssize_t *spans, Py_ssize_t s, uint64_t *bits)
{
    for (Py_ssize_t jn = 0; jn < s; jn++) {
        const Py_ssize_t *f = spans + 5 * jn;
        if (f[2] < 1 || f[2] >= n || f[2] > nh || f[3] > f[2] || f[2] + f[4] > n)
            return 0;
    }
    /* the left-to-right maxima; between[i] counts the non-maximum steps up
     * to down-step i (see permdyck.bijections.MaximumBeforeJump) */
    int maxima[MAXN], nmax = 0, top = 0;
    long long between[MAXN + 1] = {0};
    for (int i = 1; i <= n; i++) {
        int is_max = p[i - 1] > top;
        if (is_max)
            maxima[nmax++] = i, top = p[i - 1];
        Py_ssize_t step = is321 ? 1 : i > nh ? 0 : h[i - 1] + 1 - (i > 1 ? h[i - 2] : 0);
        between[i] = between[i - 1] + (step > 0 ? step : 0) - is_max;
    }

    for (Py_ssize_t jn = 0; jn < s; jn++) {
        const Py_ssize_t *f = spans + 5 * jn;
        Py_ssize_t d = f[1] - f[0], pos = f[2], m = f[3], l = f[4];
        /* maxima[0 .. k_pm) lie at or before pos; the last is the preceding one */
        int k_pm = 0, pm, causing[MAXN], nc = 0;
        while (k_pm < nmax && maxima[k_pm] <= pos)
            k_pm++;
        pm = maxima[k_pm - 1];
        for (int k = pos + 1; k <= n; k++)
            if (is321 ? p[k - 1] < p[pos] : p[pos] < p[k - 1] && p[k - 1] < p[pos - 1])
                causing[nc++] = k;
        /* the base triples, and for (3,1,2) those of the down-run before the jump */
        for (int j = pos + 1; j <= pos + l; j++)
            for (int c = 0; c < nc; c++) {
                mark(bits, n, pm, j, causing[c]);
                for (int g = pos - m + 1; !is321 && g <= pos; g++)
                    mark(bits, n, g, j, causing[c]);
            }
        if (!is321) {
            /* each maximum before the preceding one, over the causing entries below it */
            for (int q = 0; q < k_pm - 1; q++)
                for (int j = pos + 1; j <= pos + l; j++)
                    for (int c = 0; c < nc; c++)
                        if (p[causing[c] - 1] < p[maxima[q] - 1])
                            mark(bits, n, maxima[q], j, causing[c]);
        } else if (jn == 0) {
            /* each maximum up to the preceding one reaches min(height - d -
             * steps, l) following entries; those before the threshold none */
            for (int q = 0; q < k_pm; q++) {
                int g = maxima[q];
                long long reach = h[g - 1] - d - (between[pos] - between[g]);
                for (int j = pos + 1; j <= pos + (reach < l ? reach : l); j++)
                    for (int c = 0; c < nc; c++)
                        mark(bits, n, g, j, causing[c]);
            }
        }
    }
    return 1;
}

PyDoc_STRVAR(predicted_triples_doc,
"predicted_triples(rho, key, heights, spans) -> tuple\n\n"
"The sorted, distinct occurrence triples forced by the jumps of the image\n"
"of the permutation rho under the encoder for the pattern key, \"312\" or\n"
"\"321\", given the image's down-step heights and jump runs (start, end,\n"
"position, m, l).  Hands rho not as count_pair takes it, any other key,\n"
"anything but n heights in 0..2**30, or a run that is not five ints in\n"
"0..2**30 with 1 <= position < n, m <= position and position + l <= n, to\n"
"_purecount.");

static PyObject *
predicted_triples(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 4)
        return PyErr_Format(PyExc_TypeError, "predicted_triples expected 4 arguments, got %zd", nargs);
    PyObject *rho = args[0], *key = args[1], *heights = args[2], *spans = args[3];
    int p[MAXN];
    Py_ssize_t h[MAXN];
    Py_ssize_t n = read_perm(rho, p, -1);
    int is321 = pattern_key(key);
    if (n < 0 || read_ints(heights, h, MAXN, 0, FIELD_MAX) != n || is321 < 0
        || (!PyTuple_Check(spans) && !PyList_Check(spans)))
        return hand_over("predicted_triples", args, nargs);
    Py_ssize_t s = PySequence_Fast_GET_SIZE(spans);
    PyObject **runs = PySequence_Fast_ITEMS(spans);
    Py_ssize_t *fields = PyMem_New(Py_ssize_t, 5 * s + 1);
    if (fields == NULL)
        return PyErr_NoMemory();
    uint64_t bits[(MAXN * MAXN * MAXN + 63) / 64] = {0};
    Py_ssize_t jn = 0;
    while (jn < s && read_ints(runs[jn], fields + 5 * jn, 5, 0, FIELD_MAX) == 5)
        jn++;
    int marked = jn == s && predict(p, (int)n, is321, h, n, fields, s, bits);
    PyMem_Free(fields);
    if (!marked)
        return hand_over("predicted_triples", args, nargs);

    size_t words = ((size_t)n * n * n + 63) / 64, total = 0;
    for (size_t w = 0; w < words; w++)
        total += __builtin_popcountll(bits[w]);
    Py_ssize_t *triples = PyMem_New(Py_ssize_t, 3 * total + 1);
    if (triples == NULL)
        return PyErr_NoMemory();
    Py_ssize_t *t = triples;
    for (size_t w = 0; w < words; w++)
        for (uint64_t b = bits[w]; b; b &= b - 1) {
            Py_ssize_t i = 64 * w + __builtin_ctzll(b);
            *t++ = i / (n * n) + 1;
            *t++ = i / n % n + 1;
            *t++ = i % n + 1;
        }
    PyObject *result = to_tuple(triples, total, 3);
    PyMem_Free(triples);
    return result;
}

PyDoc_STRVAR(count_pair_doc,
"count_pair(values) -> (c312, c321)\n\n"
"Number of (3,1,2)- and of (3,2,1)-occurrences in a permutation of 1..n.\n"
"Hands over as heights_321 does.");

static PyObject *
count_pair(PyObject *module, PyObject *values)
{
    int p[MAXN], c312, c321;
    slot state[MAXN];
    Py_ssize_t n = read_perm(values, p, -1);
    if (n < 0)
        return hand_over("count_pair", &values, 1);
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

/* ---- the bijection audit (permdyck.audit.audit_bijections) -------------
 *
 * audit_images runs, over S_n in lexicographic order, the checks of the
 * audit that read one encoder image, with the bodies above: scan, the
 * heights, place, decode_table and predict.  It regenerates S_n in place
 * (next_perm) and carries the heights and the census state of the entries
 * that did not move from one permutation to the next (audit_advance), so
 * that a permutation's heights and counts cost O(n) for each entry that
 * moved.  Its images come from one of two sources:
 *
 *   the images route  a list of the n! images of whatever encoder the audit
 *                     runs, one str per permutation, read in place;
 *   the walk          no list: each image is the stock encoder's, written
 *                     into one buffer by heights_312_c, heights_321_c and
 *                     write_path (encode_path's rule), so no permutation,
 *                     image or encoder call becomes a Python object.
 *
 * The walk also checks injectivity.  Once valid-image and
 * descents-available hold, an image's parsed down-step heights h_i lie in
 * 0..n - 1 - i: the digits of a mixed-radix index below n!, marked in a
 * bitmap of n! bits.  Images with distinct heights are distinct, so no
 * index marked twice means no image repeated.  An index marked twice, or an
 * image that does not index, hands the walk over; the audit then runs the
 * images route, where the set of images and the counterexample texts are
 * Python's.  Either way the answer names, as tuples and str built here,
 * the first host and image failing each check, the hosts with no occurrence
 * and their images, and the hosts with one. */

/* S_13 is out of reach: 6.2e9 permutations, a bitmap of 778 MB for the
 * walk and n! str for the images route */
#define AUDIT_MAXN 12

/* The checks audit_images runs, in the audit's order; the (3,2,1) audit
 * runs all but the decode round trip and the single-occurrence shape. */
enum {
    VALID_IMAGE, JUMP_SANDWICH, DOWN_STEP_HEIGHTS, MAXIMA_ARE_PEAKS, DESCENTS_AVAILABLE,
    UPS_AFTER_JUMP, JUMP_COUNT_BOUND, DECODE_PSI312_ROUNDTRIP, SINGLE_OCCURRENCE_SHAPE,
    PREDICTED_SUBSET, PREDICTED_TOTAL, AUDIT_CHECKS
};
static const char *const audit_check_names[AUDIT_CHECKS] = {
    "valid-image", "jump-sandwich", "down-step-heights", "maxima-are-peaks", "descents-available",
    "ups-after-jump", "jump-count-bound", "decode-psi312-roundtrip", "single-occurrence-shape",
    "predicted-subset", "predicted-total",
};

/* The permutation after p in lexicographic order, in place (p is not the
 * last).  Returns the first position that changed. */
static int
next_perm(int *p, int n)
{
    int i = n - 2, j = n - 1;
    while (p[i] > p[i + 1])
        i--;
    while (p[j] < p[i])
        j--;
    int t = p[i], from = i;
    p[i] = p[j];
    p[j] = t;
    for (i++, j = n - 1; i < j; i++, j--)
        t = p[i], p[i] = p[j], p[j] = t;
    return from;
}

/* What the checks of a permutation share with those of the one before it
 * in lexicographic order, which has the same entries up to some position:
 * the (3,1,2) heights, and per k the census state after placing the first
 * k entries (state[k], as place_prefix leaves it) and the occurrences
 * among them.  All zeros stands for no permutation yet. */
typedef struct {
    Py_ssize_t h312[AUDIT_MAXN];
    slot state[AUDIT_MAXN + 1][AUDIT_MAXN];
    int c312[AUDIT_MAXN + 1], c321[AUDIT_MAXN + 1];
} audit_prefix;

/* Bring a up to date for p, whose entries before position from are those
 * of the permutation a holds.  The heights before from stay: the entries
 * right of each are the same set.  The entry at k is the h312[k]-th
 * smallest (from 0) of the values p[k .. n) left to place. */
static void
audit_advance(audit_prefix *a, const int *p, int n, int from)
{
    heights_312_c(p + from, n - from, a->h312 + from);
    for (int k = from; k < n; k++) {
        int i = (int)a->h312[k];
        a->c312[k + 1] = a->c312[k] + a->state[k][i].two312;
        a->c321[k + 1] = a->c321[k] + a->state[k][i].two321;
        place(a->state[k], n - k, i, a->state[k + 1]);
    }
}

#define FAIL(check) (failed |= 1u << (check))

/* The checks of the audit on the permutation p of 1..n, whose heights and
 * counts a holds, and its image, the len steps (kind, data): a bit per
 * failing check into *out.  buf has room for 7 len entries.  Returns p's
 * occurrence count, -1 if the image is not a valid path (the checks after
 * valid-image then read nothing), or -2 if the audit would compare a
 * prediction for a jump run that predict does not take. */
static int
audit_one(const int *p, int n, int is321, const audit_prefix *a, int kind, const void *data,
          Py_ssize_t len, Py_ssize_t *buf, unsigned *out)
{
    Py_ssize_t *heights = buf, *peaks = buf + len, *spans = buf + 2 * len, nd, ns, jumps = 0;
    unsigned failed = 0;
    if (!scan(kind, data, len, heights, peaks, spans, &nd, &ns)) {
        *out = 1u << VALID_IMAGE;
        return -1;
    }
    if (nd != n)
        FAIL(VALID_IMAGE);
    int sandwiched = 1;
    /* the runs right to left, ups counting the up-steps right of the run */
    for (Py_ssize_t j = ns - 1, i = len, ups = 0; j >= 0; j--) {
        const Py_ssize_t *span = spans + 5 * j;
        for (; i > span[1]; i--)
            ups += PyUnicode_READ(kind, data, i - 1) == 'U';
        if (ups < span[1] - span[0])
            FAIL(UPS_AFTER_JUMP);
        sandwiched &= span[3] > 0 && span[4] > 0;
        jumps += span[1] - span[0];
    }
    if (!sandwiched)
        FAIL(JUMP_SANDWICH);

    Py_ssize_t want[AUDIT_MAXN];
    memcpy(want, a->h312, n * sizeof *want);
    if (is321)
        heights_321_c(p, n, want);
    if (nd != n || memcmp(want, heights, n * sizeof *want) != 0)
        FAIL(DOWN_STEP_HEIGHTS);
    /* peaks[g - 1] == g exactly when down-step g is a peak */
    for (int i = 0, top = 0; i < n; i++) {
        if (p[i] > top) {
            top = p[i];
            if (i >= nd || peaks[i] != i + 1)
                FAIL(MAXIMA_ARE_PEAKS);
        }
    }
    for (Py_ssize_t i = 0; i < nd; i++)
        if (heights[i] > n - 1 - i)
            FAIL(DESCENTS_AVAILABLE);

    int r = is321 ? a->c321[n] : a->c312[n];
    if (jumps > r || (jumps == 0) != (r == 0))
        FAIL(JUMP_COUNT_BOUND);

    if (!is321) {
        Py_ssize_t decoded[AUDIT_MAXN];
        int same = sandwiched && nd == n && decode_table(heights, n, decoded);
        for (int i = 0; same && i < n; i++)
            same = decoded[i] == p[i];
        if (!same)
            FAIL(DECODE_PSI312_ROUNDTRIP);
        /* one jump with d = m = l = 1, its down-step after two up-steps
         * (with m = 1, the one at start - 2 is an up-step already) */
        int single = ns == 1 && spans[1] - spans[0] == 1 && spans[3] == 1 && spans[4] == 1
            && spans[0] >= 3 && PyUnicode_READ(kind, data, spans[0] - 3) == 'U';
        if (single != (r == 1))
            FAIL(SINGLE_OCCURRENCE_SHAPE);
    }

    if (ns > 0 && (ns == 1 || r == 1 || r == 2)) {
        uint64_t bits[(AUDIT_MAXN * AUDIT_MAXN * AUDIT_MAXN + 63) / 64] = {0};
        if (!predict(p, n, is321, heights, nd, spans, ns, bits))
            return -2;
        int total = 0;
        for (int w = 0; w < (n * n * n + 63) / 64; w++)
            for (uint64_t word = bits[w]; word; word &= word - 1, total++) {
                int i = 64 * w + __builtin_ctzll(word), a = i / (n * n), b = i / n % n, c = i % n;
                int x = p[a], y = p[b], z = p[c];
                /* positions a < b < c (predict puts a at or before the jump,
                 * b after it), values in the pattern's order */
                if (!(b < c && (is321 ? x > y && y > z : y < z && z < x)))
                    FAIL(PREDICTED_SUBSET);
            }
        if ((r == 1 || r == 2) && total != r)
            FAIL(PREDICTED_TOTAL);
    }
    *out = failed;
    return r;
}

#undef FAIL

/* Add the permutation p of 1..n to the answer (fails, avoiders, singles) of
 * audit_images: with its image, as the first host of each check in fresh
 * and, for r = 0, as an avoider; without it, for r = 1, as a one-occurrence
 * host.  image is the image's str, or NULL for the len steps at path.
 * Returns 0 with an exception set if an object cannot be made. */
static int
audit_record(const int *p, int n, unsigned fresh, int r, PyObject *image, const Py_UCS1 *path,
             Py_ssize_t len, PyObject *const *out)
{
    Py_ssize_t v[AUDIT_MAXN];
    for (int i = 0; i < n; i++)
        v[i] = p[i];
    PyObject *host = to_tuple(v, n, 0), *pair = NULL;
    int ok = host != NULL;
    if (ok && (fresh || r == 0)) {
        image = image != NULL ? Py_NewRef(image) : PyUnicode_FromKindAndData(PyUnicode_1BYTE_KIND, path, len);
        pair = image == NULL ? NULL : PyTuple_Pack(2, host, image);
        Py_XDECREF(image);
        ok = pair != NULL;
    }
    for (int c = 0; ok && c < AUDIT_CHECKS; c++)
        if (fresh >> c & 1)
            ok = PyDict_SetItemString(out[0], audit_check_names[c], pair) == 0;
    if (ok && (r == 0 || r == 1))
        ok = PyList_Append(out[1 + r], r == 0 ? pair : host) == 0;
    Py_XDECREF(host);
    Py_XDECREF(pair);
    return ok;
}

PyDoc_STRVAR(audit_images_doc,
"audit_images(n, key, images=None) -> (failed, avoiders, singles)\n\n"
"The checks of permdyck.audit.audit_bijections that read one encoder image,\n"
"over S_n in lexicographic order, for the pattern key, \"312\" or \"321\":\n"
"on images[k], the image of the k-th permutation; or, with images omitted,\n"
"on the stock encoder's images, built here, with injectivity checked too.\n"
"Answers a dict from the name of each failing check to its first failing\n"
"permutation (a tuple) and that one's image, the permutations with no\n"
"occurrence whose image is a valid path, each with its image, and those\n"
"with one.  Hands n outside 0..12, any other key, images that are not a\n"
"list or tuple of n! str, an image whose jump runs the prediction does not\n"
"take and, with images omitted, a repeated or unindexable image, to\n"
"_purecount, whose None sends the audit down its next route.");

static PyObject *
audit_images(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2 && nargs != 3)
        return PyErr_Format(PyExc_TypeError, "audit_images expected 2 or 3 arguments, got %zd", nargs);
    PyObject *images = nargs == 3 ? args[2] : Py_None, **items = NULL;
    int overflow, is321 = pattern_key(args[1]), walk = images == Py_None;
    long n = PyLong_Check(args[0]) ? PyLong_AsLongAndOverflow(args[0], &overflow) : -1;
    if (n < 0 || n > AUDIT_MAXN || is321 < 0 || (!walk && !PyTuple_Check(images) && !PyList_Check(images)))
        return hand_over("audit_images", args, nargs);
    /* the walk's images: each step of a path moves at most n in height */
    Py_ssize_t total = 1, longest = n * (n + 1);
    for (long i = 2; i <= n; i++)
        total *= i;
    if (!walk) {
        items = PySequence_Fast_ITEMS(images);
        if (PySequence_Fast_GET_SIZE(images) != total)
            return hand_over("audit_images", args, nargs);
        longest = 0;
        for (Py_ssize_t k = 0; k < total; k++) {
            if (!PyUnicode_Check(items[k]))
                return hand_over("audit_images", args, nargs);
            if (PyUnicode_GET_LENGTH(items[k]) > longest)
                longest = PyUnicode_GET_LENGTH(items[k]);
        }
    }

    /* status: 1 while running, 0 on an error (exception set), -1 to hand over */
    Py_ssize_t *buf = PyMem_New(Py_ssize_t, 7 * longest + 1);
    unsigned char *seen = walk ? PyMem_Calloc(total / 8 + 1, 1) : NULL;
    PyObject *out[3] = {PyDict_New(), PyList_New(0), PyList_New(0)}, *result = NULL;
    int status = out[0] != NULL && out[1] != NULL && out[2] != NULL;
    if (status && (buf == NULL || (walk && seen == NULL))) {
        PyErr_NoMemory();
        status = 0;
    }
    int p[AUDIT_MAXN];
    Py_UCS1 path[AUDIT_MAXN * (AUDIT_MAXN + 1)];
    audit_prefix prefix = {0};
    unsigned failed_so_far = 0;
    for (int i = 0; i < n; i++)
        p[i] = i + 1;
    for (Py_ssize_t k = 0; status == 1 && k < total; k++) {
        audit_advance(&prefix, p, (int)n, k > 0 ? next_perm(p, (int)n) : 0);
        PyObject *image = walk ? NULL : items[k];
        int kind = PyUnicode_1BYTE_KIND;
        const void *data = path;
        Py_ssize_t len;
        if (walk) {
            Py_ssize_t h[AUDIT_MAXN];
            heights_312_c(p, (int)n, h);
            if (is321)
                heights_321_c(p, (int)n, h);
            len = write_path(h, n, path);
        } else {
            kind = PyUnicode_KIND(image);
            data = PyUnicode_DATA(image);
            len = PyUnicode_GET_LENGTH(image);
        }
        unsigned failed;
        int r = audit_one(p, (int)n, is321, &prefix, kind, data, len, buf, &failed);
        if (r == -2 || (walk && (r < 0 || failed & (1u << VALID_IMAGE | 1u << DESCENTS_AVAILABLE)))) {
            status = -1;
            break;
        }
        if (walk) {
            /* the parsed heights, buf[0 .. n), as mixed-radix digits */
            size_t index = 0;
            for (int i = 0; i < n; i++)
                index = index * (n - i) + buf[i];
            if (seen[index / 8] >> (index % 8) & 1) {
                status = -1;
                break;
            }
            seen[index / 8] |= 1u << (index % 8);
        }
        unsigned fresh = failed & ~failed_so_far;
        failed_so_far |= failed;
        if ((fresh || r == 0 || r == 1) && !audit_record(p, (int)n, fresh, r, image, path, len, out))
            status = 0;
    }
    PyMem_Free(buf);
    PyMem_Free(seen);
    if (status == 1)
        result = PyTuple_Pack(3, out[0], out[1], out[2]);
    for (int i = 0; i < 3; i++)
        Py_XDECREF(out[i]);
    return status < 0 ? hand_over("audit_images", args, nargs) : result;
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
"bounded_census(n_max, key, r_max, limit) -> tuple | int\n\n"
"The bounded census of permdyck.census for the pattern key, \"312\" or\n"
"\"321\": per n <= n_max, the numbers of permutations of 1..n with\n"
"0..r_max occurrences; or, when a layer would hold more than limit states\n"
"(None: no bound), that layer's number.  Hands n_max outside 0..34,\n"
"r_max outside 0..14, any other key, or a limit that is neither None nor\n"
"an int, to _purecount.");

static PyObject *
bounded_census(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 4)
        return PyErr_Format(PyExc_TypeError, "bounded_census expected 4 arguments, got %zd", nargs);
    PyObject *n_obj = args[0], *key = args[1], *r_obj = args[2], *limit_obj = args[3];
    int overflow;
    long n = PyLong_Check(n_obj) ? PyLong_AsLongAndOverflow(n_obj, &overflow) : -1;
    long r = PyLong_Check(r_obj) ? PyLong_AsLongAndOverflow(r_obj, &overflow) : -1;
    long long limit = LLONG_MAX;
    if (PyLong_Check(limit_obj)) {
        limit = PyLong_AsLongLongAndOverflow(limit_obj, &overflow);
        if (overflow)
            limit = overflow > 0 ? LLONG_MAX : LLONG_MIN;
    } else if (limit_obj != Py_None) {
        return hand_over("bounded_census", args, nargs);
    }
    int is321 = pattern_key(key);
    if (n < 0 || n > CENSUS_MAXN || r < 0 || r > CENSUS_MAXR || is321 < 0)
        return hand_over("bounded_census", args, nargs);

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
    {"heights_321", (PyCFunction)heights_321, METH_O, heights_321_doc},
    {"scan_path", (PyCFunction)scan_path, METH_O, scan_path_doc},
    {"path_from_heights", (PyCFunction)path_from_heights, METH_O, path_from_heights_doc},
    {"encode_path", (PyCFunction)(void (*)(void))encode_path, METH_FASTCALL, encode_path_doc},
    {"is_permutation", (PyCFunction)is_permutation, METH_O, is_permutation_doc},
    {"decode_psi312", (PyCFunction)decode_psi312, METH_O, decode_psi312_doc},
    {"predicted_triples", (PyCFunction)(void (*)(void))predicted_triples, METH_FASTCALL, predicted_triples_doc},
    {"bounded_census", (PyCFunction)(void (*)(void))bounded_census, METH_FASTCALL, bounded_census_doc},
    {"audit_images", (PyCFunction)(void (*)(void))audit_images, METH_FASTCALL, audit_images_doc},
    {"hand_overs", (PyCFunction)hand_overs, METH_NOARGS, hand_overs_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef fastcount_module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "permdyck._fastcount",
    .m_doc = "Compiled counting kernels, encoder and decoder primitives, jump predictions, the bounded census; see permdyck.kernels.",
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
