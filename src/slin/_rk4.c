/* Compiled RK4 stepping kernel; semantics mirror numeric.rk4_kernel_python.
 *
 * Both kernels run the same IEEE double operations in the same order, so
 * trajectories agree bit for bit between backends. That requires building
 * without floating-point contraction (-ffp-contract=off, set in setup.py):
 * a fused multiply-add rounds once where Python rounds twice.
 *
 * A compiled map arrives as CSR arrays (numeric.CompiledField) and is
 * evaluated over a flat term stream, built from them once per call: term t
 * takes count[t] multiplications, whose state indices follow one another in
 * `mults`, a factor x^e spelled as e copies of x's index. A component sums
 * its terms comp_ptr[c]:comp_ptr[c+1] in a register, and a term multiplies
 * its coefficient by its run of the stream. This replaced a nested walk
 * over each term's factors and each factor's exponent, whose two inner
 * loops of varying trip count cost several times the arithmetic on the
 * one-factor terms of a lift. The stream takes the same multiplications and
 * additions in the same order as numeric._eval_into, so results stay bit
 * for bit those of the pure twin.
 *
 * The module also evaluates a compiled polynomial map once (eval_into, the
 * start state of a lift), takes the projection error between two flat
 * trajectories (projection_error), each mirroring its pure twin in
 * slin.numeric, and formats trajectory rows as CSV text (format_rows), every
 * value byte for byte equal to its Python repr.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

/* A compiled map of `dim` components as a flat term stream. */
typedef struct {
    Py_ssize_t dim;
    const int *comp_ptr;  /* component c owns terms comp_ptr[c]:comp_ptr[c+1] */
    const double *coeff;
    int *count;           /* the multiplications of term t */
    int *mults;           /* the state indices multiplied in, term after term */
} term_stream;

static void
eval_into(const term_stream *s, const double *restrict y, double *restrict res)
{
    const int *restrict comp_ptr = s->comp_ptr, *restrict count = s->count;
    const int *restrict m = s->mults;
    const double *restrict coeff = s->coeff;
    int t = 0;
    for (Py_ssize_t c = 0; c < s->dim; c++) {
        double acc = 0.0;
        for (; t < comp_ptr[c + 1]; t++) {
            double v = coeff[t];
            for (int k = count[t]; k > 0; k--)
                v *= y[*m++];
            acc += v;
        }
        res[c] = acc;
    }
}

/* A one-dimensional C-contiguous buffer of `typecode` ('i' or 'd'). */
static int
get_buffer(PyObject *obj, char typecode, int flags, Py_buffer *view,
           const char *name)
{
    if (PyObject_GetBuffer(obj, view, flags | PyBUF_FORMAT | PyBUF_STRIDES) < 0)
        return -1;
    Py_ssize_t itemsize = typecode == 'i' ? sizeof(int) : sizeof(double);
    const char *fmt = view->format;
    if (fmt[0] == '@')
        fmt++;
    if (fmt[0] != typecode || fmt[1] != '\0' || view->itemsize != itemsize) {
        PyErr_Format(PyExc_TypeError, "%s must be a buffer of typecode '%c', "
                     "not '%s'", name, typecode, view->format);
    }
    else if (view->ndim != 1 || !PyBuffer_IsContiguous(view, 'C')) {
        PyErr_Format(PyExc_ValueError, "%s must be one-dimensional and "
                     "contiguous", name);
    }
    else {
        return 0;
    }
    PyBuffer_Release(view);
    return -1;
}

/* The indices the evaluation follows stay inside the buffers they index:
 * n_out components over a state of n_in doubles. Every exponent is
 * nonnegative and the term stream spells at most INT_MAX multiplications;
 * their number is stored in *n_mults. */
static int
check_layout(Py_ssize_t n_out, Py_ssize_t n_in, const Py_buffer *cp,
             const Py_buffer *co, const Py_buffer *tp, const Py_buffer *fv,
             const Py_buffer *fe, Py_ssize_t *n_mults)
{
    const int *comp_ptr = cp->buf, *term_ptr = tp->buf, *fvar = fv->buf;
    const int *fexp = fe->buf;
    Py_ssize_t n_terms = co->len / co->itemsize;
    Py_ssize_t n_factors = fv->len / fv->itemsize;
    Py_ssize_t total = 0;
    if (cp->len / cp->itemsize != n_out + 1 || comp_ptr[0] != 0
        || comp_ptr[n_out] != n_terms || tp->len / tp->itemsize != n_terms + 1
        || term_ptr[0] != 0 || term_ptr[n_terms] != n_factors
        || fe->len / fe->itemsize != n_factors)
        goto bad;
    for (Py_ssize_t c = 0; c < n_out; c++)
        if (comp_ptr[c] > comp_ptr[c + 1])
            goto bad;
    for (Py_ssize_t t = 0; t < n_terms; t++)
        if (term_ptr[t] > term_ptr[t + 1])
            goto bad;
    for (Py_ssize_t f = 0; f < n_factors; f++) {
        if (fvar[f] < 0 || fvar[f] >= n_in)
            goto bad;
        if (fexp[f] < 0) {
            PyErr_SetString(PyExc_ValueError,
                            "compiled field exponents must be nonnegative");
            return -1;
        }
        total += fexp[f];
        if (total > INT_MAX) {
            PyErr_SetString(PyExc_ValueError, "compiled field has more than "
                            "INT_MAX multiplications per evaluation");
            return -1;
        }
    }
    *n_mults = total;
    return 0;
bad:
    PyErr_SetString(PyExc_ValueError,
                    "compiled field arrays are inconsistent with the state size");
    return -1;
}

/* The term stream of CSR arrays that passed check_layout, in one block of
 * memory that s->count owns. */
static int
build_stream(term_stream *s, Py_ssize_t dim, const Py_buffer *views,
             Py_ssize_t n_mults)
{
    const int *term_ptr = views[2].buf, *fvar = views[3].buf;
    const int *fexp = views[4].buf;
    Py_ssize_t n_terms = views[1].len / (Py_ssize_t)sizeof(double);
    s->dim = dim;
    s->comp_ptr = views[0].buf;
    s->coeff = views[1].buf;
    s->count = PyMem_New(int, n_terms + n_mults);
    if (s->count == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    s->mults = s->count + n_terms;
    int *m = s->mults;
    for (Py_ssize_t t = 0; t < n_terms; t++) {
        int *first = m;
        for (int f = term_ptr[t]; f < term_ptr[t + 1]; f++)
            for (int e = 0; e < fexp[f]; e++)
                *m++ = fvar[f];
        s->count[t] = (int)(m - first);
    }
    return 0;
}

static PyObject *
rk4_kernel(PyObject *self, PyObject *args)
{
    static const char *names[] = {"comp_ptr", "coeff", "term_ptr", "fvar",
                                  "fexp", "y", "out"};
    static const char codes[] = "idiiidd";
    PyObject *objs[7];
    Py_buffer views[7];
    double step, *buf = NULL;
    Py_ssize_t n_steps, n_mults, completed, held = 0;
    term_stream stream = {0};
    PyObject *result = NULL;

    (void)self;
    if (!PyArg_ParseTuple(args, "OOOOOOdnO:rk4_kernel", &objs[0], &objs[1],
                          &objs[2], &objs[3], &objs[4], &objs[5], &step,
                          &n_steps, &objs[6]))
        return NULL;
    for (; held < 7; held++)
        if (get_buffer(objs[held], codes[held], held == 6 ? PyBUF_WRITABLE : 0,
                       &views[held], names[held]) < 0)
            goto done;

    Py_ssize_t dim = views[5].len / (Py_ssize_t)sizeof(double);
    if (n_steps < 0) {
        PyErr_SetString(PyExc_ValueError, "n_steps must be nonnegative");
        goto done;
    }
    if (dim > 0 && views[6].len / (Py_ssize_t)sizeof(double) / dim <= n_steps) {
        PyErr_Format(PyExc_ValueError, "out holds %zd doubles, %zd steps of a "
                     "%zd-dimensional state need more", views[6].len /
                     (Py_ssize_t)sizeof(double), n_steps, dim);
        goto done;
    }
    if (check_layout(dim, dim, &views[0], &views[1], &views[2], &views[3],
                     &views[4], &n_mults) < 0
        || build_stream(&stream, dim, views, n_mults) < 0)
        goto done;
    buf = PyMem_New(double, 7 * dim);
    if (buf == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    const double *y0 = views[5].buf;
    double *out = views[6].buf;
    double *y = buf, *k1 = buf + dim, *k2 = buf + 2 * dim, *k3 = buf + 3 * dim;
    double *k4 = buf + 4 * dim, *ytmp = buf + 5 * dim, *lost = buf + 6 * dim;
    double half = 0.5 * step, sixth = step / 6.0;

    for (Py_ssize_t i = 0; i < dim; i++) {
        y[i] = y0[i];
        lost[i] = 0.0;
        out[i] = y[i];
    }
    for (completed = 0; completed < n_steps; completed++) {
        eval_into(&stream, y, k1);
        for (Py_ssize_t i = 0; i < dim; i++)
            ytmp[i] = y[i] + half * k1[i];
        eval_into(&stream, ytmp, k2);
        for (Py_ssize_t i = 0; i < dim; i++)
            ytmp[i] = y[i] + half * k2[i];
        eval_into(&stream, ytmp, k3);
        for (Py_ssize_t i = 0; i < dim; i++)
            ytmp[i] = y[i] + step * k3[i];
        eval_into(&stream, ytmp, k4);
        int ok = 1;
        for (Py_ssize_t i = 0; i < dim; i++) {
            /* Kahan-compensated accumulation, matching the Python twin. */
            double delta = sixth * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
                           + lost[i];
            double t = y[i] + delta;
            lost[i] = delta - (t - y[i]);
            y[i] = t;
            if (!isfinite(t))
                ok = 0;
        }
        if (!ok)
            break;
        double *row = out + (completed + 1) * dim;
        for (Py_ssize_t i = 0; i < dim; i++)
            row[i] = y[i];
    }
    result = PyLong_FromSsize_t(completed);
done:
    PyMem_Free(buf);
    PyMem_Free(stream.count);
    while (held > 0)
        PyBuffer_Release(&views[--held]);
    return result;
}

static PyObject *
py_eval_into(PyObject *self, PyObject *args)
{
    static const char *names[] = {"comp_ptr", "coeff", "term_ptr", "fvar",
                                  "fexp", "y", "res"};
    static const char codes[] = "idiiidd";
    PyObject *objs[7];
    Py_buffer views[7];
    Py_ssize_t n_mults, held = 0;
    term_stream stream = {0};
    PyObject *result = NULL;

    (void)self;
    if (!PyArg_ParseTuple(args, "OOOOOOO:eval_into", &objs[0], &objs[1],
                          &objs[2], &objs[3], &objs[4], &objs[5], &objs[6]))
        return NULL;
    for (; held < 7; held++)
        if (get_buffer(objs[held], codes[held], held == 6 ? PyBUF_WRITABLE : 0,
                       &views[held], names[held]) < 0)
            goto done;

    Py_ssize_t n_in = views[5].len / (Py_ssize_t)sizeof(double);
    Py_ssize_t n_out = views[6].len / (Py_ssize_t)sizeof(double);
    uintptr_t y = (uintptr_t)views[5].buf, res = (uintptr_t)views[6].buf;
    /* eval_into reads y through a restrict pointer while it writes res. */
    if (n_in > 0 && n_out > 0 && y < res + (uintptr_t)views[6].len
        && res < y + (uintptr_t)views[5].len) {
        PyErr_SetString(PyExc_ValueError, "res must not overlap y");
        goto done;
    }
    if (check_layout(n_out, n_in, &views[0], &views[1], &views[2], &views[3],
                     &views[4], &n_mults) < 0
        || build_stream(&stream, n_out, views, n_mults) < 0)
        goto done;
    eval_into(&stream, views[5].buf, views[6].buf);
    Py_INCREF(Py_None);
    result = Py_None;
done:
    PyMem_Free(stream.count);
    while (held > 0)
        PyBuffer_Release(&views[--held]);
    return result;
}

/* max over i < n and samples k of |zs[k*dim_z + i] - xs[k*n + i]|, taken as
 * numeric.projection_error_python takes it: the first value of a column
 * stands until a later one compares greater, column by column, then over
 * the columns in order. */
static PyObject *
projection_error(PyObject *self, PyObject *args)
{
    PyObject *zobj, *xobj, *result = NULL;
    Py_ssize_t dim_z, n;
    Py_buffer zv, xv;

    (void)self;
    if (!PyArg_ParseTuple(args, "OnOn:projection_error", &zobj, &dim_z, &xobj,
                          &n))
        return NULL;
    if (get_buffer(zobj, 'd', 0, &zv, "zs") < 0)
        return NULL;
    if (get_buffer(xobj, 'd', 0, &xv, "xs") < 0) {
        PyBuffer_Release(&zv);
        return NULL;
    }
    Py_ssize_t len_z = zv.len / (Py_ssize_t)sizeof(double);
    Py_ssize_t len_x = xv.len / (Py_ssize_t)sizeof(double);
    if (n < 0 || dim_z < n || dim_z < 1 || len_z % dim_z != 0
        || (n > 0 && len_x % n != 0)) {
        PyErr_SetString(PyExc_ValueError, "zs must hold whole samples of "
                        "dim_z >= n doubles and xs whole samples of n");
        goto done;
    }
    double best = 0.0;
    if (n > 0) {
        Py_ssize_t samples = len_z / dim_z < len_x / n ? len_z / dim_z
                                                       : len_x / n;
        if (samples == 0) {
            PyErr_SetString(PyExc_ValueError, "no samples to compare");
            goto done;
        }
        const double *zs = zv.buf, *xs = xv.buf;
        for (Py_ssize_t i = 0; i < n; i++) {
            double col = fabs(zs[i] - xs[i]);
            for (Py_ssize_t k = 1; k < samples; k++) {
                double d = fabs(zs[k * dim_z + i] - xs[k * n + i]);
                if (d > col)
                    col = d;
            }
            if (i == 0 || col > best)
                best = col;
        }
    }
    result = PyFloat_FromDouble(best);
done:
    PyBuffer_Release(&xv);
    PyBuffer_Release(&zv);
    return result;
}

/* ---- CSV rows ------------------------------------------------------------ */

/* UTF-8 text under construction. */
typedef struct {
    char *buf;
    Py_ssize_t len, cap;
} text_buf;

static int
reserve(text_buf *tb, Py_ssize_t extra)
{
    if (tb->len + extra <= tb->cap)
        return 0;
    Py_ssize_t cap = tb->cap ? tb->cap : 4096;
    while (cap < tb->len + extra) {
        if (cap > PY_SSIZE_T_MAX / 2) {
            PyErr_NoMemory();
            return -1;
        }
        cap *= 2;
    }
    char *grown = PyMem_Realloc(tb->buf, cap);
    if (grown == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    tb->buf = grown;
    tb->cap = cap;
    return 0;
}

static int
append(text_buf *tb, const char *text, Py_ssize_t n)
{
    if (reserve(tb, n) < 0)
        return -1;
    memcpy(tb->buf + tb->len, text, n);
    tb->len += n;
    return 0;
}

#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;

static const uint64_t POW10[20] = {
    UINT64_C(1), UINT64_C(10), UINT64_C(100), UINT64_C(1000),
    UINT64_C(10000), UINT64_C(100000), UINT64_C(1000000),
    UINT64_C(10000000), UINT64_C(100000000), UINT64_C(1000000000),
    UINT64_C(10000000000), UINT64_C(100000000000),
    UINT64_C(1000000000000), UINT64_C(10000000000000),
    UINT64_C(100000000000000), UINT64_C(1000000000000000),
    UINT64_C(10000000000000000), UINT64_C(100000000000000000),
    UINT64_C(1000000000000000000), UINT64_C(10000000000000000000),
};

/* repr(v) for 2^-12 <= |v| < 2^54, written to `out` (room for 32 bytes);
 * returns its length, or 0 for any other double (zeros, subnormals, inf, nan
 * and magnitudes outside that window).
 *
 * repr prints the shortest digit string that reads back as v, and of those
 * the one nearest v (Steele & White, PLDI 1990; Adams, PLDI 2018). With
 * v = m 2^e and k = 2 - e, the reals that read back as v form the interval
 * [4m - 2, 4m + 2] / 2^k, closed when m is even; at a power-of-two m the
 * lower gap is half as wide, [4m - 1, ...]. Scaling by 10^s, s = ceil(k log10
 * 2) + 1 <= 21, makes the interval at least 30 wide, and one 128-bit multiply
 * per endpoint gives the scaled endpoints' integer parts exactly, each below
 * 2^62, with the fraction bits below them telling whether they are integral.
 * The answer is the multiple of the largest power of ten 10^p that has one
 * inside the scaled interval, nearest to scaled v with ties to even.
 *
 * Inside this window neither the closed ends nor the narrower lower gap ever
 * changes the answer: v has fewer binary fraction digits than either end, so
 * it is itself a multiple of every power of ten an end is a multiple of, and
 * no power of two here has a shorter string in the quarter ulp the narrower
 * gap leaves out. Both stay so that the interval is exactly the set of reals
 * that read back as v, whatever the window.
 */
static int
format_shortest(double v, char *out)
{
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    int e = (int)((bits >> 52) & 0x7ff) - 1075; /* v = m 2^e */
    if (e < -64 || e > 1)
        return 0;
    uint64_t m = (bits & ((UINT64_C(1) << 52) - 1)) | (UINT64_C(1) << 52);
    int k = 2 - e;                               /* 1..66 */
    int s = ((k * 78913) >> 18) + 2;             /* floor(k log10 2) + 2 */
    u128 scale = s <= 19 ? (u128)POW10[s] : (u128)POW10[19] * POW10[s - 19];
    u128 below = ((u128)1 << k) - 1;             /* fraction bits */
    uint64_t gap = m == UINT64_C(1) << 52 ? 1 : 2;
    u128 lo = (u128)(4 * m - gap) * scale;
    u128 mid = (u128)(4 * m) * scale;
    u128 hi = (u128)(4 * m + 2) * scale;
    int closed = (m & 1) == 0;

    /* The integers inside the scaled interval are (l, h]. */
    uint64_t l = (uint64_t)(lo >> k) - (closed && (lo & below) == 0);
    uint64_t h = (uint64_t)(hi >> k) - (!closed && (hi & below) == 0);
    /* Divide both ends by 10 while a multiple of the next power of ten still
       lies in the interval; then the multiples q 10^p inside have
       l < q <= h. */
    uint64_t pow = 1;
    int p = 0;
    while (l / 10 != h / 10) {
        l /= 10;
        h /= 10;
        pow *= 10;
        p++;
    }
    uint64_t scaled = (uint64_t)(mid >> k);
    uint64_t q = scaled / pow, rem = scaled % pow, half = pow / 2;
    if (rem > half || (rem == half && ((mid & below) != 0 || (q & 1))))
        q++;
    if (q <= l)
        q = l + 1;
    else if (q > h)
        q = h;

    char digits[24];
    int nd = 0;
    for (uint64_t r = q; r; r /= 10)
        nd++;
    for (int i = nd - 1; i >= 0; i--, q /= 10)
        digits[i] = (char)('0' + q % 10);
    int decpt = nd + p - s; /* v is 0.<digits> times 10^decpt */

    /* Laid out as PyOS_double_to_string(v, 'r', 0, Py_DTSF_ADD_DOT_0). */
    char *o = out;
    if (bits >> 63)
        *o++ = '-';
    if (decpt <= -4 || decpt > 16) {
        int x = decpt - 1;
        *o++ = digits[0];
        if (nd > 1) {
            *o++ = '.';
            memcpy(o, digits + 1, nd - 1);
            o += nd - 1;
        }
        *o++ = 'e';
        *o++ = x < 0 ? '-' : '+';
        x = x < 0 ? -x : x;
        if (x >= 100) {
            *o++ = (char)('0' + x / 100);
            x %= 100;
        }
        *o++ = (char)('0' + x / 10);
        *o++ = (char)('0' + x % 10);
    }
    else if (decpt <= 0) {
        *o++ = '0';
        *o++ = '.';
        memset(o, '0', -decpt);
        o += -decpt;
        memcpy(o, digits, nd);
        o += nd;
    }
    else if (decpt < nd) {
        memcpy(o, digits, decpt);
        o += decpt;
        *o++ = '.';
        memcpy(o, digits + decpt, nd - decpt);
        o += nd - decpt;
    }
    else {
        memcpy(o, digits, nd);
        o += nd;
        memset(o, '0', decpt - nd);
        o += decpt - nd;
        *o++ = '.';
        *o++ = '0';
    }
    return (int)(o - out);
}
#else
/* Without 128-bit integers every value takes PyOS_double_to_string. */
static int
format_shortest(double v, char *out)
{
    (void)v;
    (void)out;
    return 0;
}
#endif

/* Append repr(obj). */
static int
append_repr(text_buf *tb, PyObject *obj)
{
    if (PyFloat_CheckExact(obj)) {
        double v = PyFloat_AS_DOUBLE(obj);
        if (reserve(tb, 32) < 0)
            return -1;
        int n = format_shortest(v, tb->buf + tb->len);
        if (n > 0) {
            tb->len += n;
            return 0;
        }
        /* What float.__repr__ itself calls. */
        char *text = PyOS_double_to_string(v, 'r', 0, Py_DTSF_ADD_DOT_0, NULL);
        if (text == NULL)
            return -1;
        int rc = append(tb, text, (Py_ssize_t)strlen(text));
        PyMem_Free(text);
        return rc;
    }
    PyObject *repr = PyObject_Repr(obj);
    if (repr == NULL)
        return -1;
    Py_ssize_t n;
    const char *text = PyUnicode_AsUTF8AndSize(repr, &n);
    int rc = text == NULL ? -1 : append(tb, text, n);
    Py_DECREF(repr);
    return rc;
}

/* Append the items of `seq`, each preceded by a comma. */
static int
append_state(text_buf *tb, PyObject *state)
{
    PyObject *seq = PySequence_Fast(state, "each state must be iterable");
    if (seq == NULL)
        return -1;
    int rc = 0;
    for (Py_ssize_t i = 0; rc == 0 && i < PySequence_Fast_GET_SIZE(seq); i++) {
        PyObject *item = PySequence_Fast_GET_ITEM(seq, i);
        Py_INCREF(item);
        rc = append(tb, ",", 1) < 0 || append_repr(tb, item) < 0 ? -1 : 0;
        Py_DECREF(item);
    }
    Py_DECREF(seq);
    return rc;
}

static PyObject *
format_rows(PyObject *self, PyObject *args)
{
    PyObject *times, *states, *tseq = NULL, *sseq = NULL, *result = NULL;
    Py_ssize_t start, stop;
    text_buf tb = {NULL, 0, 0};

    (void)self;
    if (!PyArg_ParseTuple(args, "OOnn:format_rows", &times, &states, &start,
                          &stop))
        return NULL;
    tseq = PySequence_Fast(times, "times must be iterable");
    if (tseq == NULL)
        goto done;
    sseq = PySequence_Fast(states, "states must be iterable");
    if (sseq == NULL)
        goto done;
    for (Py_ssize_t r = start < 0 ? 0 : start; r < stop; r++) {
        /* Rows pair up as zip(times, states) pairs them. */
        if (r >= PySequence_Fast_GET_SIZE(tseq)
            || r >= PySequence_Fast_GET_SIZE(sseq))
            break;
        PyObject *t = PySequence_Fast_GET_ITEM(tseq, r);
        PyObject *state = PySequence_Fast_GET_ITEM(sseq, r);
        Py_INCREF(t);
        Py_INCREF(state);
        int rc = append_repr(&tb, t) < 0 || append_state(&tb, state) < 0
                 || append(&tb, "\n", 1) < 0;
        Py_DECREF(t);
        Py_DECREF(state);
        if (rc)
            goto done;
    }
    result = PyUnicode_DecodeUTF8(tb.buf ? tb.buf : "", tb.len, NULL);
done:
    PyMem_Free(tb.buf);
    Py_XDECREF(tseq);
    Py_XDECREF(sseq);
    return result;
}

static PyMethodDef methods[] = {
    {"rk4_kernel", rk4_kernel, METH_VARARGS,
     "rk4_kernel(comp_ptr, coeff, term_ptr, fvar, fexp, y, step, n_steps, out)"
     "\n--\n\nRK4 stepping over a compiled field; see "
     "slin.numeric.rk4_kernel_python for the contract."},
    {"eval_into", py_eval_into, METH_VARARGS,
     "eval_into(comp_ptr, coeff, term_ptr, fvar, fexp, y, res)\n--\n\n"
     "Write the len(res) components of a compiled polynomial map at the "
     "point y into res; see slin.numeric._eval_into for the contract."},
    {"projection_error", projection_error, METH_VARARGS,
     "projection_error(zs, dim_z, xs, n)\n--\n\nLargest |z_i - x_i|, "
     "i < n, over the samples of two flat trajectories; see "
     "slin.numeric.projection_error_python for the contract."},
    {"format_rows", format_rows, METH_VARARGS,
     "format_rows(times, states, start, stop)\n--\n\nCSV rows start:stop "
     "of a trajectory, one 't,<state...>' line per sample, every value "
     "rendered exactly as repr renders it."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "slin._rk4",
    .m_doc = "Compiled RK4 stepping kernel, polynomial map evaluation and "
             "projection error, bit for bit equal to their pure twins, and a "
             "CSV row formatter, byte for byte equal to repr.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__rk4(void)
{
    return PyModule_Create(&module);
}
