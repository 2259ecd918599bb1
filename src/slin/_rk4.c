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
 * its coefficient by its run of the stream. The stream takes the same
 * multiplications and additions in the same order as numeric._eval_into,
 * so results stay bit for bit those of the pure twin.
 *
 * A field whose every term multiplies at most one state value is affine,
 * y' = A y + b, and one RK4 step of it is the affine map y + (R(hA) - I) y
 * + c, R being RK4's stability polynomial. rk4_kernel builds that map once
 * per call from its own stage arithmetic (rk4_increment over a slot stream,
 * in which a constant term reads a slot fixed at 1.0, from each unit
 * vector), with exact zeros left out, and then takes one sparse product per
 * step, followed by the same compensated update, finiteness check and row
 * write as the stage loop. The product sums the map's rows in slices of
 * four rows of like length, one register each (step_map): each row is
 * still summed from 0.0 by ascending column, so the bits are those of the
 * twin's row by row loop, while the inner loop's trip count stays the same
 * for four rows and their sums run side by side: a loop over one row at a
 * time, rows of 0 to 22 entries, ran up to 40% slower depending only on
 * where the linker placed it. The map is the RK4 step up to roundoff, so
 * an affine field's last bits differ from those of its four stages. A
 * non-finite map entry makes its row of the first step inf or nan, whatever
 * the start state, so such a field diverges at step 0. Every other field is
 * stepped by its four stages, as before.
 *
 * Each sample's first `keep` coordinates are written to `out` (all of them
 * by default); every coordinate is checked for finiteness, stored or not,
 * so a run diverges at the same step whatever it keeps.
 *
 * The module also evaluates a compiled polynomial map once (eval_into, the
 * start state of a lift), takes the projection error between two flat
 * trajectories (projection_error) and formats the rows of a flat trajectory
 * as CSV text (format_rows), each mirroring its pure twin in slin.numeric:
 * the formatter reads the doubles the kernel wrote, dim per sample, and
 * renders t = k * step and every state value byte for byte as repr does,
 * writing shortest digits (format_shortest) straight into an ASCII string.
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

/* inc[i] = (step/6)(k1 + 2 k2 + 2 k3 + k4)[i] for i < dim: RK4's increment
 * from the state y, with the stages evaluated over the stream s. y[dim], the
 * slot that the constant terms of a slot stream read, carries through the
 * stages unchanged. w is workspace for 5 dim + 1 doubles. */
static void
rk4_increment(const term_stream *s, double step, const double *y, double *w,
              double *inc)
{
    Py_ssize_t dim = s->dim;
    double *k1 = w, *k2 = w + dim, *k3 = w + 2 * dim, *k4 = w + 3 * dim;
    double *ytmp = w + 4 * dim;
    double half = 0.5 * step, sixth = step / 6.0;

    ytmp[dim] = y[dim];
    eval_into(s, y, k1);
    for (Py_ssize_t i = 0; i < dim; i++)
        ytmp[i] = y[i] + half * k1[i];
    eval_into(s, ytmp, k2);
    for (Py_ssize_t i = 0; i < dim; i++)
        ytmp[i] = y[i] + half * k2[i];
    eval_into(s, ytmp, k3);
    for (Py_ssize_t i = 0; i < dim; i++)
        ytmp[i] = y[i] + step * k3[i];
    eval_into(s, ytmp, k4);
    for (Py_ssize_t i = 0; i < dim; i++)
        inc[i] = sixth * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
}

/* RK4's step map of an affine field: inc = M (y, 1), column dim reading the
 * slot fixed at 1.0. Its rows are ordered by length, longest first and ties
 * by row index (position r holds row row[r]), and cut into slices of four
 * positions. Slice s is as long as its first row, len[s] entries, and
 * stores entry k of its four rows side by side, each row's entries by
 * ascending column. A row shorter than its slice, and a position past the
 * last row, is padded with -0.0 times the slot, and x + -0.0 is x for every
 * double x, so the padding changes no sum. One block of memory, which `val`
 * owns. */
typedef struct {
    double *val;
    Py_ssize_t n_slices;
    Py_ssize_t *len;
    int *row, *col;
} step_map;

/* Whether the stream of a field is affine, every term multiplying at most
 * one state value. The column indices of its step map are ints. */
static int
is_affine(const term_stream *s)
{
    if (s->dim >= INT_MAX)
        return 0;
    for (int t = 0; t < s->comp_ptr[s->dim]; t++)
        if (s->count[t] > 1)
            return 0;
    return 1;
}

/* The step map of an affine stream. Column j is rk4_increment from the unit
 * vector e_j of dim + 1 values, taken over the slot stream: every term reads
 * one value, a constant term the slot. So column dim is the increment from
 * the zero state, and exact zeros are left out. */
static int
build_step_map(const term_stream *s, double step, step_map *map)
{
    Py_ssize_t dim = s->dim, n_terms = s->comp_ptr[dim];
    Py_ssize_t nnz = 0, cap = 4 * (dim + 1);
    int *slot_count = PyMem_New(int, 2 * n_terms + 1);
    double *work = PyMem_New(double, 7 * dim + 2);
    Py_ssize_t *col_ptr = PyMem_New(Py_ssize_t, dim + 2);
    Py_ssize_t *at = PyMem_New(Py_ssize_t, 3 * dim + 2);
    int *rows = PyMem_New(int, cap);
    double *vals = PyMem_New(double, cap);
    int ok = -1;

    map->val = NULL;
    if (slot_count == NULL || work == NULL || col_ptr == NULL || at == NULL
        || rows == NULL || vals == NULL)
        goto done;
    term_stream slot = {dim, s->comp_ptr, s->coeff, slot_count,
                        slot_count + n_terms};
    const int *m = s->mults;
    for (Py_ssize_t t = 0; t < n_terms; t++) {
        slot.count[t] = 1;
        slot.mults[t] = s->count[t] ? *m++ : (int)dim;
    }
    double *z = work, *inc = work + dim + 1, *w = work + 2 * dim + 1;
    for (Py_ssize_t i = 0; i <= dim; i++)
        z[i] = 0.0;
    /* The columns as they come, CSC: column j owns col_ptr[j]:col_ptr[j+1]. */
    col_ptr[0] = 0;
    for (Py_ssize_t j = 0; j <= dim; j++) {
        z[j] = 1.0;
        rk4_increment(&slot, step, z, w, inc);
        z[j] = 0.0;
        if (cap - nnz < dim) {
            cap = 2 * cap + dim;
            int *more_rows = PyMem_Resize(rows, int, cap);
            if (more_rows == NULL)
                goto done;
            rows = more_rows;
            double *more_vals = PyMem_Resize(vals, double, cap);
            if (more_vals == NULL)
                goto done;
            vals = more_vals;
        }
        for (Py_ssize_t i = 0; i < dim; i++)
            if (inc[i] != 0.0) {
                rows[nnz] = (int)i;
                vals[nnz++] = inc[i];
            }
        col_ptr[j + 1] = nnz;
    }

    /* Row i's length, length[i], and the number of rows of each length
       0..dim + 1, count[len]. */
    Py_ssize_t *length = at, *count = at + dim, *entry = at + 2 * dim + 2;
    for (Py_ssize_t i = 0; i < 2 * dim + 2; i++)
        at[i] = 0;
    for (Py_ssize_t k = 0; k < nnz; k++)
        length[rows[k]]++;
    for (Py_ssize_t i = 0; i < dim; i++)
        count[length[i]]++;
    /* count[len] turns into the first position of the rows of length len;
       a slice takes four entries per entry of the row it starts with. */
    Py_ssize_t n_slices = (dim + 3) / 4, padded = 0, r = 0;
    for (Py_ssize_t len = dim + 1; len >= 0; len--) {
        Py_ssize_t rows_of_len = count[len];
        count[len] = r;
        for (; rows_of_len > 0; rows_of_len--, r++)
            if (r % 4 == 0)
                padded += 4 * len;
    }
    map->val = PyMem_Malloc(padded * sizeof(double)
                            + n_slices * sizeof(Py_ssize_t)
                            + (dim + padded) * sizeof(int));
    if (map->val == NULL)
        goto done;
    map->n_slices = n_slices;
    map->len = (Py_ssize_t *)(map->val + padded);
    map->row = (int *)(map->len + n_slices);
    map->col = map->row + dim;
    for (Py_ssize_t i = 0; i < dim; i++)
        map->row[count[length[i]]++] = (int)i;
    /* entry[i] is where row i's next entry goes: its first at its slice's
       start plus its lane, each next one four further on. */
    Py_ssize_t start = 0;
    for (Py_ssize_t sl = 0; sl < n_slices; sl++) {
        map->len[sl] = length[map->row[4 * sl]];
        for (Py_ssize_t lane = 0; lane < 4 && 4 * sl + lane < dim; lane++)
            entry[map->row[4 * sl + lane]] = start + lane;
        start += 4 * map->len[sl];
    }
    for (Py_ssize_t k = 0; k < padded; k++) {
        map->col[k] = (int)dim;
        map->val[k] = -0.0;
    }
    for (Py_ssize_t j = 0; j <= dim; j++)
        for (Py_ssize_t k = col_ptr[j]; k < col_ptr[j + 1]; k++) {
            Py_ssize_t pos = entry[rows[k]];
            entry[rows[k]] += 4;
            map->col[pos] = (int)j;
            map->val[pos] = vals[k];
        }
    ok = 0;
done:
    if (ok < 0 && !PyErr_Occurred())
        PyErr_NoMemory();
    PyMem_Free(slot_count);
    PyMem_Free(work);
    PyMem_Free(col_ptr);
    PyMem_Free(at);
    PyMem_Free(rows);
    PyMem_Free(vals);
    return ok;
}

/* inc = M (y, 1); y[dim] holds the slot 1.0. A slice sums its four rows in
 * four registers, each from 0.0 by ascending column, into acc (room for
 * dim + 3 doubles) at their positions. */
static void
apply_step_map(const step_map *map, Py_ssize_t dim, const double *restrict y,
               double *restrict acc, double *restrict inc)
{
    const double *restrict v = map->val;
    const int *restrict c = map->col;
    for (Py_ssize_t sl = 0; sl < map->n_slices; sl++) {
        double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
        for (Py_ssize_t k = map->len[sl]; k > 0; k--, v += 4, c += 4) {
            a0 += v[0] * y[c[0]];
            a1 += v[1] * y[c[1]];
            a2 += v[2] * y[c[2]];
            a3 += v[3] * y[c[3]];
        }
        acc[4 * sl] = a0;
        acc[4 * sl + 1] = a1;
        acc[4 * sl + 2] = a2;
        acc[4 * sl + 3] = a3;
    }
    for (Py_ssize_t r = 0; r < dim; r++)
        inc[map->row[r]] = acc[r];
}

static PyObject *
rk4_kernel(PyObject *self, PyObject *args)
{
    static const char *names[] = {"comp_ptr", "coeff", "term_ptr", "fvar",
                                  "fexp", "y", "out"};
    static const char codes[] = "idiiidd";
    PyObject *objs[7], *keep_obj = Py_None;
    Py_buffer views[7];
    double step, *buf = NULL;
    Py_ssize_t n_steps, n_mults, completed, held = 0;
    term_stream stream = {0};
    step_map map = {0};
    PyObject *result = NULL;

    (void)self;
    if (!PyArg_ParseTuple(args, "OOOOOOdnO|O:rk4_kernel", &objs[0], &objs[1],
                          &objs[2], &objs[3], &objs[4], &objs[5], &step,
                          &n_steps, &objs[6], &keep_obj))
        return NULL;
    for (; held < 7; held++)
        if (get_buffer(objs[held], codes[held], held == 6 ? PyBUF_WRITABLE : 0,
                       &views[held], names[held]) < 0)
            goto done;

    Py_ssize_t dim = views[5].len / (Py_ssize_t)sizeof(double), keep = dim;
    /* An int out of range clips to one that fails the range check. */
    if (keep_obj != Py_None
        && (keep = PyNumber_AsSsize_t(keep_obj, NULL)) == -1 && PyErr_Occurred())
        goto done;
    if (keep < 0 || keep > dim) {
        PyErr_Format(PyExc_ValueError, "keep must be between 0 and the "
                     "state's %zd coordinates", dim);
        goto done;
    }
    if (n_steps < 0) {
        PyErr_SetString(PyExc_ValueError, "n_steps must be nonnegative");
        goto done;
    }
    if (keep > 0 && views[6].len / (Py_ssize_t)sizeof(double) / keep <= n_steps) {
        PyErr_Format(PyExc_ValueError, "out holds %zd doubles, %zd steps "
                     "keeping %zd coordinates need more", views[6].len /
                     (Py_ssize_t)sizeof(double), n_steps, keep);
        goto done;
    }
    if (check_layout(dim, dim, &views[0], &views[1], &views[2], &views[3],
                     &views[4], &n_mults) < 0
        || build_stream(&stream, dim, views, n_mults) < 0
        || (is_affine(&stream) && build_step_map(&stream, step, &map) < 0))
        goto done;
    buf = PyMem_New(double, 8 * dim + 2);
    if (buf == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    const double *y0 = views[5].buf;
    double *out = views[6].buf;
    double *y = buf, *lost = buf + dim + 1, *inc = buf + 2 * dim + 1;
    double *w = buf + 3 * dim + 1;

    for (Py_ssize_t i = 0; i < dim; i++) {
        y[i] = y0[i];
        lost[i] = 0.0;
    }
    for (Py_ssize_t i = 0; i < keep; i++)
        out[i] = y[i];
    y[dim] = 1.0; /* the slot of the step map */
    for (completed = 0; completed < n_steps; completed++) {
        if (map.val != NULL)
            apply_step_map(&map, dim, y, w, inc);
        else
            rk4_increment(&stream, step, y, w, inc);
        int ok = 1;
        for (Py_ssize_t i = 0; i < dim; i++) {
            /* Kahan-compensated accumulation, matching the Python twin. */
            double delta = inc[i] + lost[i];
            double t = y[i] + delta;
            lost[i] = delta - (t - y[i]);
            y[i] = t;
            if (!isfinite(t))
                ok = 0;
        }
        if (!ok)
            break;
        double *row = out + (completed + 1) * keep;
        for (Py_ssize_t i = 0; i < keep; i++)
            row[i] = y[i];
    }
    result = PyLong_FromSsize_t(completed);
done:
    PyMem_Free(buf);
    PyMem_Free(map.val);
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

/* "00" "01" ... "99": the two digits of n at DIGIT_PAIRS + 2 n. */
static const char DIGIT_PAIRS[201] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536"
    "37383940414243444546474849505152535455565758596061626364656667686970717273"
    "7475767778798081828384858687888990919293949596979899";

/* The 8 digits of n < 10^8 at o, zero-padded: four pairs, each from its own
 * quotient, so no division waits on another's. */
static void
put8(char *o, uint32_t n)
{
    uint32_t a = n / 10000, b = n % 10000;
    memcpy(o, DIGIT_PAIRS + 2 * (a / 100), 2);
    memcpy(o + 2, DIGIT_PAIRS + 2 * (a % 100), 2);
    memcpy(o + 4, DIGIT_PAIRS + 2 * (b / 100), 2);
    memcpy(o + 6, DIGIT_PAIRS + 2 * (b % 100), 2);
}

/* The nd decimal digits of q < 10^nd at o[0:nd]: 8-digit blocks from the
 * right, then the digits left over in pairs. */
static void
put_digits(char *o, uint64_t q, int nd)
{
    char *end = o + nd;
    for (; nd >= 8; nd -= 8, end -= 8, q /= 100000000)
        put8(end - 8, (uint32_t)(q % 100000000));
    for (; nd >= 2; nd -= 2, q /= 100) {
        end -= 2;
        memcpy(end, DIGIT_PAIRS + 2 * (q % 100), 2);
    }
    if (nd)
        end[-1] = (char)('0' + q);
}

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
 * inside the scaled interval, nearest to scaled v with ties to even. p is
 * found by dividing by the constant 10, which compiles to a multiply, and
 * the digits are counted from their bit length and written in blocks of
 * eight, so no division by a variable and no digit-by-digit chain remains.
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
       lies in the interval; then the multiples q 10^p inside have l < q <= h.
       scaled v = mid / 2^k drops a digit with them: q is its integer part
       over 10^p, `d` the last digit dropped and `sticky` whether anything
       below d, fraction bits included, is nonzero. */
    uint64_t q = (uint64_t)(mid >> k);
    int p = 0, d = 0, sticky = (mid & below) != 0;
    while (l / 10 != h / 10) {
        l /= 10;
        h /= 10;
        sticky |= d != 0;
        d = (int)(q % 10);
        q /= 10;
        p++;
    }
    /* The interval is at least 30 wide, so p >= 1: round half to even. */
    if (d > 5 || (d == 5 && (sticky || (q & 1))))
        q++;
    if (q <= l)
        q = l + 1;
    else if (q > h)
        q = h;

    /* q >= 1 has nd decimal digits: with q below 2^width, t is about
       width log10 2, and q has t + 1 digits unless q < 10^t. */
    int width = 64 - __builtin_clzll(q);
    int t = (width * 1233) >> 12;
    int nd = t + 1 - (q < POW10[t]);
    int decpt = nd + p - s; /* v is 0.<digits> times 10^decpt */

    /* Laid out as PyOS_double_to_string(v, 'r', 0, Py_DTSF_ADD_DOT_0), the
       digits written where they end up, or one place to the right of a
       decimal point that then moves in front of them. */
    char *o = out;
    if (bits >> 63)
        *o++ = '-';
    if (decpt <= -4 || decpt > 16) {
        int x = decpt - 1;
        put_digits(o + 1, q, nd);
        o[0] = o[1];
        o[1] = '.';
        o += nd > 1 ? nd + 1 : 1;
        *o++ = 'e';
        *o++ = x < 0 ? '-' : '+';
        x = x < 0 ? -x : x;
        if (x >= 100) {
            *o++ = (char)('0' + x / 100);
            x %= 100;
        }
        memcpy(o, DIGIT_PAIRS + 2 * x, 2);
        o += 2;
    }
    else if (decpt <= 0) {
        *o++ = '0';
        *o++ = '.';
        memset(o, '0', -decpt);
        o += -decpt;
        put_digits(o, q, nd);
        o += nd;
    }
    else if (decpt < nd) {
        put_digits(o + 1, q, nd);
        memmove(o, o + 1, decpt);
        o[decpt] = '.';
        o += nd + 1;
    }
    else {
        put_digits(o, q, nd);
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

/* Write repr(v) at `o`, which has room for 32 bytes; return its end, or
 * NULL with an exception set. */
static char *
put_double(char *o, double v)
{
    int n = format_shortest(v, o);
    if (n > 0)
        return o + n;
    /* What float.__repr__ itself calls: at most 24 bytes, as in
       "-2.2250738585072014e-308". */
    char *text = PyOS_double_to_string(v, 'r', 0, Py_DTSF_ADD_DOT_0, NULL);
    if (text == NULL)
        return NULL;
    size_t len = strlen(text);
    memcpy(o, text, len);
    PyMem_Free(text);
    return o + len;
}

static PyObject *
format_rows(PyObject *self, PyObject *args)
{
    PyObject *obj, *text = NULL;
    Py_ssize_t dim, start, stop;
    double step;
    Py_buffer view;

    (void)self;
    if (!PyArg_ParseTuple(args, "Ondnn:format_rows", &obj, &dim, &step, &start,
                          &stop))
        return NULL;
    if (get_buffer(obj, 'd', 0, &view, "flat") < 0)
        return NULL;
    Py_ssize_t len = view.len / (Py_ssize_t)sizeof(double);
    if (dim < 1 || len % dim != 0) {
        PyErr_SetString(PyExc_ValueError,
                        "flat must hold whole samples of dim >= 1 doubles");
        goto done;
    }
    const double *flat = view.buf;
    if (start < 0)
        start = 0;
    if (stop > len / dim)
        stop = len / dim;
    Py_ssize_t rows = stop > start ? stop - start : 0;
    /* Every value takes at most 32 bytes and its separator one more. With
       rows > 0, dim <= len, so dim + 1 cannot overflow. */
    if (rows > 0 && rows > PY_SSIZE_T_MAX / 33 / (dim + 1)) {
        PyErr_NoMemory();
        goto done;
    }
    /* The text is ASCII: written into the string itself, which then shrinks
       to the length written. */
    text = PyUnicode_New(rows * (dim + 1) * 33, 127);
    if (text == NULL)
        goto done;
    char *first = (char *)PyUnicode_1BYTE_DATA(text), *o = first;
    for (Py_ssize_t k = start; k < start + rows; k++) {
        /* t = k * step, as Python multiplies an int by a float. */
        if ((o = put_double(o, (double)k * step)) == NULL)
            goto fail;
        for (const double *v = flat + k * dim; v < flat + (k + 1) * dim; v++) {
            *o++ = ',';
            if ((o = put_double(o, *v)) == NULL)
                goto fail;
        }
        *o++ = '\n';
    }
    if (PyUnicode_Resize(&text, o - first) == 0)
        goto done;
fail:
    Py_CLEAR(text);
done:
    PyBuffer_Release(&view);
    return text;
}

static PyMethodDef methods[] = {
    {"rk4_kernel", rk4_kernel, METH_VARARGS,
     "rk4_kernel(comp_ptr, coeff, term_ptr, fvar, fexp, y, step, n_steps, out,"
     " keep=None)\n--\n\nRK4 stepping over a compiled field, an affine one by "
     "its step map, storing the first keep coordinates of each sample; see "
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
     "format_rows(flat, dim, step, start, stop)\n--\n\nCSV rows start:stop "
     "of a flat trajectory; see slin.numeric.format_rows_python for the "
     "contract."},
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
