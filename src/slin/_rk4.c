/* Compiled RK4 stepping kernel; semantics mirror numeric.rk4_kernel_python.
 *
 * Both kernels run the same IEEE double operations in the same order, so
 * trajectories agree bit for bit between backends. That requires building
 * without floating-point contraction (-ffp-contract=off, set in setup.py):
 * a fused multiply-add rounds once where Python rounds twice.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>

static void
eval_into(Py_ssize_t dim, const int *restrict comp_ptr,
          const double *restrict coeff, const int *restrict term_ptr,
          const int *restrict fvar, const int *restrict fexp,
          const double *restrict y, double *restrict res)
{
    for (Py_ssize_t c = 0; c < dim; c++) {
        double acc = 0.0;
        for (int t = comp_ptr[c]; t < comp_ptr[c + 1]; t++) {
            double v = coeff[t];
            for (int f = term_ptr[t]; f < term_ptr[t + 1]; f++) {
                double x = y[fvar[f]];
                for (int e = 0; e < fexp[f]; e++)
                    v *= x;
            }
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

/* The indices the kernel follows stay inside the buffers they index. */
static int
check_layout(Py_ssize_t dim, const Py_buffer *cp, const Py_buffer *co,
             const Py_buffer *tp, const Py_buffer *fv, const Py_buffer *fe)
{
    const int *comp_ptr = cp->buf, *term_ptr = tp->buf, *fvar = fv->buf;
    Py_ssize_t n_terms = co->len / co->itemsize;
    Py_ssize_t n_factors = fv->len / fv->itemsize;
    if (cp->len / cp->itemsize != dim + 1 || comp_ptr[0] != 0
        || comp_ptr[dim] != n_terms || tp->len / tp->itemsize != n_terms + 1
        || term_ptr[0] != 0 || term_ptr[n_terms] != n_factors
        || fe->len / fe->itemsize != n_factors)
        goto bad;
    for (Py_ssize_t c = 0; c < dim; c++)
        if (comp_ptr[c] > comp_ptr[c + 1])
            goto bad;
    for (Py_ssize_t t = 0; t < n_terms; t++)
        if (term_ptr[t] > term_ptr[t + 1])
            goto bad;
    for (Py_ssize_t f = 0; f < n_factors; f++)
        if (fvar[f] < 0 || fvar[f] >= dim)
            goto bad;
    return 0;
bad:
    PyErr_SetString(PyExc_ValueError,
                    "compiled field arrays are inconsistent with the state size");
    return -1;
}

static PyObject *
rk4_kernel(PyObject *self, PyObject *args)
{
    static const char *names[] = {"comp_ptr", "coeff", "term_ptr", "fvar",
                                  "fexp", "y", "out"};
    static const char codes[] = "idiiidd";
    PyObject *objs[7];
    Py_buffer views[7];
    double step;
    Py_ssize_t n_steps, completed, held = 0;
    PyObject *result = NULL;

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
    if (check_layout(dim, &views[0], &views[1], &views[2], &views[3],
                     &views[4]) < 0)
        goto done;

    double *buf = PyMem_Malloc(7 * dim * sizeof(double));
    if (buf == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    const int *comp_ptr = views[0].buf, *term_ptr = views[2].buf;
    const int *fvar = views[3].buf, *fexp = views[4].buf;
    const double *coeff = views[1].buf, *y0 = views[5].buf;
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
        eval_into(dim, comp_ptr, coeff, term_ptr, fvar, fexp, y, k1);
        for (Py_ssize_t i = 0; i < dim; i++)
            ytmp[i] = y[i] + half * k1[i];
        eval_into(dim, comp_ptr, coeff, term_ptr, fvar, fexp, ytmp, k2);
        for (Py_ssize_t i = 0; i < dim; i++)
            ytmp[i] = y[i] + half * k2[i];
        eval_into(dim, comp_ptr, coeff, term_ptr, fvar, fexp, ytmp, k3);
        for (Py_ssize_t i = 0; i < dim; i++)
            ytmp[i] = y[i] + step * k3[i];
        eval_into(dim, comp_ptr, coeff, term_ptr, fvar, fexp, ytmp, k4);
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

    PyMem_Free(buf);
    result = PyLong_FromSsize_t(completed);
done:
    while (held > 0)
        PyBuffer_Release(&views[--held]);
    return result;
}

static PyMethodDef methods[] = {
    {"rk4_kernel", rk4_kernel, METH_VARARGS,
     "rk4_kernel(comp_ptr, coeff, term_ptr, fvar, fexp, y, step, n_steps, out)"
     "\n--\n\nRK4 stepping over a compiled field; see "
     "slin.numeric.rk4_kernel_python for the contract."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "slin._rk4",
    .m_doc = "Compiled RK4 stepping kernel, bit for bit equal to the pure one.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__rk4(void)
{
    return PyModule_Create(&module);
}
