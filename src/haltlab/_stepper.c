/* Compiled stepping kernel; semantics identical to haltlab._stepper_py.
 *
 * See docs/machine-isa.md for the normative instruction set and the argument
 * contract. Any divergence in observable behavior between the two kernels is
 * a bug (tests/test_kernel_parity.py cross-checks them on random programs).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdlib.h>
#include <string.h>

enum { RUNNING, HALTED, DIVERGED, OUTPUT_LIMIT };

/* opcode ids: a code word 0 1^j is opcode j for j <= 7 */
enum { END, OUT0, OUT1, DBL, SPIN, TIMER, LOOP, ZEROS, INC };

#define ACC_SATURATION 9223372036854775807ULL
#define ONE '1'

/* The output collected so far, in a malloc'ed buffer. */
typedef struct {
    char *data;
    Py_ssize_t len, size;
} Output;

/* Append count copies of c; -1 when the buffer cannot grow. The caller has
   checked len + count against the output cap, so the sum cannot overflow. */
static int
output_put(Output *out, char c, Py_ssize_t count)
{
    Py_ssize_t want = out->len + count;
    if (count == 0)
        return 0;
    if (want > out->size) {
        Py_ssize_t size = want <= PY_SSIZE_T_MAX / 2 ? 2 * want : want;
        char *data = realloc(out->data, (size_t)size);
        if (data == NULL)
            return -1;
        out->data = data;
        out->size = size;
    }
    memset(out->data + out->len, c, (size_t)count);
    out->len = want;
    return 0;
}

/* Execute bits[start:len]: the status, with the step count in *steps and
   the output in *out, or -1 when the output buffer cannot grow. */
static int
execute(const char *bits, Py_ssize_t start, Py_ssize_t len, int prefix_free,
        int allow_loops, unsigned long long budget, Py_ssize_t output_cap,
        unsigned long long *steps, Output *out)
{
    Py_ssize_t pc = start, consumed = start, npc, i;
    unsigned long long acc = 0, count;
    int op;

    for (*steps = 0; *steps < budget; pc = npc) {
        /* fetch + decode */
        if (pc >= len)
            goto undecodable;
        if (bits[pc] == ONE) {
            op = INC;
            npc = pc + 1;
        }
        else {
            for (i = pc + 1, op = 0; op < 7 && i < len && bits[i] == ONE; i++)
                op++;
            if (op < 7 && i >= len)
                goto undecodable; /* truncated code word */
            npc = op == ZEROS ? i : i + 1;
        }
        if (op == LOOP && !allow_loops)
            goto undecodable;
        if (npc > consumed)
            consumed = npc;
        /* execute */
        ++*steps;
        switch (op) {
        case END:
            return prefix_free && consumed != len ? DIVERGED : HALTED;
        case INC:
            acc += acc < ACC_SATURATION;
            break;
        case DBL:
            acc = acc > ACC_SATURATION / 2 ? ACC_SATURATION : acc << 1;
            break;
        case SPIN:
            if (acc > 0) {
                acc--;
                npc = pc;
            }
            break;
        case TIMER:
            acc = *steps;
            break;
        case LOOP:
            if (acc > 0) {
                acc--;
                npc = start;
            }
            break;
        default: /* OUT0, OUT1 and ZEROS append count bits */
            count = op == ZEROS ? acc : 1;
            if (count > (unsigned long long)(output_cap - out->len))
                return OUTPUT_LIMIT;
            if (output_put(out, op == OUT1 ? '1' : '0', (Py_ssize_t)count) < 0)
                return -1;
        }
    }
    return RUNNING;

undecodable:
    /* plain: halt one step later with empty output; prefix-free: diverge */
    if (prefix_free)
        return DIVERGED;
    out->len = 0;
    ++*steps;
    return HALTED;
}

static PyObject *
run_stream(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *bits, *budget_arg, *result;
    Py_ssize_t start, len, output_cap;
    int prefix_free, allow_loops, status;
    unsigned long long budget, steps;
    Output out = {NULL, 0, 0};

    if (!PyArg_ParseTuple(args, "SnppOn:run_stream", &bits, &start, &prefix_free, &allow_loops,
                          &budget_arg, &output_cap))
        return NULL;
    len = PyBytes_GET_SIZE(bits);
    if (!(0 <= start && start <= len && output_cap >= 0)) {
        PyErr_Format(PyExc_ValueError, "start must be in [0, len(bits)] and output_cap >= 0, "
                     "got start=%zd, len=%zd, output_cap=%zd", start, len, output_cap);
        return NULL;
    }
    budget = PyLong_AsUnsignedLongLong(budget_arg);
    if (budget == (unsigned long long)-1 && PyErr_Occurred())
        return NULL;

    status = execute(PyBytes_AS_STRING(bits), start, len, prefix_free, allow_loops, budget,
                     output_cap, &steps, &out);
    if (status < 0)
        result = PyErr_NoMemory();
    else if (status == HALTED)
        result = Py_BuildValue("iKy#", status, steps, out.len ? out.data : "", out.len);
    else
        result = Py_BuildValue("iKO", status, steps, Py_None);
    free(out.data);
    return result;
}

static PyMethodDef methods[] = {
    {"run_stream", run_stream, METH_VARARGS,
     "run_stream(bits, start, prefix_free, allow_loops, budget, output_cap)\n--\n\n"
     "Execute the instruction stream bits[start:]; see the pure twin."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_stepper",
    .m_doc = "Compiled stepping kernel; semantics identical to haltlab._stepper_py.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__stepper(void)
{
    PyObject *m = PyModule_Create(&module);
    PyObject *saturation = PyLong_FromUnsignedLongLong(ACC_SATURATION);

    if (m == NULL || saturation == NULL || PyModule_AddIntConstant(m, "RUNNING", RUNNING) < 0
        || PyModule_AddIntConstant(m, "HALTED", HALTED) < 0
        || PyModule_AddIntConstant(m, "DIVERGED", DIVERGED) < 0
        || PyModule_AddIntConstant(m, "OUTPUT_LIMIT", OUTPUT_LIMIT) < 0
        || PyModule_AddObjectRef(m, "ACC_SATURATION", saturation) < 0) {
        Py_XDECREF(saturation);
        Py_XDECREF(m);
        return NULL;
    }
    Py_DECREF(saturation);
    return m;
}
