/* Compiled event-kernel inner loop for repro.core.engine.
 *
 * This module is the C twin of ``Simulator.run``: the tuple-heap
 * pop/push, the two-shape dispatch (raw ``schedule_fast`` entries and
 * version-checked ``Timer`` entries, ``EventHandle`` being a one-shot
 * Timer), and the O(1) scheduled/executed/cancelled counter
 * bookkeeping — nothing else.  All simulation state stays where the
 * pure-Python kernel keeps it (``sim._heap`` is the same Python list
 * the schedulers push into, the counters are the same Python ints
 * telemetry samples), so the two kernels are interchangeable mid-suite
 * and the pure-Python loop remains the reference implementation.
 *
 * Bit-identity contract (KEEP IN SYNC with engine.Simulator.run):
 *
 * - Heap ordering is the exact heapq algorithm over the exact tuple
 *   comparison semantics: entries compare ``(time, seq)`` and never
 *   past ``seq`` (it is unique).  The float fast path is used only when
 *   both times are exact floats; anything else falls back to Python
 *   rich comparison, so mixed int/float times order identically.
 * - One loop and one counter rule for every ``until``/``max_events``
 *   combination: the executed-events counter lives in a local flushed
 *   when ``run`` exits (normally, by ``stop()`` or by a raising
 *   callback), so a mid-run callback reads the figure from when ``run``
 *   was entered — telemetry's sampled ``kernel/events_executed`` series
 *   byte-compares across kernels because of this, not despite it.
 * - A timer entry fires only while the timer is armed and still
 *   carries the entry's version; anything else at element 2 that is
 *   not ``None`` or a Timer raises AttributeError, as the Python loop
 *   does.  Lazy drops (cancelled or superseded timer entries) touch no
 *   counters; the clock is written before the callback fires; on a
 *   non-stopped exit the clock snaps to ``until`` only when the heap is
 *   empty or its head lies past ``until`` (a spent budget with earlier
 *   events still queued leaves the clock where it is); the ``_running``
 *   flag and counter flush survive a raising callback.
 *
 * NaN event times are unrepresentable (every scheduler rejects them),
 * so the double comparison fast path is exact.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

/* ma_version_tag (a process-global monotone stamp bumped on every dict
 * mutation) lets the loop skip re-reading ``_stopped`` when no callback
 * touched the simulator's dict since our own last write.  Deprecated
 * and slated for removal in 3.13+; the loop degrades to a per-event
 * lookup there. */
#if PY_VERSION_HEX < 0x030D0000
#define CK_HAVE_DICT_VERSION 1
#else
#define CK_HAVE_DICT_VERSION 0
#endif

/* --- module state (installed once from repro.core.engine) ------------- */

static PyTypeObject *timer_type = NULL;
static PyObject *simulation_error = NULL;

/* Interned attribute keys for the Simulator instance dict. */
static PyObject *s_now, *s_stopped, *s_running, *s_events_executed, *s_heap;

/* Slot offsets for Timer (__slots__ storage, shared by subclasses). */
static Py_ssize_t off_t_version = -1, off_t_armed = -1;
static Py_ssize_t off_t_callback = -1, off_t_args = -1;

#define SLOT(obj, off) (*(PyObject **)((char *)(obj) + (off)))

static PyObject *
slot_get(PyObject *obj, Py_ssize_t off, const char *name)
{
    PyObject *value = SLOT(obj, off);
    if (value == NULL)
        PyErr_Format(PyExc_AttributeError, "%s", name);
    return value;  /* borrowed */
}

static void
slot_set(PyObject *obj, Py_ssize_t off, PyObject *value)
{
    PyObject *old = SLOT(obj, off);
    Py_INCREF(value);
    SLOT(obj, off) = value;
    Py_XDECREF(old);
}

/* Truthiness with a bool identity fast path (the engine only ever
 * stores the canonical True/False in these flags). */
static inline int
flag_is_true(PyObject *value)
{
    if (value == Py_True)
        return 1;
    if (value == Py_False)
        return 0;
    return PyObject_IsTrue(value);
}

/* Equality with a machine-int fast path (timer versions are exact
 * ints).  Returns 1/0/-1 like PyObject_RichCompareBool. */
static inline int
int_eq(PyObject *a, PyObject *b)
{
    if (a == b)
        return 1;
    if (PyLong_CheckExact(a) && PyLong_CheckExact(b)) {
        /* Exact ints are normalized: equal value <=> equal digits. */
        Py_ssize_t sa = Py_SIZE(a);
        if (sa != Py_SIZE(b))
            return 0;
        {
            const digit *da = ((PyLongObject *)a)->ob_digit;
            const digit *db = ((PyLongObject *)b)->ob_digit;
            Py_ssize_t i, n = sa < 0 ? -sa : sa;
            for (i = 0; i < n; i++)
                if (da[i] != db[i])
                    return 0;
            return 1;
        }
    }
    return PyObject_RichCompareBool(a, b, Py_EQ);
}

/* --- heap entry comparison -------------------------------------------- */

/* Pure-C comparison attempt: decides ``a < b`` without the possibility
 * of running Python code (no allocation, no refcounting, no
 * callbacks).  Returns 1 with *out set when decided — the caller may
 * then skip the mutation guards — or 0 when the operands need the
 * general path.  Covers the kernel's canonical entries: exact-float
 * times with machine-word exact-int seqs.
 */
static inline int
entry_lt_fast(PyObject *a, PyObject *b, int *out)
{
    PyObject *ta, *tb, *sa, *sb;

    if (!PyTuple_CheckExact(a) || !PyTuple_CheckExact(b)
            || PyTuple_GET_SIZE(a) < 2 || PyTuple_GET_SIZE(b) < 2)
        return 0;
    ta = PyTuple_GET_ITEM(a, 0);
    tb = PyTuple_GET_ITEM(b, 0);
    if (!PyFloat_CheckExact(ta) || !PyFloat_CheckExact(tb))
        return 0;
    {
        double da = PyFloat_AS_DOUBLE(ta), db = PyFloat_AS_DOUBLE(tb);
        if (da < db) {
            *out = 1;
            return 1;
        }
        if (db < da) {
            *out = 0;
            return 1;
        }
    }
    sa = PyTuple_GET_ITEM(a, 1);
    sb = PyTuple_GET_ITEM(b, 1);
    if (!PyLong_CheckExact(sa) || !PyLong_CheckExact(sb))
        return 0;
    {
        int oa = 0, ob = 0;
        /* Never raises for exact ints; overflow only sets the flag. */
        long long la = PyLong_AsLongLongAndOverflow(sa, &oa);
        long long lb = PyLong_AsLongLongAndOverflow(sb, &ob);
        if (oa || ob)
            return 0;
        *out = la < lb;
        return 1;
    }
}

/* Returns 1 if a < b, 0 if not, -1 on error.  Matches Python tuple
 * comparison for every entry shape the kernel produces: ``(time, seq,
 * ...)`` with unique integer seq, so comparison never inspects element
 * 2 and shapes of different arity never compare element 2. */
static int
entry_lt(PyObject *a, PyObject *b)
{
    if (PyTuple_CheckExact(a) && PyTuple_CheckExact(b)
            && PyTuple_GET_SIZE(a) >= 2 && PyTuple_GET_SIZE(b) >= 2) {
        PyObject *ta = PyTuple_GET_ITEM(a, 0);
        PyObject *tb = PyTuple_GET_ITEM(b, 0);
        if (PyFloat_CheckExact(ta) && PyFloat_CheckExact(tb)) {
            double da = PyFloat_AS_DOUBLE(ta), db = PyFloat_AS_DOUBLE(tb);
            if (da < db)
                return 1;
            if (db < da)
                return 0;
            /* equal: fall through to seq */
        }
        else {
            int r = PyObject_RichCompareBool(ta, tb, Py_LT);
            if (r != 0)
                return r;  /* 1 (less) or -1 (error) */
            r = PyObject_RichCompareBool(tb, ta, Py_LT);
            if (r < 0)
                return -1;
            if (r)
                return 0;
            /* equal: fall through to seq */
        }
        {
            PyObject *sa = PyTuple_GET_ITEM(a, 1);
            PyObject *sb = PyTuple_GET_ITEM(b, 1);
            if (PyLong_CheckExact(sa) && PyLong_CheckExact(sb)) {
                int oa = 0, ob = 0;
                long long la = PyLong_AsLongLongAndOverflow(sa, &oa);
                long long lb = PyLong_AsLongLongAndOverflow(sb, &ob);
                if (!oa && !ob && !PyErr_Occurred())
                    return la < lb;
                PyErr_Clear();
            }
            return PyObject_RichCompareBool(sa, sb, Py_LT);
        }
    }
    return PyObject_RichCompareBool(a, b, Py_LT);
}

/* --- heapq core (ported from CPython's _heapqmodule algorithm) -------- */

static int
ck_siftdown(PyListObject *heap, Py_ssize_t startpos, Py_ssize_t pos)
{
    PyObject *newitem, *parent, **arr;
    Py_ssize_t parentpos, size;

    size = PyList_GET_SIZE(heap);
    /* Follow the path to the root, swapping the new item up until it
     * fits.  The canonical-entry comparison is pure C; only the
     * general fallback can run arbitrary Python, so only it guards
     * against the list changing size underneath us. */
    while (pos > startpos) {
        int cmp;
        parentpos = (pos - 1) >> 1;
        arr = ((PyListObject *)heap)->ob_item;
        if (!entry_lt_fast(arr[pos], arr[parentpos], &cmp)) {
            newitem = arr[pos];
            parent = arr[parentpos];
            Py_INCREF(newitem);
            Py_INCREF(parent);
            cmp = entry_lt(newitem, parent);
            Py_DECREF(parent);
            Py_DECREF(newitem);
            if (cmp < 0)
                return -1;
            if (size != PyList_GET_SIZE(heap)) {
                PyErr_SetString(PyExc_RuntimeError,
                                "list changed size during iteration");
                return -1;
            }
        }
        if (cmp == 0)
            break;
        arr = ((PyListObject *)heap)->ob_item;
        parent = arr[parentpos];
        newitem = arr[pos];
        arr[parentpos] = newitem;
        arr[pos] = parent;
        pos = parentpos;
    }
    return 0;
}

static int
ck_siftup(PyListObject *heap, Py_ssize_t pos)
{
    Py_ssize_t startpos = pos, endpos, childpos, limit;
    PyObject *tmp1, *tmp2, **arr;

    endpos = PyList_GET_SIZE(heap);
    /* Bubble the smaller child up until hitting a leaf. */
    limit = endpos >> 1;
    while (pos < limit) {
        childpos = 2 * pos + 1;
        if (childpos + 1 < endpos) {
            int cmp;
            arr = ((PyListObject *)heap)->ob_item;
            if (!entry_lt_fast(arr[childpos], arr[childpos + 1], &cmp)) {
                PyObject *a = arr[childpos];
                PyObject *b = arr[childpos + 1];
                Py_INCREF(a);
                Py_INCREF(b);
                cmp = entry_lt(a, b);
                Py_DECREF(b);
                Py_DECREF(a);
                if (cmp < 0)
                    return -1;
                if (endpos != PyList_GET_SIZE(heap)) {
                    PyErr_SetString(PyExc_RuntimeError,
                                    "list changed size during iteration");
                    return -1;
                }
            }
            if (cmp == 0)
                childpos += 1;
        }
        arr = ((PyListObject *)heap)->ob_item;
        tmp1 = arr[childpos];
        tmp2 = arr[pos];
        arr[childpos] = tmp2;
        arr[pos] = tmp1;
        pos = childpos;
    }
    /* The leaf at pos may be out of place; move it up to its spot. */
    return ck_siftdown(heap, startpos, pos);
}

static int
ck_heappush_impl(PyObject *heap, PyObject *item)
{
    if (PyList_Append(heap, item) < 0)
        return -1;
    return ck_siftdown((PyListObject *)heap, 0, PyList_GET_SIZE(heap) - 1);
}

/* Pop the smallest entry; returns a new reference or NULL. */
static PyObject *
ck_heappop_impl(PyObject *heap)
{
    PyObject *lastelt, *returnitem;
    Py_ssize_t n = PyList_GET_SIZE(heap);

    if (n == 0) {
        PyErr_SetString(PyExc_IndexError, "index out of range");
        return NULL;
    }
    lastelt = PyList_GET_ITEM(heap, n - 1);
    Py_INCREF(lastelt);
    if (PyList_SetSlice(heap, n - 1, n, NULL) < 0) {
        Py_DECREF(lastelt);
        return NULL;
    }
    n -= 1;
    if (n == 0)
        return lastelt;
    returnitem = PyList_GET_ITEM(heap, 0);
    PyList_SET_ITEM(heap, 0, lastelt);  /* we now own returnitem's ref */
    if (ck_siftup((PyListObject *)heap, 0) < 0) {
        Py_DECREF(returnitem);
        return NULL;
    }
    return returnitem;
}

/* --- the run loop ------------------------------------------------------ */

/* Fetch a required attribute from the simulator's instance dict.
 * Returns a borrowed reference or NULL with AttributeError set. */
static PyObject *
sim_get(PyObject **dictptr, PyObject *key)
{
    PyObject *value = PyDict_GetItemWithError(*dictptr, key);
    if (value == NULL && !PyErr_Occurred())
        PyErr_Format(PyExc_AttributeError,
                     "Simulator has no attribute %R", key);
    return value;
}

static PyObject *
ck_run(PyObject *module, PyObject *args)
{
    PyObject *sim, *until = Py_None, *max_events = Py_None;
    PyObject *heap = NULL, *result = NULL;
    PyObject **dictptr;
    double until_d = 0.0, budget = 0.0;
    int until_is_none, until_is_float, budget_is_inf;
    long long executed = 0;
    int started = 0, failed = 0;

    if (timer_type == NULL) {
        PyErr_SetString(PyExc_RuntimeError,
                        "_ckernel.install() has not been called");
        return NULL;
    }
    if (!PyArg_ParseTuple(args, "O|OO:run", &sim, &until, &max_events))
        return NULL;

    dictptr = _PyObject_GetDictPtr(sim);
    if (dictptr == NULL || *dictptr == NULL) {
        PyErr_SetString(PyExc_TypeError,
                        "run() needs a Simulator with an instance dict");
        return NULL;
    }

    /* Re-entrancy guard, before touching any state. */
    {
        PyObject *running = sim_get(dictptr, s_running);
        if (running == NULL)
            return NULL;
        int r = PyObject_IsTrue(running);
        if (r < 0)
            return NULL;
        if (r) {
            PyErr_SetString(simulation_error, "run() called re-entrantly");
            return NULL;
        }
    }

    until_is_none = (until == Py_None);
    until_is_float = PyFloat_CheckExact(until);
    if (until_is_float)
        until_d = PyFloat_AS_DOUBLE(until);
    budget_is_inf = (max_events == Py_None);
    if (!budget_is_inf) {
        budget = PyFloat_AsDouble(max_events);
        if (budget == -1.0 && PyErr_Occurred())
            return NULL;
    }
    {
        PyObject *exec_obj = sim_get(dictptr, s_events_executed);
        if (exec_obj == NULL)
            return NULL;
        executed = PyLong_AsLongLong(exec_obj);
        if (executed == -1 && PyErr_Occurred())
            return NULL;
    }
    heap = sim_get(dictptr, s_heap);
    if (heap == NULL)
        return NULL;
    if (!PyList_CheckExact(heap)) {
        PyErr_SetString(PyExc_TypeError, "Simulator._heap must be a list");
        return NULL;
    }
    Py_INCREF(heap);

    if (PyDict_SetItem(*dictptr, s_running, Py_True) < 0)
        goto error;
    started = 1;
    if (PyDict_SetItem(*dictptr, s_stopped, Py_False) < 0)
        goto error;

#if CK_HAVE_DICT_VERSION
    {
    uint64_t dict_ver = 0;
    int stopped_cache = -1;
#endif
    for (;;) {
        PyObject *entry, *time_obj, *ev, *callback, *cargs, *res;

        if (PyList_GET_SIZE(heap) == 0)
            break;
#if CK_HAVE_DICT_VERSION
        if (stopped_cache >= 0
                && ((PyDictObject *)*dictptr)->ma_version_tag == dict_ver) {
            if (stopped_cache)
                break;
        }
        else
#endif
        {
            PyObject *stopped = sim_get(dictptr, s_stopped);
            if (stopped == NULL)
                goto error;
            int st = flag_is_true(stopped);
            if (st < 0)
                goto error;
            if (st)
                break;
#if CK_HAVE_DICT_VERSION
            stopped_cache = 0;
#endif
        }
        if (!budget_is_inf && !(budget > 0.0))
            break;

        entry = ck_heappop_impl(heap);
        if (entry == NULL)
            goto error;
        if (!PyTuple_CheckExact(entry) || PyTuple_GET_SIZE(entry) < 3) {
            Py_DECREF(entry);
            PyErr_SetString(PyExc_TypeError,
                            "malformed kernel heap entry (expected a "
                            "(time, seq, ...) tuple)");
            goto error;
        }
        time_obj = PyTuple_GET_ITEM(entry, 0);
        if (!until_is_none) {
            int later;
            /* Exact-float fast path; otherwise defer to Python rich
             * comparison so mixed int/float horizons order exactly as
             * the pure-Python loop's ``time > until``. */
            if (until_is_float && PyFloat_CheckExact(time_obj))
                later = PyFloat_AS_DOUBLE(time_obj) > until_d;
            else {
                later = PyObject_RichCompareBool(time_obj, until, Py_GT);
                if (later < 0) {
                    Py_DECREF(entry);
                    goto error;
                }
            }
            if (later) {
                int pushed = ck_heappush_impl(heap, entry);
                Py_DECREF(entry);
                if (pushed < 0)
                    goto error;
                break;
            }
        }

        ev = PyTuple_GET_ITEM(entry, 2);
        if (ev == Py_None) {
            /* (time, seq, None, callback, args): fire-and-forget. */
            if (PyTuple_GET_SIZE(entry) < 5) {
                Py_DECREF(entry);
                PyErr_SetString(PyExc_IndexError,
                                "tuple index out of range");
                goto error;
            }
            callback = PyTuple_GET_ITEM(entry, 3);
            cargs = PyTuple_GET_ITEM(entry, 4);
        }
        else if (PyObject_TypeCheck(ev, timer_type)) {
            /* (time, seq, timer, version): version-checked Timer
             * (an EventHandle is a Timer armed once, with args). */
            PyObject *version, *live_version, *armed;
            if (PyTuple_GET_SIZE(entry) < 4) {
                Py_DECREF(entry);
                PyErr_SetString(PyExc_IndexError,
                                "tuple index out of range");
                goto error;
            }
            version = PyTuple_GET_ITEM(entry, 3);
            live_version = slot_get(ev, off_t_version, "_version");
            if (live_version == NULL) {
                Py_DECREF(entry);
                goto error;
            }
            int eq = int_eq(live_version, version);
            if (eq < 0) {
                Py_DECREF(entry);
                goto error;
            }
            armed = slot_get(ev, off_t_armed, "_armed");
            if (armed == NULL) {
                Py_DECREF(entry);
                goto error;
            }
            int is_armed = flag_is_true(armed);
            if (is_armed < 0) {
                Py_DECREF(entry);
                goto error;
            }
            if (!eq || !is_armed) {
                Py_DECREF(entry);
                continue;  /* superseded/cancelled: lazy drop */
            }
            slot_set(ev, off_t_armed, Py_False);
            callback = slot_get(ev, off_t_callback, "_callback");
            cargs = callback == NULL ? NULL
                : slot_get(ev, off_t_args, "_args");
            if (cargs == NULL) {
                Py_DECREF(entry);
                goto error;
            }
        }
        else {
            /* The Python loop reads ``event._version`` here. */
            PyErr_Format(PyExc_AttributeError,
                         "'%.100s' object has no attribute '_version'",
                         Py_TYPE(ev)->tp_name);
            Py_DECREF(entry);
            goto error;
        }
        Py_INCREF(callback);
        Py_INCREF(cargs);

        if (!PyTuple_Check(cargs)) {
            /* callback(*args) accepts any iterable; normalize. */
            PyObject *as_tuple = PySequence_Tuple(cargs);
            Py_DECREF(cargs);
            if (as_tuple == NULL) {
                Py_DECREF(callback);
                Py_DECREF(entry);
                goto error;
            }
            cargs = as_tuple;
        }

        /* Advance the clock, count, fire. */
        if (PyDict_SetItem(*dictptr, s_now, time_obj) < 0) {
            Py_DECREF(callback);
            Py_DECREF(cargs);
            Py_DECREF(entry);
            goto error;
        }
        executed += 1;
        if (!budget_is_inf)
            budget -= 1.0;
#if CK_HAVE_DICT_VERSION
        /* Snapshot after our own writes, before the callback runs:
         * an unchanged tag at the next loop top proves no callback
         * touched the simulator dict, so _stopped is still False. */
        dict_ver = ((PyDictObject *)*dictptr)->ma_version_tag;
#endif

        if (PyTuple_GET_SIZE(cargs) == 0)
            res = PyObject_CallNoArgs(callback);
        else
            res = PyObject_Call(callback, cargs, NULL);
        Py_DECREF(callback);
        Py_DECREF(cargs);
        Py_DECREF(entry);
        if (res == NULL)
            goto error;
        Py_DECREF(res);
    }
#if CK_HAVE_DICT_VERSION
    }
#endif

    /* Clean exit: snap the clock to the horizon, but only when nothing
     * at or before it is still queued. */
    if (!until_is_none) {
        PyObject *stopped = sim_get(dictptr, s_stopped);
        if (stopped == NULL)
            goto error;
        int st = PyObject_IsTrue(stopped);
        if (st < 0)
            goto error;
        if (!st) {
            PyObject *now = sim_get(dictptr, s_now);
            if (now == NULL)
                goto error;
            int snap = PyObject_RichCompareBool(now, until, Py_LT);
            if (snap < 0)
                goto error;
            if (snap && PyList_GET_SIZE(heap) > 0) {
                PyObject *head = PyList_GET_ITEM(heap, 0);
                Py_INCREF(head);
                PyObject *head_time = PySequence_GetItem(head, 0);
                Py_DECREF(head);
                if (head_time == NULL)
                    goto error;
                if (until_is_float && PyFloat_CheckExact(head_time))
                    snap = PyFloat_AS_DOUBLE(head_time) > until_d;
                else
                    snap = PyObject_RichCompareBool(head_time, until, Py_GT);
                Py_DECREF(head_time);
                if (snap < 0)
                    goto error;
            }
            if (snap && PyDict_SetItem(*dictptr, s_now, until) < 0)
                goto error;
        }
    }
    goto finish;

error:
    failed = 1;
finish:
    /* The Python loop's try/finally: flush the executed counter and
     * drop the running flag even when a callback raised. */
    if (started) {
        PyObject *exc_type, *exc_value, *exc_tb;
        PyErr_Fetch(&exc_type, &exc_value, &exc_tb);
        PyObject *exec_obj = PyLong_FromLongLong(executed);
        if (exec_obj != NULL) {
            if (PyDict_SetItem(*dictptr, s_events_executed, exec_obj) < 0)
                PyErr_Clear();
            Py_DECREF(exec_obj);
        }
        else
            PyErr_Clear();
        if (PyDict_SetItem(*dictptr, s_running, Py_False) < 0)
            PyErr_Clear();
        PyErr_Restore(exc_type, exc_value, exc_tb);
    }
    Py_XDECREF(heap);
    if (failed)
        return NULL;
    result = sim_get(dictptr, s_now);
    if (result == NULL)
        return NULL;
    Py_INCREF(result);
    return result;
}

/* --- exported heap helpers (parity tests exercise these directly) ----- */

static PyObject *
ck_heappush(PyObject *module, PyObject *args)
{
    PyObject *heap, *item;
    if (!PyArg_ParseTuple(args, "O!O:heappush", &PyList_Type, &heap, &item))
        return NULL;
    if (ck_heappush_impl(heap, item) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
ck_heappop(PyObject *module, PyObject *heap)
{
    if (!PyList_Check(heap)) {
        PyErr_SetString(PyExc_TypeError, "heap argument must be a list");
        return NULL;
    }
    return ck_heappop_impl(heap);
}

/* --- installation ------------------------------------------------------ */

static Py_ssize_t
resolve_slot(PyObject *type, const char *name)
{
    PyObject *descr = PyObject_GetAttrString(type, name);
    Py_ssize_t offset;

    if (descr == NULL)
        return -1;
    if (Py_TYPE(descr) != &PyMemberDescr_Type) {
        PyErr_Format(PyExc_TypeError,
                     "%s is not a __slots__ member descriptor", name);
        Py_DECREF(descr);
        return -1;
    }
    {
        PyMemberDef *member = ((PyMemberDescrObject *)descr)->d_member;
        if (member->type != T_OBJECT_EX) {
            PyErr_Format(PyExc_TypeError,
                         "%s has unexpected member storage", name);
            Py_DECREF(descr);
            return -1;
        }
        offset = member->offset;
    }
    Py_DECREF(descr);
    return offset;
}

static PyObject *
ck_install(PyObject *module, PyObject *args)
{
    PyObject *timer, *error;

    if (!PyArg_ParseTuple(args, "OO:install", &timer, &error))
        return NULL;
    if (!PyType_Check(timer)) {
        PyErr_SetString(PyExc_TypeError, "install(Timer, SimulationError)");
        return NULL;
    }
    if ((off_t_version = resolve_slot(timer, "_version")) < 0)
        return NULL;
    if ((off_t_armed = resolve_slot(timer, "_armed")) < 0)
        return NULL;
    if ((off_t_callback = resolve_slot(timer, "_callback")) < 0)
        return NULL;
    if ((off_t_args = resolve_slot(timer, "_args")) < 0)
        return NULL;

    Py_INCREF(timer);
    Py_XSETREF(timer_type, (PyTypeObject *)timer);
    Py_INCREF(error);
    Py_XSETREF(simulation_error, error);
    Py_RETURN_NONE;
}

/* --- module ------------------------------------------------------------ */

static PyMethodDef ck_methods[] = {
    {"install", ck_install, METH_VARARGS,
     "install(Timer, SimulationError): bind the engine's Timer class\n"
     "(resolves its __slots__ offsets; EventHandle and other subclasses\n"
     "share them) and error type. Must be called before run()."},
    {"run", ck_run, METH_VARARGS,
     "run(sim, until=None, max_events=None) -> float\n"
     "Compiled twin of Simulator.run(); byte-identical event sequence."},
    {"heappush", ck_heappush, METH_VARARGS,
     "heappush(heap, entry): push with kernel-entry tuple ordering."},
    {"heappop", ck_heappop, METH_O,
     "heappop(heap) -> entry: pop with kernel-entry tuple ordering."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef ck_module = {
    PyModuleDef_HEAD_INIT,
    "repro.core._ckernel",
    "Compiled event-kernel inner loop (see repro.core.engine).",
    -1,
    ck_methods,
};

PyMODINIT_FUNC
PyInit__ckernel(void)
{
    PyObject *module;

    s_now = PyUnicode_InternFromString("_now");
    s_stopped = PyUnicode_InternFromString("_stopped");
    s_running = PyUnicode_InternFromString("_running");
    s_events_executed = PyUnicode_InternFromString("_events_executed");
    s_heap = PyUnicode_InternFromString("_heap");
    if (s_now == NULL || s_stopped == NULL || s_running == NULL
            || s_events_executed == NULL || s_heap == NULL)
        return NULL;

    module = PyModule_Create(&ck_module);
    if (module == NULL)
        return NULL;
    if (PyModule_AddStringConstant(module, "KERNEL_NAME", "c") < 0
            || PyModule_AddIntConstant(module, "KERNEL_ABI", 1) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
