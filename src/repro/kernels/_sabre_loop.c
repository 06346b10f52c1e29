/* Compiled SABRE routing loop: one call routes a whole dependency graph.
 *
 * route(...) runs the step loop of repro.compiler.routing.sabre.SabreRouter
 * end to end and returns the event stream the router's shared emitter turns
 * into the output circuit:
 *
 *   (events, wires, absorptions, final_layout, inserted, absorbed)
 *
 *  - events[k] is the k-th output instruction: a DAG node id (< num_nodes)
 *    or num_nodes + edge_id for an inserted SWAP on that coupling edge;
 *  - wires[k] is its physical-qubit tuple, (p0,) or (p0, p1);
 *  - absorptions lists (output position, edge_id) for every SWAP folded into
 *    the SU(4) gate already emitted at that position, in decision order.
 *
 * Step-for-step contract with the Python loop (SabreRouter._route_py):
 *  - each execute pass walks the front in order; blocked gates survive in
 *    order and released successors are appended after them;
 *  - the lookahead set is the breadth-first walk over successors from the
 *    front, stopping once lookahead_size 2Q nodes are collected (checked per
 *    dequeued node), recomputed only after a gate executes;
 *  - candidates are the coupling edges incident to a front physical qubit,
 *    in ascending edge-id order;
 *  - costs use int64 distance sums and the same IEEE-754 double operations
 *    in the same order: sum_front / F, + w * (sum_ext / E), + penalty[e],
 *    * max(decay[a], decay[b]); the base cost has no penalty;
 *  - the chosen SWAP is the least (cost, candidate index); with mirroring,
 *    the least absorbable candidate whose cost is below the base cost wins
 *    first (absorbable: the edge's last emitted 2Q gate is at a position no
 *    earlier than the last output touching either endpoint);
 *  - decay grows by decay_increment on both endpoints of every chosen SWAP
 *    and resets to 1.0 after decay_reset_interval SWAPs;
 *  - the step limit and an empty candidate set raise RuntimeError with the
 *    Python loop's messages.
 *
 * The module uses only the buffer protocol (no numpy C API), so it builds
 * against any CPython >= 3.9 with no third-party headers.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

/* Growable int64 array of fixed-width rows for the output stream. */
typedef struct {
    int64_t *data;
    Py_ssize_t len; /* int64 entries, a multiple of the row width */
    Py_ssize_t cap;
} Vec;

static int
vec_append(Vec *v, int64_t a, int64_t b, int64_t c, Py_ssize_t width)
{
    if (v->len + 3 > v->cap) {
        Py_ssize_t cap = v->cap ? 2 * v->cap : 3 * 1024;
        int64_t *data = (int64_t *)PyMem_Realloc(v->data, cap * sizeof(int64_t));
        if (data == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        v->data = data;
        v->cap = cap;
    }
    v->data[v->len] = a;
    v->data[v->len + 1] = b;
    v->data[v->len + 2] = c;
    v->len += width;
    return 0;
}

/* All ``count`` entries of ``values`` lie in [0, limit). */
static int
in_range(const int64_t *values, Py_ssize_t count, int64_t limit)
{
    for (Py_ssize_t i = 0; i < count; i++)
        if (values[i] < 0 || values[i] >= limit)
            return 0;
    return 1;
}

/* ``ptr`` is a CSR index pointer over ``count`` rows into ``total`` entries. */
static int
valid_indptr(const int64_t *ptr, Py_ssize_t count, Py_ssize_t total)
{
    if (ptr[0] != 0 || ptr[count] != total)
        return 0;
    for (Py_ssize_t i = 0; i < count; i++)
        if (ptr[i] > ptr[i + 1])
            return 0;
    return 1;
}

/* A tuple of ``count`` Python ints. */
static PyObject *
int_tuple(const int64_t *values, Py_ssize_t count)
{
    PyObject *tuple = PyTuple_New(count);
    if (tuple == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < count; i++) {
        PyObject *value = PyLong_FromLongLong(values[i]);
        if (value == NULL) {
            Py_DECREF(tuple);
            return NULL;
        }
        PyTuple_SET_ITEM(tuple, i, value);
    }
    return tuple;
}

static PyObject *
build_result(const Vec *events, const Vec *absorptions, const int64_t *layout,
             Py_ssize_t num_logical, Py_ssize_t inserted, Py_ssize_t absorbed)
{
    Py_ssize_t count = events->len / 3;
    PyObject *event_list = PyList_New(count);
    PyObject *wire_list = PyList_New(count);
    PyObject *absorb_list = PyList_New(absorptions->len / 2);
    PyObject *layout_list = PyList_New(num_logical);
    if (!event_list || !wire_list || !absorb_list || !layout_list)
        goto fail;
    for (Py_ssize_t k = 0; k < count; k++) {
        const int64_t *row = events->data + 3 * k;
        PyObject *id = PyLong_FromLongLong(row[0]);
        PyObject *wires = int_tuple(row + 1, row[2] < 0 ? 1 : 2);
        if (!id || !wires) {
            Py_XDECREF(id);
            Py_XDECREF(wires);
            goto fail;
        }
        PyList_SET_ITEM(event_list, k, id);
        PyList_SET_ITEM(wire_list, k, wires);
    }
    for (Py_ssize_t k = 0; k < absorptions->len / 2; k++) {
        PyObject *pair = int_tuple(absorptions->data + 2 * k, 2);
        if (!pair)
            goto fail;
        PyList_SET_ITEM(absorb_list, k, pair);
    }
    for (Py_ssize_t l = 0; l < num_logical; l++) {
        PyObject *physical = PyLong_FromLongLong(layout[l]);
        if (!physical)
            goto fail;
        PyList_SET_ITEM(layout_list, l, physical);
    }
    return Py_BuildValue("(NNNNnn)", event_list, wire_list, absorb_list,
                         layout_list, inserted, absorbed);
fail:
    Py_XDECREF(event_list);
    Py_XDECREF(wire_list);
    Py_XDECREF(absorb_list);
    Py_XDECREF(layout_list);
    return NULL;
}

static PyObject *
route(PyObject *self, PyObject *args)
{
    Py_buffer q0_buf, q1_buf, succ_ptr_buf, succ_buf, indegree_buf, front_buf;
    Py_buffer layout_buf, edge_buf, incident_ptr_buf, incident_buf, distance_buf;
    Py_buffer penalty_buf = {0};
    PyObject *penalty_obj;
    Py_ssize_t lookahead_size, reset_interval, max_steps;
    double weight, increment;
    int mirroring;

    if (!PyArg_ParseTuple(
            args, "y*y*y*y*y*y*y*y*y*y*y*Onddnpn:route",
            &q0_buf, &q1_buf, &succ_ptr_buf, &succ_buf, &indegree_buf,
            &front_buf, &layout_buf, &edge_buf, &incident_ptr_buf,
            &incident_buf, &distance_buf, &penalty_obj, &lookahead_size,
            &weight, &increment, &reset_interval, &mirroring, &max_steps))
        return NULL;

    PyObject *result = NULL;
    const int64_t *penalty = NULL;
    if (penalty_obj != Py_None) {
        if (PyObject_GetBuffer(penalty_obj, &penalty_buf, PyBUF_SIMPLE) < 0)
            goto release;
        penalty = (const int64_t *)penalty_buf.buf;
    }

    const int64_t *q0 = (const int64_t *)q0_buf.buf;
    const int64_t *q1 = (const int64_t *)q1_buf.buf; /* -1 for 1Q nodes */
    const int64_t *succ_ptr = (const int64_t *)succ_ptr_buf.buf;
    const int64_t *succ = (const int64_t *)succ_buf.buf;
    const int64_t *edges = (const int64_t *)edge_buf.buf;
    const int64_t *incident_ptr = (const int64_t *)incident_ptr_buf.buf;
    const int64_t *incident = (const int64_t *)incident_buf.buf;
    const int64_t *distance = (const int64_t *)distance_buf.buf;

    const Py_ssize_t word = (Py_ssize_t)sizeof(int64_t);
    Py_ssize_t num_nodes = q0_buf.len / word;
    Py_ssize_t num_logical = layout_buf.len / word;
    Py_ssize_t num_front = front_buf.len / word;
    Py_ssize_t num_edges = edge_buf.len / (2 * word);
    Py_ssize_t n = incident_ptr_buf.len / word - 1;

    int valid =
        n >= 0 && q1_buf.len == q0_buf.len && indegree_buf.len == q0_buf.len
        && num_front <= num_nodes
        && succ_ptr_buf.len == (num_nodes + 1) * word
        && distance_buf.len == n * n * word
        && (penalty == NULL || penalty_buf.len == num_edges * word)
        && valid_indptr(succ_ptr, num_nodes, succ_buf.len / word)
        && valid_indptr(incident_ptr, n, incident_buf.len / word)
        && in_range(succ, succ_buf.len / word, num_nodes)
        && in_range((const int64_t *)front_buf.buf, num_front, num_nodes)
        && in_range(q0, num_nodes, num_logical)
        && in_range((const int64_t *)layout_buf.buf, num_logical, n)
        && in_range(edges, 2 * num_edges, n)
        && in_range(incident, incident_buf.len / word, num_edges);
    for (Py_ssize_t i = 0; valid && i < num_nodes; i++)
        valid = q1[i] >= -1 && q1[i] < num_logical;
    if (!valid) {
        PyErr_SetString(PyExc_ValueError, "route: inconsistent input arrays");
        goto release;
    }

    /* Working state.  ``pair0/pair1`` hold the logical qubits of the front
     * then lookahead 2Q nodes; ``phys0/phys1`` their physical positions. */
    Py_ssize_t nodes_alloc = num_nodes ? num_nodes : 1;
    Py_ssize_t phys_alloc = n ? n : 1;
    Py_ssize_t edges_alloc = num_edges ? num_edges : 1;
    int64_t *layout = PyMem_Malloc((num_logical ? num_logical : 1) * word);
    int64_t *phys_to_logical = PyMem_Malloc(phys_alloc * word);
    int64_t *indegree = PyMem_Malloc(nodes_alloc * word);
    int64_t *front = PyMem_Malloc(nodes_alloc * word);
    int64_t *survivors = PyMem_Malloc(nodes_alloc * word);
    int64_t *released = PyMem_Malloc(nodes_alloc * word);
    int64_t *queue = PyMem_Malloc(nodes_alloc * word);
    unsigned char *visited = PyMem_Calloc(nodes_alloc, 1);
    int64_t *pair0 = PyMem_Malloc(nodes_alloc * word);
    int64_t *pair1 = PyMem_Malloc(nodes_alloc * word);
    int64_t *phys0 = PyMem_Malloc(nodes_alloc * word);
    int64_t *phys1 = PyMem_Malloc(nodes_alloc * word);
    int64_t *touch_head = PyMem_Malloc(phys_alloc * word);
    int64_t *touch_next = PyMem_Malloc(2 * nodes_alloc * word);
    int64_t *seen = PyMem_Calloc(nodes_alloc, word);
    int64_t *edge_of = PyMem_Malloc(phys_alloc * phys_alloc * word);
    unsigned char *mark = PyMem_Calloc(edges_alloc, 1);
    int64_t *candidates = PyMem_Malloc(edges_alloc * word);
    double *costs = PyMem_Malloc(edges_alloc * sizeof(double));
    int64_t *last_on_edge = PyMem_Malloc(edges_alloc * word);
    int64_t *last_touch = PyMem_Malloc(phys_alloc * word);
    double *decay = PyMem_Malloc(phys_alloc * sizeof(double));
    Vec events = {0}, absorptions = {0}; /* events: (id, p0, p1) rows */

    if (!layout || !phys_to_logical || !indegree || !front || !survivors
        || !released || !queue || !visited || !pair0 || !pair1 || !phys0
        || !phys1 || !touch_head || !touch_next || !seen || !edge_of || !mark
        || !candidates || !costs || !last_on_edge || !last_touch || !decay) {
        PyErr_NoMemory();
        goto cleanup;
    }

    memcpy(layout, layout_buf.buf, num_logical * word);
    memcpy(indegree, indegree_buf.buf, num_nodes * word);
    memcpy(front, front_buf.buf, num_front * word);

    /* The in-degrees must be those of ``succ`` and the front distinct
     * sources: then every node enters the front at most once, which bounds
     * each node-sized work array. */
    memset(released, 0, nodes_alloc * word);
    for (Py_ssize_t j = 0; j < succ_ptr[num_nodes]; j++)
        released[succ[j]]++;
    for (Py_ssize_t v = 0; valid && v < num_nodes; v++)
        valid = released[v] == indegree[v];
    for (Py_ssize_t i = 0; valid && i < num_front; i++) {
        valid = !visited[front[i]] && indegree[front[i]] == 0;
        visited[front[i]] = 1;
    }
    memset(visited, 0, nodes_alloc);
    if (!valid) {
        PyErr_SetString(PyExc_ValueError, "route: inconsistent dependency graph");
        goto cleanup;
    }
    for (Py_ssize_t p = 0; p < n; p++) {
        phys_to_logical[p] = -1;
        touch_head[p] = -1;
        last_touch[p] = -1;
        decay[p] = 1.0;
    }
    for (Py_ssize_t l = 0; l < num_logical; l++)
        phys_to_logical[layout[l]] = l;
    for (Py_ssize_t i = 0; i < n * n; i++)
        edge_of[i] = -1;
    for (Py_ssize_t e = 0; e < num_edges; e++) {
        edge_of[edges[2 * e] * n + edges[2 * e + 1]] = e;
        edge_of[edges[2 * e + 1] * n + edges[2 * e]] = e;
        last_on_edge[e] = -1;
    }

    Py_ssize_t inserted = 0, absorbed = 0, since_reset = 0, steps = 0;
    int64_t stamp = 0;
    Py_ssize_t num_pairs = 0, front_pairs = 0; /* P and F of the stall arrays */
    int front_dirty = 1;

    while (num_front > 0) {
        if (++steps > max_steps) {
            PyErr_SetString(PyExc_RuntimeError,
                            "SABRE routing failed to converge (step limit exceeded)");
            goto cleanup;
        }
        /* Execute everything executable, pass after pass. */
        for (;;) {
            int progressed = 0;
            Py_ssize_t num_survivors = 0, num_released = 0;
            for (Py_ssize_t i = 0; i < num_front; i++) {
                int64_t node = front[i];
                int64_t p0 = layout[q0[node]], p1 = -1, edge = -1;
                if (q1[node] >= 0) {
                    p1 = layout[q1[node]];
                    edge = edge_of[p0 * n + p1];
                    if (edge < 0) {
                        survivors[num_survivors++] = node;
                        continue;
                    }
                }
                int64_t position = events.len / 3;
                if (vec_append(&events, node, p0, p1, 3) < 0)
                    goto cleanup;
                if (edge >= 0) {
                    last_on_edge[edge] = position;
                    last_touch[p1] = position;
                }
                last_touch[p0] = position;
                for (int64_t j = succ_ptr[node]; j < succ_ptr[node + 1]; j++)
                    if (--indegree[succ[j]] == 0)
                        released[num_released++] = succ[j];
                progressed = 1;
                front_dirty = 1;
            }
            memcpy(front, survivors, num_survivors * word);
            memcpy(front + num_survivors, released, num_released * word);
            num_front = num_survivors + num_released;
            if (!progressed || num_front == 0)
                break;
        }
        if (num_front == 0)
            break;

        /* Stall: every front node is a blocked 2Q gate. */
        if (front_dirty) {
            Py_ssize_t head = 0, tail = 0, num_ext = 0;
            num_pairs = 0;
            for (Py_ssize_t i = 0; i < num_front; i++) {
                pair0[num_pairs] = q0[front[i]];
                pair1[num_pairs++] = q1[front[i]];
                visited[front[i]] = 1;
                queue[tail++] = front[i];
            }
            front_pairs = num_pairs;
            while (head < tail && num_ext < lookahead_size) {
                int64_t node = queue[head++];
                for (int64_t j = succ_ptr[node]; j < succ_ptr[node + 1]; j++) {
                    int64_t next = succ[j];
                    if (visited[next])
                        continue;
                    visited[next] = 1;
                    if (q1[next] >= 0) {
                        pair0[num_pairs] = q0[next];
                        pair1[num_pairs++] = q1[next];
                        num_ext++;
                    }
                    queue[tail++] = next;
                }
            }
            for (Py_ssize_t i = 0; i < tail; i++)
                visited[queue[i]] = 0;
            front_dirty = 0;
        }
        Py_ssize_t num_ext = num_pairs - front_pairs;

        /* Physical positions, plus per physical qubit a linked list of
         * the pair endpoints sitting on it (entry 2i / 2i+1 = pair i). */
        for (Py_ssize_t i = 0; i < num_pairs; i++) {
            phys0[i] = layout[pair0[i]];
            phys1[i] = layout[pair1[i]];
            touch_next[2 * i] = touch_head[phys0[i]];
            touch_head[phys0[i]] = 2 * i;
            touch_next[2 * i + 1] = touch_head[phys1[i]];
            touch_head[phys1[i]] = 2 * i + 1;
        }
        for (Py_ssize_t i = 0; i < front_pairs; i++) {
            for (int64_t j = incident_ptr[phys0[i]]; j < incident_ptr[phys0[i] + 1]; j++)
                mark[incident[j]] = 1;
            for (int64_t j = incident_ptr[phys1[i]]; j < incident_ptr[phys1[i] + 1]; j++)
                mark[incident[j]] = 1;
        }
        Py_ssize_t count = 0;
        for (Py_ssize_t e = 0; e < num_edges; e++) {
            if (mark[e]) {
                candidates[count++] = e;
                mark[e] = 0;
            }
        }
        if (count == 0) {
            PyErr_SetString(PyExc_RuntimeError,
                            "no SWAP candidates found; is the coupling map connected?");
            goto cleanup;
        }

        int64_t base_front = 0, base_ext = 0;
        for (Py_ssize_t i = 0; i < num_pairs; i++) {
            int64_t d = distance[phys0[i] * n + phys1[i]];
            if (i < front_pairs)
                base_front += d;
            else
                base_ext += d;
        }
        double base_cost = (double)base_front / (double)front_pairs;
        if (num_ext)
            base_cost += weight * ((double)base_ext / (double)num_ext);

        /* A SWAP on (a, b) only moves the pairs with an endpoint on a or
         * b, so each trial sum is the base sum plus their exact integer
         * deltas: the same int64 totals as summing every pair afresh. */
        Py_ssize_t best = 0;
        for (Py_ssize_t c = 0; c < count; c++) {
            int64_t a = edges[2 * candidates[c]];
            int64_t b = edges[2 * candidates[c] + 1];
            int64_t sum_front = base_front, sum_ext = base_ext;
            stamp++;
            for (int side = 0; side < 2; side++) {
                for (int64_t entry = touch_head[side ? b : a]; entry >= 0;
                     entry = touch_next[entry]) {
                    int64_t i = entry >> 1;
                    if (seen[i] == stamp)
                        continue;
                    seen[i] = stamp;
                    int64_t p0 = phys0[i], p1 = phys1[i];
                    int64_t t0 = (p0 == a) ? b : ((p0 == b) ? a : p0);
                    int64_t t1 = (p1 == a) ? b : ((p1 == b) ? a : p1);
                    int64_t delta = distance[t0 * n + t1] - distance[p0 * n + p1];
                    if (i < front_pairs)
                        sum_front += delta;
                    else
                        sum_ext += delta;
                }
            }
            double cost = (double)sum_front / (double)front_pairs;
            if (num_ext)
                cost += weight * ((double)sum_ext / (double)num_ext);
            if (penalty != NULL)
                cost += (double)penalty[candidates[c]];
            cost *= (decay[a] > decay[b]) ? decay[a] : decay[b];
            costs[c] = cost;
            if (cost < costs[best])
                best = c;
        }

        for (Py_ssize_t i = 0; i < num_pairs; i++)
            touch_head[phys0[i]] = touch_head[phys1[i]] = -1;

        int absorb = 0;
        if (mirroring) {
            /* The least (cost, index) absorbable candidate below base cost
             * is the first hit of the Python loop's stable-sorted scan. */
            Py_ssize_t pick = -1;
            for (Py_ssize_t c = 0; c < count; c++) {
                if (!(costs[c] < base_cost) || (pick >= 0 && !(costs[c] < costs[pick])))
                    continue;
                int64_t position = last_on_edge[candidates[c]];
                if (position >= 0
                    && last_touch[edges[2 * candidates[c]]] <= position
                    && last_touch[edges[2 * candidates[c] + 1]] <= position)
                    pick = c;
            }
            if (pick >= 0) {
                best = pick;
                absorb = 1;
            }
        }

        int64_t edge = candidates[best];
        int64_t a = edges[2 * edge], b = edges[2 * edge + 1];
        if (absorb) {
            if (vec_append(&absorptions, last_on_edge[edge], edge, 0, 2) < 0)
                goto cleanup;
            absorbed++;
        } else {
            int64_t position = events.len / 3;
            if (vec_append(&events, num_nodes + edge, a, b, 3) < 0)
                goto cleanup;
            last_on_edge[edge] = position;
            last_touch[a] = position;
            last_touch[b] = position;
            inserted++;
        }
        int64_t logical_a = phys_to_logical[a], logical_b = phys_to_logical[b];
        if (logical_a >= 0)
            layout[logical_a] = b;
        if (logical_b >= 0)
            layout[logical_b] = a;
        phys_to_logical[a] = logical_b;
        phys_to_logical[b] = logical_a;
        decay[a] += increment;
        decay[b] += increment;
        if (++since_reset >= reset_interval) {
            for (Py_ssize_t p = 0; p < n; p++)
                decay[p] = 1.0;
            since_reset = 0;
        }
    }

    result = build_result(&events, &absorptions, layout, num_logical, inserted, absorbed);

cleanup:
    PyMem_Free(layout);
    PyMem_Free(phys_to_logical);
    PyMem_Free(indegree);
    PyMem_Free(front);
    PyMem_Free(survivors);
    PyMem_Free(released);
    PyMem_Free(queue);
    PyMem_Free(visited);
    PyMem_Free(pair0);
    PyMem_Free(pair1);
    PyMem_Free(phys0);
    PyMem_Free(phys1);
    PyMem_Free(touch_head);
    PyMem_Free(touch_next);
    PyMem_Free(seen);
    PyMem_Free(edge_of);
    PyMem_Free(mark);
    PyMem_Free(candidates);
    PyMem_Free(costs);
    PyMem_Free(last_on_edge);
    PyMem_Free(last_touch);
    PyMem_Free(decay);
    PyMem_Free(events.data);
    PyMem_Free(absorptions.data);
release:
    PyBuffer_Release(&q0_buf);
    PyBuffer_Release(&q1_buf);
    PyBuffer_Release(&succ_ptr_buf);
    PyBuffer_Release(&succ_buf);
    PyBuffer_Release(&indegree_buf);
    PyBuffer_Release(&front_buf);
    PyBuffer_Release(&layout_buf);
    PyBuffer_Release(&edge_buf);
    PyBuffer_Release(&incident_ptr_buf);
    PyBuffer_Release(&incident_buf);
    PyBuffer_Release(&distance_buf);
    if (penalty != NULL)
        PyBuffer_Release(&penalty_buf);
    return result;
}

static PyMethodDef sabre_loop_methods[] = {
    {"route", route, METH_VARARGS,
     "route(q0, q1, succ_ptr, succ, indegree, front, layout, edges,\n"
     "      incident_ptr, incident, distance, penalty, lookahead_size,\n"
     "      lookahead_weight, decay_increment, decay_reset_interval,\n"
     "      mirroring, max_steps)\n"
     "Run the whole SABRE step loop; returns (events, wires, absorptions,\n"
     "final_layout, inserted, absorbed)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef sabre_loop_module = {
    PyModuleDef_HEAD_INIT,
    "_sabre_loop",
    "Compiled SABRE routing loop (buffer-protocol only).",
    -1,
    sabre_loop_methods,
};

PyMODINIT_FUNC
PyInit__sabre_loop(void)
{
    return PyModule_Create(&sabre_loop_module);
}
