/* The repro.kernels native extension: two kernels behind one module.
 *
 *  - route(...): the compiled SABRE routing loop, one call per routing run;
 *  - instantiation_objective(...): the approximate-synthesis objective
 *    f = 1 - |tr(T^dagger U)| / d and its exact gradient, one call per
 *    L-BFGS-B evaluation.
 *
 * The module uses only the buffer protocol (no numpy C API), so it builds
 * against any CPython >= 3.9 with no third-party headers.
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
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
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

/* ------------------------------------------------------------------------
 * Instantiation objective of repro.synthesis.approximate.
 *
 * instantiation_objective(params, kinds, qubits, offsets, fixed, target,
 *                         gradient) -> f
 *
 * evaluates f = 1 - |A| / d with A = tr(T^dagger U) for the ansatz
 * U = G_{K-1} ... G_0 described by the plan arrays, one row per operation:
 * kinds[k] is 0 for U3, 1 for Can, 2 for a fixed gate whose 4x4 matrix
 * opens row k of the (count, 17) complex array fixed; qubits[k] = (q0, q1),
 * q1 = -1 for 1Q; offsets[k] is the first of its three parameters.  It
 * writes df/dparams into gradient.
 *
 * The forward sweep stores every prefix P_{k-1} = G_{k-1} ... G_0; the
 * backward sweep keeps Bt = (T^dagger G_{K-1} ... G_{k+1})^T, the transpose
 * of B_k, so that both sweeps apply each gate to the 2 or 4 stacked rows it
 * touches and never form a dense d x d product.  The derivative of A along
 * entry g[a, b] of a parametrized gate is the partial trace
 * sum_s (P_{k-1} B_k)[(s, b), (s, a)] over spectator states s, read straight
 * off the rows of P_{k-1} and Bt, and df = -Re(conj(A) dA) / (|A| d).  The
 * value agrees with the numpy path to rounding, not bit for bit.
 * ------------------------------------------------------------------------ */

typedef struct {
    double re, im;
} cplx;

enum { OP_U3 = 0, OP_CAN = 1, OP_FIXED = 2 };

static inline cplx
cmul(cplx a, cplx b)
{
    cplx r = {a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re};
    return r;
}

static inline cplx
cexpi(double angle)
{
    cplx r = {cos(angle), sin(angle)};
    return r;
}

static inline cplx
cscale(cplx a, double s)
{
    cplx r = {a.re * s, a.im * s};
    return r;
}

/* i * a */
static inline cplx
ctimes_i(cplx a)
{
    cplx r = {-a.im, a.re};
    return r;
}

/* Row-major U3(theta, phi, lam) in g[0..3] and its three derivatives. */
static void
u3_gate(const double *angles, cplx *g, cplx d[3][16])
{
    double c = cos(angles[0] / 2.0), s = sin(angles[0] / 2.0);
    cplx e_phi = cexpi(angles[1]), e_lam = cexpi(angles[2]);
    cplx e_both = cexpi(angles[1] + angles[2]);
    cplx zero = {0.0, 0.0}, cc = {c, 0.0};
    g[0] = cc;
    g[1] = cscale(e_lam, -s);
    g[2] = cscale(e_phi, s);
    g[3] = cscale(e_both, c);
    d[0][0] = (cplx){-0.5 * s, 0.0};
    d[0][1] = cscale(e_lam, -0.5 * c);
    d[0][2] = cscale(e_phi, 0.5 * c);
    d[0][3] = cscale(e_both, -0.5 * s);
    d[1][0] = zero;
    d[1][1] = zero;
    d[1][2] = ctimes_i(g[2]);
    d[1][3] = ctimes_i(g[3]);
    d[2][0] = zero;
    d[2][1] = ctimes_i(g[1]);
    d[2][2] = zero;
    d[2][3] = ctimes_i(g[3]);
}

/* Row-major Can(x, y, z) = exp(-i (x XX + y YY + z ZZ)) in g[0..15] and its
 * derivatives.  On span{|00>, |11>} it is e^{-iz} exp(-i (x - y) X), on
 * span{|01>, |10>} e^{iz} exp(-i (x + y) X); every other entry is zero. */
static void
can_gate(const double *coords, cplx *g, cplx d[3][16])
{
    double minus = coords[0] - coords[1], plus = coords[0] + coords[1];
    cplx outer = cexpi(-coords[2]), inner = cexpi(coords[2]);
    cplx diag_o = cscale(outer, cos(minus)), off_o = cscale(ctimes_i(outer), -sin(minus));
    cplx diag_i = cscale(inner, cos(plus)), off_i = cscale(ctimes_i(inner), -sin(plus));
    /* d/d(minus) and d/d(plus) of the diagonal and off-diagonal entries. */
    cplx ddiag_o = cscale(outer, -sin(minus)), doff_o = cscale(ctimes_i(outer), -cos(minus));
    cplx ddiag_i = cscale(inner, -sin(plus)), doff_i = cscale(ctimes_i(inner), -cos(plus));
    memset(g, 0, 16 * sizeof(cplx));
    memset(d, 0, 3 * 16 * sizeof(cplx));
    g[0] = g[15] = diag_o;
    g[3] = g[12] = off_o;
    g[5] = g[10] = diag_i;
    g[6] = g[9] = off_i;
    /* x moves minus and plus by +1; y moves minus by -1 and plus by +1. */
    d[0][0] = d[0][15] = ddiag_o;
    d[0][3] = d[0][12] = doff_o;
    d[1][0] = d[1][15] = cscale(ddiag_o, -1.0);
    d[1][3] = d[1][12] = cscale(doff_o, -1.0);
    d[0][5] = d[0][10] = d[1][5] = d[1][10] = ddiag_i;
    d[0][6] = d[0][9] = d[1][6] = d[1][9] = doff_i;
    /* z multiplies the outer block by e^{-iz} and the inner one by e^{iz}. */
    d[2][0] = d[2][15] = cscale(ctimes_i(diag_o), -1.0);
    d[2][3] = d[2][12] = cscale(ctimes_i(off_o), -1.0);
    d[2][5] = d[2][10] = ctimes_i(diag_i);
    d[2][6] = d[2][9] = ctimes_i(off_i);
}

/* dst rows (x, y) <- (g00 x + g01 y, g10 x + g11 y) from src rows; src may
 * be dst. */
static void
mix_pair(const cplx *sx, const cplx *sy, cplx *dx, cplx *dy, Py_ssize_t dim,
         cplx g00, cplx g01, cplx g10, cplx g11)
{
    for (Py_ssize_t m = 0; m < dim; m++) {
        cplx x = sx[m], y = sy[m];
        cplx a = cmul(g00, x), b = cmul(g01, y), c = cmul(g10, x), e = cmul(g11, y);
        dx[m] = (cplx){a.re + b.re, a.im + b.im};
        dy[m] = (cplx){c.re + e.re, c.im + e.im};
    }
}

/* dst rows r[i] <- sum_j g[4 i + j] src rows r[j]; src may be dst. */
static void
mix_quad(const cplx *src, cplx *dst, const Py_ssize_t *rows, Py_ssize_t dim, const cplx *g)
{
    const cplx *in[4];
    for (int j = 0; j < 4; j++)
        in[j] = src + rows[j] * dim;
    for (Py_ssize_t m = 0; m < dim; m++) {
        cplx v[4] = {in[0][m], in[1][m], in[2][m], in[3][m]};
        for (int i = 0; i < 4; i++) {
            double re = 0.0, im = 0.0;
            for (int j = 0; j < 4; j++) {
                cplx t = cmul(g[4 * i + j], v[j]);
                re += t.re;
                im += t.im;
            }
            dst[rows[i] * dim + m] = (cplx){re, im};
        }
    }
}

/* The full rows an operation on (q0[, q1]) of an n-qubit register mixes,
 * for the spectator state ``base``: rows[local] with local = 2 b0 + b1. */
static int
op_rows(Py_ssize_t base, int kind, int64_t q0, int64_t q1, int n, Py_ssize_t *rows)
{
    Py_ssize_t m0 = (Py_ssize_t)1 << (n - 1 - q0);
    if (kind == OP_U3) {
        if (base & m0)
            return 0;
        rows[0] = base;
        rows[1] = base | m0;
        return 2;
    }
    Py_ssize_t m1 = (Py_ssize_t)1 << (n - 1 - q1);
    if (base & (m0 | m1))
        return 0;
    rows[0] = base;
    rows[1] = base | m1;
    rows[2] = base | m0;
    rows[3] = base | m0 | m1;
    return 4;
}

/* dst <- G_full src (src may be dst) for the small matrix g of one op. */
static void
apply_rows(const cplx *src, cplx *dst, int kind, int64_t q0, int64_t q1, int n, const cplx *g)
{
    Py_ssize_t dim = (Py_ssize_t)1 << n, rows[4];
    for (Py_ssize_t base = 0; base < dim; base++) {
        int count = op_rows(base, kind, q0, q1, n, rows);
        if (count == 0)
            continue;
        const Py_ssize_t *r = rows;
        if (kind == OP_U3) {
            mix_pair(src + r[0] * dim, src + r[1] * dim, dst + r[0] * dim, dst + r[1] * dim,
                     dim, g[0], g[1], g[2], g[3]);
        } else if (kind == OP_CAN) {
            /* Can only couples local states 0 <-> 3 and 1 <-> 2. */
            mix_pair(src + r[0] * dim, src + r[3] * dim, dst + r[0] * dim, dst + r[3] * dim,
                     dim, g[0], g[3], g[12], g[15]);
            mix_pair(src + r[1] * dim, src + r[2] * dim, dst + r[1] * dim, dst + r[2] * dim,
                     dim, g[5], g[6], g[9], g[10]);
        } else {
            mix_quad(src, dst, r, dim, g);
        }
    }
}

/* sum_m x[m] y[m] (no conjugation). */
static inline cplx
row_dot(const cplx *x, const cplx *y, Py_ssize_t dim)
{
    double re = 0.0, im = 0.0;
    for (Py_ssize_t m = 0; m < dim; m++) {
        re += x[m].re * y[m].re - x[m].im * y[m].im;
        im += x[m].re * y[m].im + x[m].im * y[m].re;
    }
    cplx r = {re, im};
    return r;
}

/* coef[a * size + b] = sum_s (P B)[(s, b), (s, a)] = sum_s P[(s, b)] . Bt[(s, a)]
 * for every entry (a, b) the op's derivatives can make non-zero. */
static void
partial_trace(const cplx *prefix, const cplx *bt, int kind, int64_t q0, int64_t q1, int n,
              cplx *coef)
{
    Py_ssize_t dim = (Py_ssize_t)1 << n, rows[4];
    int size = kind == OP_U3 ? 2 : 4;
    memset(coef, 0, 16 * sizeof(cplx));
    for (Py_ssize_t base = 0; base < dim; base++) {
        if (op_rows(base, kind, q0, q1, n, rows) == 0)
            continue;
        for (int a = 0; a < size; a++)
            for (int b = 0; b < size; b++) {
                if (kind == OP_CAN && a != b && a + b != 3)
                    continue;
                cplx t = row_dot(prefix + rows[b] * dim, bt + rows[a] * dim, dim);
                coef[a * size + b].re += t.re;
                coef[a * size + b].im += t.im;
            }
    }
}

static PyObject *
instantiation_objective(PyObject *self, PyObject *args)
{
    Py_buffer params_buf, kinds_buf, qubits_buf, offsets_buf, fixed_buf, grad_buf;
    Py_buffer target_buf = {0};
    PyObject *target_obj, *result = NULL;
    cplx *work = NULL;

    if (!PyArg_ParseTuple(args, "y*y*y*y*y*Ow*:instantiation_objective", &params_buf,
                          &kinds_buf, &qubits_buf, &offsets_buf, &fixed_buf,
                          &target_obj, &grad_buf))
        return NULL;
    if (PyObject_GetBuffer(target_obj, &target_buf, PyBUF_RECORDS_RO) < 0)
        goto release;

    const Py_ssize_t word = (Py_ssize_t)sizeof(int64_t);
    const double *params = (const double *)params_buf.buf;
    const int64_t *kinds = (const int64_t *)kinds_buf.buf;
    const int64_t *qubits = (const int64_t *)qubits_buf.buf;
    const int64_t *offsets = (const int64_t *)offsets_buf.buf;
    const cplx *fixed = (const cplx *)fixed_buf.buf;
    double *gradient = (double *)grad_buf.buf;
    Py_ssize_t num_params = params_buf.len / (Py_ssize_t)sizeof(double);
    Py_ssize_t count = kinds_buf.len / word;
    Py_ssize_t dim = target_buf.ndim == 2 ? target_buf.shape[0] : 0;
    int n = 0;
    while (n < 62 && ((Py_ssize_t)1 << n) < dim)
        n++;

    int valid = count > 0 && dim >= 2 && ((Py_ssize_t)1 << n) == dim
        && target_buf.shape[1] == dim && target_buf.itemsize == 16
        && target_buf.format != NULL && strcmp(target_buf.format, "Zd") == 0
        && params_buf.len == num_params * (Py_ssize_t)sizeof(double)
        && grad_buf.len == params_buf.len && qubits_buf.len == 2 * count * word
        && offsets_buf.len == count * word
        && fixed_buf.len == count * 17 * (Py_ssize_t)sizeof(cplx);
    for (Py_ssize_t k = 0; valid && k < count; k++) {
        int64_t kind = kinds[k], q0 = qubits[2 * k], q1 = qubits[2 * k + 1];
        valid = kind >= OP_U3 && kind <= OP_FIXED && q0 >= 0 && q0 < n
            && (kind == OP_U3 || (q1 >= 0 && q1 < n && q1 != q0))
            && (kind == OP_FIXED || (offsets[k] >= 0 && offsets[k] <= num_params - 3));
    }
    if (!valid) {
        PyErr_SetString(PyExc_ValueError, "instantiation_objective: inconsistent input arrays");
        goto release;
    }

    /* One block: prefix[k] = P_{k-1} for k < count, then Bt (d x d each),
     * then per op its gate and three derivatives (16 entries each), then
     * per op dA along its three parameters. */
    Py_ssize_t area = dim * dim;
    if (area > (PY_SSIZE_T_MAX / (Py_ssize_t)sizeof(cplx) - 67 * count) / (count + 1)) {
        PyErr_NoMemory();
        goto release;
    }
    work = PyMem_Malloc(((size_t)(count + 1) * (size_t)area + 67 * (size_t)count) * sizeof(cplx));
    if (work == NULL) {
        PyErr_NoMemory();
        goto release;
    }
    cplx *bt = work + count * area;
    cplx *gates = bt + area;
    cplx *d_overlap = gates + 64 * count;
    /* gates + 64 k: g, then dg/dparam_p at + 16 (p + 1) (row-major, 2x2 or 4x4). */
    for (Py_ssize_t k = 0; k < count; k++) {
        cplx *g = gates + 64 * k;
        cplx(*d)[16] = (cplx(*)[16])(g + 16);
        if (kinds[k] == OP_U3)
            u3_gate(params + offsets[k], g, d);
        else if (kinds[k] == OP_CAN)
            can_gate(params + offsets[k], g, d);
        else
            memcpy(g, fixed + 17 * k, 16 * sizeof(cplx));
    }

    memset(work, 0, (size_t)area * sizeof(cplx));
    for (Py_ssize_t i = 0; i < dim; i++)
        work[i * dim + i].re = 1.0;
    for (Py_ssize_t k = 0; k + 1 < count; k++)
        apply_rows(work + k * area, work + (k + 1) * area, (int)kinds[k], qubits[2 * k],
                   qubits[2 * k + 1], n, gates + 64 * k);

    /* Bt = conj(T), read through the target's strides (any layout). */
    const char *base = (const char *)target_buf.buf;
    for (Py_ssize_t i = 0; i < dim; i++)
        for (Py_ssize_t m = 0; m < dim; m++) {
            cplx t;
            memcpy(&t, base + i * target_buf.strides[0] + m * target_buf.strides[1], sizeof t);
            bt[i * dim + m] = (cplx){t.re, -t.im};
        }

    memset(gradient, 0, (size_t)grad_buf.len);
    cplx coef[16], transposed[16];
    for (Py_ssize_t k = count - 1; k >= 0; k--) {
        int kind = (int)kinds[k];
        int64_t q0 = qubits[2 * k], q1 = qubits[2 * k + 1];
        const cplx *g = gates + 64 * k;
        int size = kind == OP_U3 ? 2 : 4;
        if (kind != OP_FIXED) {
            partial_trace(work + k * area, bt, kind, q0, q1, n, coef);
            for (int p = 0; p < 3; p++) {
                const cplx *dg = g + 16 * (p + 1);
                double re = 0.0, im = 0.0;
                for (int e = 0; e < size * size; e++) {
                    cplx t = cmul(dg[e], coef[e]);
                    re += t.re;
                    im += t.im;
                }
                d_overlap[3 * k + p] = (cplx){re, im};
            }
        }
        /* Bt <- G^T Bt, i.e. B_{k-1} = B_k G_k. */
        for (int a = 0; a < size; a++)
            for (int b = 0; b < size; b++)
                transposed[a * size + b] = g[b * size + a];
        apply_rows(bt, bt, kind, q0, q1, n, transposed);
    }

    cplx overlap = {0.0, 0.0};
    for (Py_ssize_t i = 0; i < dim; i++) {
        overlap.re += bt[i * dim + i].re;
        overlap.im += bt[i * dim + i].im;
    }
    double magnitude = hypot(overlap.re, overlap.im);
    /* At A = 0 |A| has no derivative; any unit phase gives a finite
     * subgradient. */
    cplx phase = {1.0, 0.0};
    if (magnitude > 0.0)
        phase = (cplx){overlap.re / magnitude, -overlap.im / magnitude};
    for (Py_ssize_t k = 0; k < count; k++) {
        if (kinds[k] == OP_FIXED)
            continue;
        for (int p = 0; p < 3; p++)
            gradient[offsets[k] + p] = -cmul(phase, d_overlap[3 * k + p]).re / (double)dim;
    }
    result = PyFloat_FromDouble(1.0 - magnitude / (double)dim);

release:
    PyMem_Free(work);
    PyBuffer_Release(&params_buf);
    PyBuffer_Release(&kinds_buf);
    PyBuffer_Release(&qubits_buf);
    PyBuffer_Release(&offsets_buf);
    PyBuffer_Release(&fixed_buf);
    PyBuffer_Release(&grad_buf);
    if (target_buf.obj != NULL)
        PyBuffer_Release(&target_buf);
    return result;
}

static PyMethodDef native_methods[] = {
    {"route", route, METH_VARARGS,
     "route(q0, q1, succ_ptr, succ, indegree, front, layout, edges,\n"
     "      incident_ptr, incident, distance, penalty, lookahead_size,\n"
     "      lookahead_weight, decay_increment, decay_reset_interval,\n"
     "      mirroring, max_steps)\n"
     "Run the whole SABRE step loop; returns (events, wires, absorptions,\n"
     "final_layout, inserted, absorbed)."},
    {"instantiation_objective", instantiation_objective, METH_VARARGS,
     "instantiation_objective(params, kinds, qubits, offsets, fixed, target,\n"
     "                        gradient)\n"
     "Approximate-synthesis infidelity 1 - |tr(T^dagger U)| / d of the ansatz\n"
     "plan at params; writes its gradient into gradient and returns the value."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef native_module = {
    PyModuleDef_HEAD_INIT,
    "_native",
    "Native repro.kernels: the SABRE routing loop and the instantiation\n"
    "objective (buffer-protocol only).",
    -1,
    native_methods,
};

PyMODINIT_FUNC
PyInit__native(void)
{
    return PyModule_Create(&native_module);
}
