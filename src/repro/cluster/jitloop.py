"""The optionally numba-jitted inner loop of the ``vectorized-jit`` kernel.

:func:`run_fused` executes a complete fused-steering run -- commit,
writeback, issue, fused dispatch, fetch and idle skip -- as **one** compiled
function over flat ``int64``/``bool`` numpy arrays, with no Python frames at
all between cycle 0 and the final cycle.  It is a transcription of
:meth:`repro.cluster.kernel.VectorizedKernel.run`'s array tier into
numba-compatible form; the two differ only in data-structure realisation:

* the per-cycle event buckets (dict + key heap) become a binary heap of
  ``(cycle, slot)`` pairs held in two parallel arrays.  Within one cycle the
  pop order is arbitrary, which is safe because writeback is commutative
  inside a cycle: completions OR location bits, decrement distinct waiters'
  pending counts and push ready slots into heaps whose *content* (not
  insertion order) determines every later pop; completing records and their
  waiters are necessarily disjoint (a waiter has not issued yet).
* the ready heaps become fixed-capacity array heaps (per-queue ready count
  is bounded by the queue capacity, since entries exist only between
  dispatch and issue).
* waiter lists become linked edge arrays, the copy map becomes a flat
  ``definition x cluster`` array, and the LRU caches / interconnect become
  tag matrices and ``N x N`` counter matrices (same geometry, same
  replacement arithmetic as the object models).

**Bit-identity.**  When numba is absent the very same function body runs as
plain Python (the guarded ``numba.njit`` wrap after the loop definitions is
skipped), and the jit parity suite executes it that way (``FORCE_PURE``)
against the interpreter and the fused Python tier -- so the semantics of the transcription are pinned in
every environment, and the numba leg of CI only has to establish that
compilation preserves them (integer/bool/float64 array arithmetic, on which
numba follows CPython semantics, including floor division).

For production runs without numba the kernel does **not** route through this
module: the fused Python tier of :class:`VectorizedKernel` *is* the
pure-Python twin of this loop, and it is strictly faster than executing the
array transcription under the interpreter.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

try:  # pragma: no cover - exercised only where numba is installed (CI matrix)
    from numba import njit as _njit
except ImportError:  # pragma: no cover - the default environment
    _njit = None

from repro.cluster.kernel import (
    _FORM_CONSTANT,
    _FORM_DEP,
    _FORM_LEAST,
    _FORM_MAP,
    _FORM_MODULO,
    _FORM_OCC,
    _FORM_TABLE,
)
from repro.uops.compiled import NO_ANNOTATION

#: True when numba is importable (the jitted loop is in use).
JIT_ENABLED = _njit is not None

#: Test knob: route ``vectorized-jit`` runs through the *un-jitted* loop
#: body even when numba is absent (or present).  The parity suite uses this
#: to pin the transcription's semantics in pure Python; production runs
#: never set it.
FORCE_PURE = False


def jit_active() -> bool:
    """Whether ``vectorized-jit`` should delegate to this module at all."""
    return JIT_ENABLED or FORCE_PURE


# --------------------------------------------------------------- config slots --
# One flat int64 config vector keeps the compiled signature short; globals
# used inside jitted functions are compile-time constants to numba.
CFG_COMMIT_W = 0
CFG_DISPATCH_W = 1
CFG_FETCH_W = 2
CFG_FETCH_LAT = 3
CFG_ROB = 4
CFG_LSQ = 5
CFG_READ_PORTS = 6
CFG_REDIRECT_PEN = 7
CFG_MODEL_MISPRED = 8
CFG_BUFFER_CAP = 9
CFG_IDLE_SKIP = 10
CFG_NUM_REGS = 11
CFG_LINK_LAT = 12
CFG_COPIES_PER_CYCLE = 13
CFG_L1_SETS = 14
CFG_L1_ASSOC = 15
CFG_L1_LAT = 16
CFG_L2_SETS = 17
CFG_L2_ASSOC = 18
CFG_L2_LAT = 19
CFG_MEM_LAT = 20
CFG_LINE_SIZE = 21
CFG_ALL_MASK = 22
CFG_LIMIT = 23
CFG_DO_WARM = 24
CFG_SIZE = 25

# ---------------------------------------------------------------- output slots --
OUT_STATUS = 0  # 0 = completed, 1 = cycle limit exceeded (deadlock guard)
OUT_CYCLE = 1
OUT_COMMITTED = 2
OUT_DISPATCHED = 3
OUT_COPIES = 4
OUT_STEER = 5
OUT_ROB = 6
OUT_LSQ = 7
OUT_MISPRED_STALLS = 8
OUT_BRANCHES = 9
OUT_MISPREDICTIONS = 10
OUT_MOD_NEXT = 11
OUT_VC_REMAPS = 12
OUT_SIZE = 13


# ------------------------------------------------------------------ array heaps --
def _heap_push(heap, size, value):
    """Push ``value`` onto the min-heap prefix ``heap[:size]``; new size."""
    heap[size] = value
    i = size
    while i > 0:
        parent = (i - 1) >> 1
        if heap[parent] <= heap[i]:
            break
        tmp = heap[parent]
        heap[parent] = heap[i]
        heap[i] = tmp
        i = parent
    return size + 1


def _heap_pop(heap, size):
    """Pop the minimum of ``heap[:size]``; returns ``(value, new size)``."""
    top = heap[0]
    size -= 1
    heap[0] = heap[size]
    i = 0
    while True:
        left = 2 * i + 1
        if left >= size:
            break
        child = left
        right = left + 1
        if right < size and heap[right] < heap[left]:
            child = right
        if heap[i] <= heap[child]:
            break
        tmp = heap[i]
        heap[i] = heap[child]
        heap[child] = tmp
        i = child
    return top, size


def _ev_push(ev_cycle, ev_slot, size, when, slot):
    """Push a ``(when, slot)`` event; ordered by cycle only (see module doc)."""
    ev_cycle[size] = when
    ev_slot[size] = slot
    i = size
    while i > 0:
        parent = (i - 1) >> 1
        if ev_cycle[parent] <= ev_cycle[i]:
            break
        tc = ev_cycle[parent]
        ev_cycle[parent] = ev_cycle[i]
        ev_cycle[i] = tc
        ts = ev_slot[parent]
        ev_slot[parent] = ev_slot[i]
        ev_slot[i] = ts
        i = parent
    return size + 1


def _ev_pop(ev_cycle, ev_slot, size):
    """Pop the earliest event; returns ``(slot, new size)``."""
    slot = ev_slot[0]
    size -= 1
    ev_cycle[0] = ev_cycle[size]
    ev_slot[0] = ev_slot[size]
    i = 0
    while True:
        left = 2 * i + 1
        if left >= size:
            break
        child = left
        right = left + 1
        if right < size and ev_cycle[right] < ev_cycle[left]:
            child = right
        if ev_cycle[i] <= ev_cycle[child]:
            break
        tc = ev_cycle[i]
        ev_cycle[i] = ev_cycle[child]
        ev_cycle[child] = tc
        ts = ev_slot[i]
        ev_slot[i] = ev_slot[child]
        ev_slot[child] = ts
        i = child
    return slot, size


# ------------------------------------------------------------------ cache model --
def _cache_access(tags, num_sets, assoc, line):
    """LRU set-associative access; allocate on miss; True on hit.

    ``tags[set]`` holds tags MRU-first with ``-1`` padding past the filled
    prefix -- the array form of ``SetAssociativeCache``'s per-set lists, with
    identical indexing (``set = line % num_sets``, ``tag = line // num_sets``)
    and identical replacement (insert at front, drop the last way).
    """
    s = line % num_sets
    tag = line // num_sets
    row = tags[s]
    for way in range(assoc):
        t = row[way]
        if t == tag:
            if way != 0:
                for k in range(way, 0, -1):
                    row[k] = row[k - 1]
                row[0] = tag
            return True
        if t == -1:
            for k in range(way, 0, -1):
                row[k] = row[k - 1]
            row[0] = tag
            return False
    for k in range(assoc - 1, 0, -1):
        row[k] = row[k - 1]
    row[0] = tag
    return False


def _mem_load(l1_tags, l2_tags, stats, cfg, address):
    """``MemoryHierarchy.load_latency`` over the tag matrices."""
    line = address // cfg[CFG_LINE_SIZE]
    stats[0] += 1
    if _cache_access(l1_tags, cfg[CFG_L1_SETS], cfg[CFG_L1_ASSOC], line):
        stats[1] += 1
        return cfg[CFG_L1_LAT]
    stats[2] += 1
    if _cache_access(l2_tags, cfg[CFG_L2_SETS], cfg[CFG_L2_ASSOC], line):
        stats[3] += 1
        return cfg[CFG_L2_LAT]
    return cfg[CFG_MEM_LAT]


def _mem_store(l1_tags, l2_tags, stats, cfg, address):
    """``MemoryHierarchy.store_access``: write-allocate in both levels."""
    line = address // cfg[CFG_LINE_SIZE]
    stats[0] += 1
    if _cache_access(l1_tags, cfg[CFG_L1_SETS], cfg[CFG_L1_ASSOC], line):
        stats[1] += 1
    stats[2] += 1
    if _cache_access(l2_tags, cfg[CFG_L2_SETS], cfg[CFG_L2_ASSOC], line):
        stats[3] += 1


def _schedule_transfer(ic_next_free, ic_started, ic_transfers, src, dst,
                       ready_cycle, cfg):
    """``Interconnect.schedule_transfer`` over ``N x N`` counter matrices."""
    next_free = ic_next_free[src, dst]
    start = ready_cycle if ready_cycle > next_free else next_free
    if start > next_free:
        ic_started[src, dst] = 0
    started = ic_started[src, dst] + 1
    if started >= cfg[CFG_COPIES_PER_CYCLE]:
        ic_next_free[src, dst] = start + 1
        ic_started[src, dst] = 0
    else:
        ic_next_free[src, dst] = start
        ic_started[src, dst] = started
    ic_transfers[src, dst] += 1
    return start + cfg[CFG_LINK_LAT]


# -------------------------------------------------------------------- the loop --
def _fused_loop(
    u_queue, u_is_memory, u_is_load, u_is_branch, u_mispred,
    u_di, u_df, latency, address,
    src_off, src_regs, dep_off, dep_defs, dest_off, def_uop, def_reg,
    form, const_cluster, table, idle_fraction,
    vc_col, leader_col, vc_map, num_vc, fallback_balance,
    occ, inflight, free_int, free_fp,
    alloc_stalls, cluster_dispatch, cluster_copies,
    qcap, issue_widths, cfg,
    l1_tags, l2_tags, cache_stats,
    warm_addr, warm_isload,
    ic_next_free, ic_started, ic_transfers,
    out,
):
    """One complete fused-steering run (see the module docstring).

    Stage order, stall accounting and steering-form arithmetic follow
    ``VectorizedKernel.run`` statement for statement; only the data
    structures differ (array heaps, edge lists, tag matrices).
    """
    n = u_queue.shape[0]
    num_clusters = inflight.shape[0]

    # Cache warm-up: replay the memory-access plan through the tag arrays
    # (tags persist, statistics stay zero -- the array form of replay +
    # ``reset_stats``).
    if cfg[CFG_DO_WARM] != 0:
        for i in range(warm_addr.shape[0]):
            line = warm_addr[i] // cfg[CFG_LINE_SIZE]
            hit = _cache_access(l1_tags, cfg[CFG_L1_SETS], cfg[CFG_L1_ASSOC], line)
            if not hit or not warm_isload[i]:
                _cache_access(l2_tags, cfg[CFG_L2_SETS], cfg[CFG_L2_ASSOC], line)

    # Register-definition state (one slot per in-trace definition).
    num_defs = def_uop.shape[0]
    def_mask = np.zeros(num_defs, np.int64)
    def_home = np.zeros(num_defs, np.int64)
    cur_def = np.full(cfg[CFG_NUM_REGS], -1, np.int64)
    copy_map = np.full(num_defs * num_clusters, -1, np.int64)

    # Record slots (µops and copies share one space; slot order equals
    # creation order, so min-heaps of bare slots pop oldest-first).
    cap = n + 16
    rec_uop = np.full(cap, -1, np.int64)
    rec_cluster = np.zeros(cap, np.int64)
    rec_qslot = np.zeros(cap, np.int64)
    rec_pending = np.zeros(cap, np.int64)
    rec_completed = np.zeros(cap, np.bool_)
    rec_isload = np.zeros(cap, np.bool_)
    rec_copydef = np.zeros(cap, np.int64)
    rec_copytarget = np.zeros(cap, np.int64)
    rec_whead = np.full(cap, -1, np.int64)
    next_slot = 0
    uop_slot = np.zeros(n, np.int64)
    uop_completed = np.zeros(n, np.bool_)
    uop_cluster = np.zeros(n, np.int64)

    # Waiter edges: ``rec_whead[s]`` heads a linked list of records waiting
    # on slot ``s`` (prepend order; waiter processing is order-independent).
    ecap = cap
    edge_to = np.zeros(ecap, np.int64)
    edge_next = np.full(ecap, -1, np.int64)
    edge_n = 0

    # Ready heaps per (cluster, kind); loads separate (L1 port sharing).
    # Per-queue ready count is bounded by queue capacity, so the heaps are
    # fixed-size rows.
    nq = num_clusters * 3
    rcap = qcap[0]
    if qcap[1] > rcap:
        rcap = qcap[1]
    if qcap[2] > rcap:
        rcap = qcap[2]
    rcap += 1
    ready = np.zeros((nq, rcap), np.int64)
    ready_n = np.zeros(nq, np.int64)
    ready_loads = np.zeros((nq, rcap), np.int64)
    ready_loads_n = np.zeros(nq, np.int64)
    total_ready = 0

    # Writeback events as a (cycle, slot) heap (see module docstring).
    ev_cap = 1024
    ev_cycle = np.zeros(ev_cap, np.int64)
    ev_slot = np.zeros(ev_cap, np.int64)
    ev_n = 0

    # Per-dispatch scratch: wait-on / new-copy rows are bounded by the
    # longest dependence row of the trace.
    maxdep = 0
    for i in range(n):
        row = dep_off[i + 1] - dep_off[i]
        if row > maxdep:
            maxdep = row
    copy_d = np.zeros(maxdep + 1, np.int64)
    copy_src = np.zeros(maxdep + 1, np.int64)
    wait_buf = np.zeros(2 * maxdep + 2, np.int64)
    counts_buf = np.zeros(num_clusters, np.int64)

    # In-order window counters and front-end state.
    commit_idx = 0
    dispatch_pos = 0
    fetch_pos = 0
    ready_at = np.zeros(n, np.int64)
    trace_exhausted = False
    lsq_count = 0
    uops_in_flight = 0
    redirect_slot = -1
    blocked_until = 0
    cycle = 0
    status = 0
    mod_next = 0
    vc_remaps = 0

    # Configuration scalars.
    commit_width = cfg[CFG_COMMIT_W]
    dispatch_width = cfg[CFG_DISPATCH_W]
    fetch_width = cfg[CFG_FETCH_W]
    fetch_latency = cfg[CFG_FETCH_LAT]
    rob_size = cfg[CFG_ROB]
    lsq_size = cfg[CFG_LSQ]
    read_ports = cfg[CFG_READ_PORTS]
    redirect_penalty = cfg[CFG_REDIRECT_PEN]
    model_mispredict = cfg[CFG_MODEL_MISPRED]
    buffer_cap = cfg[CFG_BUFFER_CAP]
    idle_skip = cfg[CFG_IDLE_SKIP]
    all_mask = cfg[CFG_ALL_MASK]
    limit = cfg[CFG_LIMIT]
    cap_copy = qcap[2]

    # Scalar metrics.
    m_committed = 0
    m_dispatched = 0
    m_copies = 0
    m_steer = 0
    m_rob = 0
    m_lsq = 0
    m_mispredict_stalls = 0
    m_branches = 0
    m_mispredictions = 0

    while True:
        if (
            trace_exhausted
            and dispatch_pos == fetch_pos
            and commit_idx == dispatch_pos
            and uops_in_flight == 0
        ):
            break

        # -------------------------------------------------------- commit --
        if commit_idx < dispatch_pos and uop_completed[commit_idx]:
            committed = 0
            while True:
                cluster = uop_cluster[commit_idx]
                inflight[cluster] -= 1
                uops_in_flight -= 1
                di = u_di[commit_idx]
                df = u_df[commit_idx]
                if di > 0 or df > 0:
                    free_int[cluster] += di
                    free_fp[cluster] += df
                if u_is_memory[commit_idx]:
                    lsq_count -= 1
                commit_idx += 1
                committed += 1
                if (
                    committed >= commit_width
                    or commit_idx >= dispatch_pos
                    or not uop_completed[commit_idx]
                ):
                    break
            m_committed += committed

        # ----------------------------------------------------- writeback --
        while ev_n > 0 and ev_cycle[0] == cycle:
            slot, ev_n = _ev_pop(ev_cycle, ev_slot, ev_n)
            rec_completed[slot] = True
            uop = rec_uop[slot]
            if uop < 0:
                # Copy arrived: value available in the target cluster,
                # producing cluster no longer loaded.
                def_mask[rec_copydef[slot]] |= 1 << rec_copytarget[slot]
                inflight[rec_cluster[slot]] -= 1
                uops_in_flight -= 1
            else:
                uop_completed[uop] = True
                bit = 1 << rec_cluster[slot]
                for d in range(dest_off[uop], dest_off[uop + 1]):
                    def_mask[d] |= bit
                if slot == redirect_slot:
                    redirect_slot = -1
                    blocked_until = cycle + redirect_penalty
            edge = rec_whead[slot]
            while edge >= 0:
                waiter = edge_to[edge]
                pending = rec_pending[waiter] - 1
                rec_pending[waiter] = pending
                if pending == 0:
                    qslot = rec_qslot[waiter]
                    if rec_isload[waiter]:
                        ready_loads_n[qslot] = _heap_push(
                            ready_loads[qslot], ready_loads_n[qslot], waiter
                        )
                    else:
                        ready_n[qslot] = _heap_push(
                            ready[qslot], ready_n[qslot], waiter
                        )
                    total_ready += 1
                edge = edge_next[edge]
            rec_whead[slot] = -1

        # --------------------------------------------------------- issue --
        if total_ready > 0:
            loads_issued = 0
            for qslot in range(nq):
                if ready_n[qslot] == 0 and ready_loads_n[qslot] == 0:
                    continue
                width = issue_widths[qslot % 3]
                issued = 0
                while issued < width:
                    # Merge the two heaps by age; once the shared L1 read
                    # ports are saturated, ready loads stay on theirs.
                    ln = ready_loads_n[qslot]
                    mn = ready_n[qslot]
                    if (
                        ln > 0
                        and loads_issued < read_ports
                        and (mn == 0 or ready_loads[qslot, 0] < ready[qslot, 0])
                    ):
                        slot, ln = _heap_pop(ready_loads[qslot], ln)
                        ready_loads_n[qslot] = ln
                        was_load = True
                    elif mn > 0:
                        slot, mn = _heap_pop(ready[qslot], mn)
                        ready_n[qslot] = mn
                        was_load = False
                    else:
                        break
                    total_ready -= 1
                    occ[qslot] -= 1
                    uop = rec_uop[slot]
                    if uop < 0:
                        # One execute cycle in the producing cluster, then
                        # the link.
                        when = _schedule_transfer(
                            ic_next_free, ic_started, ic_transfers,
                            rec_cluster[slot], rec_copytarget[slot],
                            cycle + 1, cfg,
                        )
                    elif was_load:
                        lat = latency[uop] + _mem_load(
                            l1_tags, l2_tags, cache_stats, cfg, address[uop]
                        )
                        loads_issued += 1
                        when = cycle + (lat if lat > 1 else 1)
                    else:
                        lat = latency[uop]
                        if u_is_memory[uop]:
                            _mem_store(
                                l1_tags, l2_tags, cache_stats, cfg, address[uop]
                            )
                        when = cycle + (lat if lat > 1 else 1)
                    if ev_n >= ev_cap:
                        new_cap = ev_cap * 2
                        tc = np.zeros(new_cap, np.int64)
                        tc[:ev_cap] = ev_cycle
                        ev_cycle = tc
                        ts = np.zeros(new_cap, np.int64)
                        ts[:ev_cap] = ev_slot
                        ev_slot = ts
                        ev_cap = new_cap
                    ev_n = _ev_push(ev_cycle, ev_slot, ev_n, when, slot)
                    issued += 1

        # ------------------------------------------------------ dispatch --
        if dispatch_pos < fetch_pos:
            dispatched = 0
            blocked = redirect_slot >= 0 or cycle < blocked_until
            while dispatched < dispatch_width and dispatch_pos < fetch_pos:
                index = dispatch_pos
                if ready_at[index] > cycle:
                    break
                if blocked:
                    m_mispredict_stalls += 1
                    break
                kind = u_queue[index]
                # ---- steering decision (fused forms only; the callback
                # path never reaches this kernel) -------------------------
                if form == _FORM_OCC:
                    for c in range(num_clusters):
                        counts_buf[c] = 0
                    for si in range(src_off[index], src_off[index + 1]):
                        d = cur_def[src_regs[si]]
                        if d < 0:
                            mask = all_mask
                        else:
                            mask = def_mask[d] | (1 << def_home[d])
                        for c in range(num_clusters):
                            if mask >> c & 1:
                                counts_buf[c] += 1
                    best_count = -1
                    preferred = 0
                    preferred_occ = 0
                    for c in range(num_clusters):
                        count = counts_buf[c]
                        if count > best_count:
                            best_count = count
                            preferred = c
                            preferred_occ = inflight[c]
                        elif count == best_count:
                            occupancy = inflight[c]
                            if occupancy < preferred_occ:
                                preferred = c
                                preferred_occ = occupancy
                    if qcap[kind] - occ[preferred * 3 + kind] > 0:
                        cluster = preferred
                    else:
                        threshold = preferred_occ * idle_fraction
                        diverted = -1
                        diverted_occ = 0
                        for c in range(num_clusters):
                            if (
                                c == preferred
                                or qcap[kind] - occ[c * 3 + kind] <= 0
                            ):
                                continue
                            occupancy = inflight[c]
                            if occupancy <= threshold and (
                                diverted < 0 or occupancy < diverted_occ
                            ):
                                diverted = c
                                diverted_occ = occupancy
                        if diverted < 0:
                            m_steer += 1
                            break
                        cluster = diverted
                elif form == _FORM_MAP:
                    vc = vc_col[index]
                    if vc < 0:
                        if fallback_balance != 0:
                            cluster = 0
                            best_occ = inflight[0]
                            for c in range(1, num_clusters):
                                occupancy = inflight[c]
                                if occupancy < best_occ:
                                    cluster = c
                                    best_occ = occupancy
                        else:
                            cluster = 0
                    else:
                        vc = vc % num_vc
                        if leader_col[index]:
                            cluster = 0
                            best_occ = inflight[0]
                            for c in range(1, num_clusters):
                                occupancy = inflight[c]
                                if occupancy < best_occ:
                                    cluster = c
                                    best_occ = occupancy
                            if vc_map[vc] != cluster:
                                vc_remaps += 1
                            vc_map[vc] = cluster
                        else:
                            cluster = vc_map[vc]
                elif form == _FORM_CONSTANT:
                    cluster = const_cluster
                elif form == _FORM_TABLE:
                    cluster = table[index]
                elif form == _FORM_MODULO:
                    cluster = mod_next
                    mod_next = cluster + 1
                    if mod_next >= num_clusters:
                        mod_next = 0
                elif form == _FORM_LEAST:
                    cluster = 0
                    best_occ = inflight[0]
                    for c in range(1, num_clusters):
                        occupancy = inflight[c]
                        if occupancy < best_occ:
                            cluster = c
                            best_occ = occupancy
                else:  # _FORM_DEP
                    for c in range(num_clusters):
                        counts_buf[c] = 0
                    for si in range(src_off[index], src_off[index + 1]):
                        d = cur_def[src_regs[si]]
                        if d < 0:
                            mask = all_mask
                        else:
                            mask = def_mask[d] | (1 << def_home[d])
                        for c in range(num_clusters):
                            if mask >> c & 1:
                                counts_buf[c] += 1
                    best_count = 0
                    for c in range(num_clusters):
                        if counts_buf[c] > best_count:
                            best_count = counts_buf[c]
                    if best_count == 0:
                        cluster = 0
                    else:
                        cluster = 0
                        for c in range(num_clusters):
                            if counts_buf[c] == best_count:
                                cluster = c
                                break
                # ---- resource checks ------------------------------------
                if dispatch_pos - commit_idx >= rob_size:
                    m_rob += 1
                    break
                if u_is_memory[index] and lsq_count >= lsq_size:
                    m_lsq += 1
                    break
                qslot = cluster * 3 + kind
                if qcap[kind] - occ[qslot] <= 0:
                    alloc_stalls[cluster] += 1
                    break
                di = u_di[index]
                df = u_df[index]
                if (di > 0 or df > 0) and (
                    free_int[cluster] < di or free_fp[cluster] < df
                ):
                    alloc_stalls[cluster] += 1
                    break
                # ---- operand planning over definition ids ---------------
                n_wait = 0
                n_new = 0
                for ji in range(dep_off[index], dep_off[index + 1]):
                    d = dep_defs[ji]
                    if def_mask[d] >> cluster & 1:
                        continue
                    pslot = uop_slot[def_uop[d]]
                    if not rec_completed[pslot] and rec_cluster[pslot] == cluster:
                        wait_buf[n_wait] = pslot
                        n_wait += 1
                        continue
                    cslot = copy_map[d * num_clusters + cluster]
                    if cslot >= 0 and not rec_completed[cslot]:
                        wait_buf[n_wait] = cslot
                        n_wait += 1
                        continue
                    source = def_home[d]
                    if source == cluster:
                        # The value appears here without a copy; wait on
                        # the producer if it is still in flight.
                        if not rec_completed[pslot]:
                            wait_buf[n_wait] = pslot
                            n_wait += 1
                        continue
                    copy_d[n_new] = d
                    copy_src[n_new] = source
                    n_new += 1
                if n_new > 0:
                    # Every needed copy queue must have room, counting
                    # multiple copies from the same source cluster (demand
                    # checked in first-occurrence source order).
                    if n_new == 1:
                        source = copy_src[0]
                        if cap_copy - occ[source * 3 + 2] < 1:
                            alloc_stalls[source] += 1
                            break
                    else:
                        blocked_source = -1
                        for i in range(n_new):
                            source = copy_src[i]
                            seen = False
                            for j in range(i):
                                if copy_src[j] == source:
                                    seen = True
                                    break
                            if seen:
                                continue
                            need = 0
                            for j in range(n_new):
                                if copy_src[j] == source:
                                    need += 1
                            if cap_copy - occ[source * 3 + 2] < need:
                                blocked_source = source
                                break
                        if blocked_source >= 0:
                            alloc_stalls[blocked_source] += 1
                            break
                # ---- every resource available: perform the dispatch -----
                need_slots = 1 + n_new
                if next_slot + need_slots > cap:
                    grow = cap if cap > need_slots else need_slots
                    new_cap = cap + grow
                    t0 = np.full(new_cap, -1, np.int64)
                    t0[:cap] = rec_uop
                    rec_uop = t0
                    t1 = np.zeros(new_cap, np.int64)
                    t1[:cap] = rec_cluster
                    rec_cluster = t1
                    t2 = np.zeros(new_cap, np.int64)
                    t2[:cap] = rec_qslot
                    rec_qslot = t2
                    t3 = np.zeros(new_cap, np.int64)
                    t3[:cap] = rec_pending
                    rec_pending = t3
                    t4 = np.zeros(new_cap, np.bool_)
                    t4[:cap] = rec_completed
                    rec_completed = t4
                    t5 = np.zeros(new_cap, np.bool_)
                    t5[:cap] = rec_isload
                    rec_isload = t5
                    t6 = np.zeros(new_cap, np.int64)
                    t6[:cap] = rec_copydef
                    rec_copydef = t6
                    t7 = np.zeros(new_cap, np.int64)
                    t7[:cap] = rec_copytarget
                    rec_copytarget = t7
                    t8 = np.full(new_cap, -1, np.int64)
                    t8[:cap] = rec_whead
                    rec_whead = t8
                    cap = new_cap
                # Worst-case edges this dispatch: one per wait entry plus
                # one per pending new copy.
                while edge_n + 3 * maxdep + 3 > ecap:
                    new_cap = ecap * 2
                    t9 = np.zeros(new_cap, np.int64)
                    t9[:ecap] = edge_to
                    edge_to = t9
                    t10 = np.full(new_cap, -1, np.int64)
                    t10[:ecap] = edge_next
                    edge_next = t10
                    ecap = new_cap
                slot = next_slot
                next_slot = slot + 1
                rec_uop[slot] = index
                rec_cluster[slot] = cluster
                rec_qslot[slot] = qslot
                rec_isload[slot] = u_is_load[index]
                uop_slot[index] = slot
                uop_cluster[index] = cluster
                for i in range(n_new):
                    d = copy_d[i]
                    source = copy_src[i]
                    cslot = next_slot
                    next_slot = cslot + 1
                    rec_cluster[cslot] = source
                    rec_qslot[cslot] = source * 3 + 2
                    rec_copydef[cslot] = d
                    rec_copytarget[cslot] = cluster
                    pslot = uop_slot[def_uop[d]]
                    if rec_completed[pslot]:
                        rec_pending[cslot] = 0
                        q2 = source * 3 + 2
                        ready_n[q2] = _heap_push(ready[q2], ready_n[q2], cslot)
                        total_ready += 1
                    else:
                        rec_pending[cslot] = 1
                        edge_to[edge_n] = cslot
                        edge_next[edge_n] = rec_whead[pslot]
                        rec_whead[pslot] = edge_n
                        edge_n += 1
                    occ[source * 3 + 2] += 1
                    inflight[source] += 1
                    uops_in_flight += 1
                    m_copies += 1
                    cluster_copies[source] += 1
                    copy_map[d * num_clusters + cluster] = cslot
                    wait_buf[n_wait] = cslot
                    n_wait += 1
                if n_wait == 0:
                    if u_is_load[index]:
                        ready_loads_n[qslot] = _heap_push(
                            ready_loads[qslot], ready_loads_n[qslot], slot
                        )
                    else:
                        ready_n[qslot] = _heap_push(
                            ready[qslot], ready_n[qslot], slot
                        )
                    total_ready += 1
                else:
                    rec_pending[slot] = n_wait
                    for i in range(n_wait):
                        dep_slot = wait_buf[i]
                        edge_to[edge_n] = slot
                        edge_next[edge_n] = rec_whead[dep_slot]
                        rec_whead[dep_slot] = edge_n
                        edge_n += 1
                occ[qslot] += 1
                if di > 0 or df > 0:
                    free_int[cluster] -= di
                    free_fp[cluster] -= df
                if u_is_memory[index]:
                    lsq_count += 1
                inflight[cluster] += 1
                uops_in_flight += 1
                m_dispatched += 1
                cluster_dispatch[cluster] += 1
                for d in range(dest_off[index], dest_off[index + 1]):
                    cur_def[def_reg[d]] = d
                    def_home[d] = cluster
                if u_is_branch[index]:
                    m_branches += 1
                    if u_mispred[index] and model_mispredict != 0:
                        m_mispredictions += 1
                        redirect_slot = slot
                        blocked = True
                dispatch_pos += 1
                dispatched += 1

        # --------------------------------------------------------- fetch --
        if not trace_exhausted:
            ready_cycle = cycle + fetch_latency
            fetched = 0
            while fetched < fetch_width and fetch_pos - dispatch_pos < buffer_cap:
                if fetch_pos >= n:
                    trace_exhausted = True
                    break
                ready_at[fetch_pos] = ready_cycle
                fetch_pos += 1
                fetched += 1

        cycle += 1
        if cycle > limit:
            status = 1
            break

        # ----------------------------------------------------- idle skip --
        if idle_skip == 0:
            continue
        if total_ready > 0:
            continue
        if commit_idx < dispatch_pos and uop_completed[commit_idx]:
            continue
        if not trace_exhausted and fetch_pos - dispatch_pos < buffer_cap:
            continue
        buffer = dispatch_pos < fetch_pos
        if (
            trace_exhausted
            and not buffer
            and commit_idx == dispatch_pos
            and uops_in_flight == 0
        ):
            continue  # finished; the loop head breaks
        redirect = redirect_slot >= 0
        blocked = redirect or cycle < blocked_until
        head_ready = ready_at[dispatch_pos] if buffer else 0
        if buffer and not blocked and head_ready <= cycle:
            continue  # the dispatch stage acts this cycle
        goal = limit + 1
        if ev_n > 0:
            next_event = ev_cycle[0]
            if next_event < goal:
                goal = next_event
        if buffer and not blocked:
            if head_ready < goal:
                goal = head_ready
        elif blocked and not redirect:
            if blocked_until < goal:
                goal = blocked_until
        if goal <= cycle:
            continue
        if buffer and blocked:
            stalled = goal - (cycle if cycle > head_ready else head_ready)
            if stalled > 0:
                m_mispredict_stalls += stalled
        cycle = goal

    out[OUT_STATUS] = status
    out[OUT_CYCLE] = cycle
    out[OUT_COMMITTED] = m_committed
    out[OUT_DISPATCHED] = m_dispatched
    out[OUT_COPIES] = m_copies
    out[OUT_STEER] = m_steer
    out[OUT_ROB] = m_rob
    out[OUT_LSQ] = m_lsq
    out[OUT_MISPRED_STALLS] = m_mispredict_stalls
    out[OUT_BRANCHES] = m_branches
    out[OUT_MISPREDICTIONS] = m_mispredictions
    out[OUT_MOD_NEXT] = mod_next
    out[OUT_VC_REMAPS] = vc_remaps


#: The un-jitted twin of every compiled function (same objects when numba is
#: absent).  ``FORCE_PURE`` runs route through these.
_fused_loop_py = _fused_loop

if _njit is not None:  # pragma: no cover - only where numba is installed
    _heap_push = _njit(cache=False)(_heap_push)
    _heap_pop = _njit(cache=False)(_heap_pop)
    _ev_push = _njit(cache=False)(_ev_push)
    _ev_pop = _njit(cache=False)(_ev_pop)
    _cache_access = _njit(cache=False)(_cache_access)
    _mem_load = _njit(cache=False)(_mem_load)
    _mem_store = _njit(cache=False)(_mem_store)
    _schedule_transfer = _njit(cache=False)(_schedule_transfer)
    _fused_loop = _njit(cache=False)(_fused_loop)


# ------------------------------------------------------------------ marshalling --
def run_fused(vk, spec, form: int, limit: int) -> Tuple[int, int, List[int], int]:
    """Run the bound trace of ``vk`` through the compiled inner loop.

    Marshals the processor's freshly-reset state into flat arrays, executes
    :func:`_fused_loop` (jitted when numba is available, the identical
    Python body under ``FORCE_PURE``), and writes the results back into the
    borrowed model state and the metrics object -- exactly the state the
    fused Python tier leaves behind.

    Returns ``(status, mod_next, vc_map, vc_remaps)``; ``status`` is nonzero
    when the cycle limit was exceeded (the caller raises after syncing
    policy state, mirroring the Python tier's ``finally`` semantics).
    """
    proc = vk._processor
    config = proc.config
    trace = vk._compiled
    num_clusters = vk.num_clusters
    metrics = proc.metrics
    ma = trace.dispatch_meta_arrays(proc.register_space)

    # Per-form columns (annotation columns are re-read every run, like the
    # fused Python tier).
    empty_i = np.empty(0, np.int64)
    empty_b = np.empty(0, np.bool_)
    const_cluster = 0
    table = empty_i
    idle_fraction = 0.0
    vc_col = empty_i
    leader_col = empty_b
    vc_map = empty_i
    num_vc = 1
    fallback_balance = 1
    if form == _FORM_CONSTANT:
        const_cluster = spec.target_cluster
    elif form == _FORM_TABLE:
        col = trace.static_cluster
        table = (
            np.where(col == NO_ANNOTATION, spec.default_cluster, col).astype(np.int64)
            % num_clusters
        )
    elif form == _FORM_DEP or form == _FORM_OCC:
        idle_fraction = spec.idle_fraction
    elif form == _FORM_MAP:
        vc_col = trace.vc_id.astype(np.int64)
        leader_col = trace.chain_leader
        vc_map = np.array(spec.mapping, np.int64)
        num_vc = spec.num_virtual_clusters
        fallback_balance = 1 if spec.fallback_balance else 0

    # Borrowed live accounting, marshalled to arrays (and written back below
    # so the models remain the single source of truth post-run).
    occ_list = proc.issue_queues.occupancy_list()
    inflight_list = proc._cluster_inflight
    free_int_list = proc.regfiles.free_int_list()
    free_fp_list = proc.regfiles.free_fp_list()
    occ = np.array(occ_list, np.int64)
    inflight = np.array(inflight_list, np.int64)
    free_int = np.array(free_int_list, np.int64)
    free_fp = np.array(free_fp_list, np.int64)
    alloc_stalls = np.array(metrics.allocation_stalls, np.int64)
    cluster_dispatch = np.array(metrics.cluster_dispatch, np.int64)
    cluster_copies = np.array(metrics.cluster_copies, np.int64)
    qcap = np.array(vk._qcap, np.int64)
    issue_widths = np.array(vk._issue_widths, np.int64)

    # Array-form memory hierarchy and interconnect (fresh per run, exactly
    # like the object models `_reset_state` just rebuilt).
    mem = proc.memory
    l1_tags = np.full((mem.l1.num_sets, mem.l1.assoc), -1, np.int64)
    l2_tags = np.full((mem.l2.num_sets, mem.l2.assoc), -1, np.int64)
    cache_stats = np.zeros(4, np.int64)
    warm_addr, warm_isload = trace.memory_access_plan_arrays()
    ic_next_free = np.zeros((num_clusters, num_clusters), np.int64)
    ic_started = np.zeros((num_clusters, num_clusters), np.int64)
    ic_transfers = np.zeros((num_clusters, num_clusters), np.int64)

    cfg = np.zeros(CFG_SIZE, np.int64)
    cfg[CFG_COMMIT_W] = config.commit_width
    cfg[CFG_DISPATCH_W] = config.dispatch_width
    cfg[CFG_FETCH_W] = config.fetch_width
    cfg[CFG_FETCH_LAT] = config.fetch_to_dispatch_latency
    cfg[CFG_ROB] = config.rob_size
    cfg[CFG_LSQ] = config.lsq_size
    cfg[CFG_READ_PORTS] = config.l1_read_ports
    cfg[CFG_REDIRECT_PEN] = config.mispredict_redirect_penalty
    cfg[CFG_MODEL_MISPRED] = 1 if config.model_branch_mispredictions else 0
    cfg[CFG_BUFFER_CAP] = proc._dispatch_buffer_cap
    cfg[CFG_IDLE_SKIP] = 1 if proc.idle_skip else 0
    cfg[CFG_NUM_REGS] = vk._num_regs
    cfg[CFG_LINK_LAT] = proc.interconnect.link_latency
    cfg[CFG_COPIES_PER_CYCLE] = proc.interconnect.copies_per_cycle
    cfg[CFG_L1_SETS] = mem.l1.num_sets
    cfg[CFG_L1_ASSOC] = mem.l1.assoc
    cfg[CFG_L1_LAT] = mem.l1.hit_latency
    cfg[CFG_L2_SETS] = mem.l2.num_sets
    cfg[CFG_L2_ASSOC] = mem.l2.assoc
    cfg[CFG_L2_LAT] = mem.l2.hit_latency
    cfg[CFG_MEM_LAT] = mem.memory_latency
    cfg[CFG_LINE_SIZE] = config.line_size
    cfg[CFG_ALL_MASK] = vk._all_mask
    cfg[CFG_LIMIT] = limit
    cfg[CFG_DO_WARM] = 1 if config.warm_caches else 0

    out = np.zeros(OUT_SIZE, np.int64)

    loop = _fused_loop if (JIT_ENABLED and not FORCE_PURE) else _fused_loop_py
    loop(
        ma.queue, ma.is_memory, ma.is_load, ma.is_branch, ma.mispredicted,
        ma.dest_int, ma.dest_fp, ma.latency, trace.address,
        ma.src_offsets, ma.src_regs, ma.dep_offsets, ma.dep_defs,
        ma.dest_offsets, ma.def_uop, ma.def_reg,
        form, const_cluster, table, idle_fraction,
        vc_col, leader_col, vc_map, num_vc, fallback_balance,
        occ, inflight, free_int, free_fp,
        alloc_stalls, cluster_dispatch, cluster_copies,
        qcap, issue_widths, cfg,
        l1_tags, l2_tags, cache_stats,
        warm_addr, warm_isload,
        ic_next_free, ic_started, ic_transfers,
        out,
    )

    # ---- write the final state back into the owning models ----------------
    for i, value in enumerate(occ):
        occ_list[i] = int(value)
    for i, value in enumerate(inflight):
        inflight_list[i] = int(value)
    for i, value in enumerate(free_int):
        free_int_list[i] = int(value)
    for i, value in enumerate(free_fp):
        free_fp_list[i] = int(value)
    for i, value in enumerate(alloc_stalls):
        metrics.allocation_stalls[i] = int(value)
    for i, value in enumerate(cluster_dispatch):
        metrics.cluster_dispatch[i] = int(value)
    for i, value in enumerate(cluster_copies):
        metrics.cluster_copies[i] = int(value)
    mem.l1.stats.accesses = int(cache_stats[0])
    mem.l1.stats.hits = int(cache_stats[1])
    mem.l2.stats.accesses = int(cache_stats[2])
    mem.l2.stats.hits = int(cache_stats[3])
    transfers = proc.interconnect.transfers
    for src in range(num_clusters):
        for dst in range(num_clusters):
            count = int(ic_transfers[src, dst])
            if count:
                transfers[(src, dst)] = count

    proc.cycle = int(out[OUT_CYCLE])
    metrics.committed_uops += int(out[OUT_COMMITTED])
    metrics.dispatched_uops += int(out[OUT_DISPATCHED])
    metrics.copies_generated += int(out[OUT_COPIES])
    metrics.steering_stalls += int(out[OUT_STEER])
    metrics.rob_stalls += int(out[OUT_ROB])
    metrics.lsq_stalls += int(out[OUT_LSQ])
    metrics.mispredict_stalls += int(out[OUT_MISPRED_STALLS])
    metrics.branches += int(out[OUT_BRANCHES])
    metrics.mispredictions += int(out[OUT_MISPREDICTIONS])

    return (
        int(out[OUT_STATUS]),
        int(out[OUT_MOD_NEXT]),
        [int(value) for value in vc_map],
        int(out[OUT_VC_REMAPS]),
    )
