"""Columnar probe engine: struct-of-arrays state evolution for sweeps.

The batched engine (:mod:`repro.cpu.engine`) already collapses each VA's
``rounds`` repetitions into two reference ops plus a closed-form replay,
but those two ops still run the per-op simulator: a Python TLB lookup
over four arrays, a Python radix walk, per-level line-cache dictionary
traffic -- per address.  Full-range scans (16 Ki module slots, hundreds
of thousands of userspace pages) spend all their time there.

This module removes the per-address simulator from the loop.  It
*compiles* a window of the sweep against the machine's current MMU state
into dense numpy arrays -- one column per per-VA attribute:

* structural resolution: per-level page-table node ids and indices,
  terminal level and the leaf's packed PTE word (present/user/writable/
  dirty bits, PFN), read by a vectorized radix descent that indexes the
  page table's own :class:`~repro.mmu.pagetable.TableStore` rows -- the
  arrays the per-op walker reads, so there is nothing to convert or
  cache;
* timing inputs: walk base cycles, assist costs, op base;
* replacement-state interaction points: *run* boundaries (the node chain
  changed -> the PSC resume depth must be measured against the real
  LRU state) and *group* boundaries (the terminal paging line changed ->
  the line cache must really be touched).

Only boundary rows interact with the real PSC / paging-line caches --
through the exact same ``deepest_hit`` / ``access`` / ``fill`` call
sequence the walker issues, in row order.  Every interior row's cache
outcome is forced by the boundary row that opened its run or group (the
walk resumes at the terminal level and its line is hot and
most-recently-used), so interior rows are pure array arithmetic.  The
TLB is evolved the same way: a window is only *eligible* if the compile
step can prove from the live TLB contents that every first access
misses every array and no two sweep fills collide, in which case hit/
miss counters, per-set bucket order (LRU replay), and the closed-form
clock/perf replay are applied per window instead of per op.

Anything the proof does not cover -- ineligible windows, non-canonical
or page-spanning addresses, zero-mask-NOP hardware, disabled or
undersized PSC/line caches, active tracing -- falls back to the per-op
reference row loop (:func:`repro.cpu.engine.sweep_rows`), window by
window, inside the same sweep.  Both paths write the same
:class:`~repro.cpu.engine.SweepState` and share one
:func:`~repro.cpu.engine.finalize_sweep`, which is what keeps the
columnar path *bit-identical* to the batched engine: same measured
matrix, same clock, same performance counters, same TLB/PSC/line-cache
state, same chaos schedule.  The per-op simulator remains the oracle;
``tests/test_columnar.py`` asserts the three-way equivalence.

Under an active chaos runtime the sweep is additionally segmented by
:meth:`~repro.chaos.runtime.ChaosRuntime.next_deadline`: the window
executes vectorized only up to the row whose poll boundary would fire
the next disturbance, the event fires at exactly the per-op clock value,
and the remainder recompiles against the disturbed machine state.
"""

import numpy as np

from repro.cpu import engine as _engine
from repro.mmu import pagetable as _pagetable
from repro.mmu.address import (
    CANONICAL_HIGH_START,
    CANONICAL_LOW_END,
    PAGE_SIZE,
    PAGE_SIZE_1G,
    PAGE_SIZE_2M,
)
from repro.mmu.flags import PageFlags
from repro.mmu.tlb import TLBEntry

#: below this sweep length the compile overhead is not worth it; the
#: auto selection in :meth:`repro.cpu.core.Core.probe_sweep` keeps such
#: sweeps (calibration single pages, supervisor re-probes) on the
#: batched engine
COLUMNAR_MIN_VAS = 32

#: rows compiled per window: bounds the blast radius of an ineligible
#: address (the whole window falls back to the per-op row loop) and the
#: recompile cost after a mid-sweep disturbance
WINDOW_ROWS = 4096

#: introspection for tests and benchmarks: how the last columnar_sweep
#: call executed ("columnar" with row counts, or "delegated" + reason)
last_info = {
    "mode": None,
    "reason": None,
    "columnar_rows": 0,
    "fallback_rows": 0,
    "windows": 0,
}

_SIZE_CODE = {PAGE_SIZE: 0, PAGE_SIZE_2M: 1, PAGE_SIZE_1G: 2}
#: terminal level -> vpn shift / packed size code / page size (level 0
#: entries are unreachable for present rows; the compiler rejects them)
_VPN_SHIFT_OF_LEVEL = np.array([12, 30, 21, 12], dtype=np.uint64)
_CODE_OF_LEVEL = np.array([0, 2, 1, 0], dtype=np.int64)
_SIZE_OF_LEVEL_ARR = np.array(
    [0, PAGE_SIZE_1G, PAGE_SIZE_2M, PAGE_SIZE], dtype=np.int64
)

_LEVEL_SHIFTS_U64 = tuple(np.uint64(s) for s in (39, 30, 21, 12))
_INDEX_MASK_U64 = np.uint64(0x1FF)


def _resolve(page_table, idx_cols):
    """Vectorized radix descent of every row through the table's store.

    Returns ``(node_ids, T, words)``: the (4, n) node-id chain (-1 below
    the terminal level), the terminal level, and the leaf PTE word of
    present rows (0 otherwise).  Leaves never sit in a PML4 row (there
    are no 512 GiB pages), so a present row's level is 1..3.
    """
    store = page_table.store
    pte = store.pte
    child = store.child
    n = idx_cols[0].size
    node_ids = np.full((4, n), -1, dtype=np.int64)
    T = np.zeros(n, dtype=np.int64)
    words = np.zeros(n, dtype=np.int64)
    active = np.arange(n)
    rows = np.full(n, page_table.root, dtype=np.int64)
    for level in range(4):
        node_ids[level, active] = store.id_base | rows
        idx = idx_cols[level][active]
        word = pte[rows, idx]
        kid = child[rows, idx]
        present = (word & 1) != 0
        descend = present & (kid != 0)
        stop = active[~descend]
        T[stop] = level
        leaf = present & ~descend
        words[active[leaf]] = word[leaf]
        active = active[descend]
        if not active.size:
            break
        rows = kid[descend].astype(np.int64)
    return node_ids, T, words


class _Plan:
    """One compiled, eligibility-proven window of a sweep."""

    __slots__ = ("n", "T", "present", "idx_all", "node_ids", "term_node",
                 "term_idx", "run_first", "boundary", "walk_base", "op_base",
                 "assist", "has_assist", "fill_mask", "walks2", "vpn", "words",
                 "page_size", "size_code")


def _tlb_key_sets(tlb):
    """Packed (vpn, size) keys currently cached: (visible, all)."""
    asid = tlb.active_asid
    visible = set()
    all_keys = set()
    for array in list(tlb.l1.values()) + [tlb.stlb]:
        for bucket in array._sets:
            for entry in bucket:
                key = entry.vpn * 4 + _SIZE_CODE[entry.page_size]
                all_keys.add(key)
                if entry.asid == asid or entry.is_global:
                    visible.add(key)
    return visible, all_keys


def _compile(core, vas, op):
    """Compile one window (``vas``: uint64 array) into a :class:`_Plan`.

    Returns None when the window cannot be proven equivalent to the
    per-op path; the caller then routes those rows through
    :func:`repro.cpu.engine.sweep_rows`.
    """
    n = vas.size
    canonical = (vas <= np.uint64(CANONICAL_LOW_END)) \
        | (vas >= np.uint64(CANONICAL_HIGH_START))
    if not canonical.all():
        return None
    # a 32-byte vector whose base offset exceeds 4064 spans two pages
    if ((vas & np.uint64(0xFFF)) > np.uint64(4064)).any():
        return None

    idx_cols = [
        ((vas >> shift) & _INDEX_MASK_U64).astype(np.int64)
        for shift in _LEVEL_SHIFTS_U64
    ]
    node_ids, T, words = _resolve(core.address_space.page_table, idx_cols)
    present = (words & int(PageFlags.PRESENT)) != 0
    user = (words & int(PageFlags.USER)) != 0
    writable = (words & int(PageFlags.WRITABLE)) != 0
    dirty = (words & int(PageFlags.DIRTY)) != 0
    vpn = (vas >> _VPN_SHIFT_OF_LEVEL[T]).astype(np.int64)
    size_code = _CODE_OF_LEVEL[T]
    cpu = core.cpu
    fill_mask = present & (user | cpu.fills_tlb_for_supervisor_user_probe)

    # -- TLB eligibility proof -------------------------------------------
    # A: no candidate lookup key (any page size) may hit a visible entry,
    #    so every first access is a full miss;
    # B: no fill key may match a cached key of any tag, or TLB.fill would
    #    replace in place instead of appending (it ignores the asid);
    # C: no fill key may collide with any other row's candidate keys, so
    #    sweep fills never hit or replace each other.
    cand = np.concatenate([
        ((vas >> np.uint64(12)).astype(np.int64) << 2),
        ((vas >> np.uint64(21)).astype(np.int64) << 2) | 1,
        ((vas >> np.uint64(30)).astype(np.int64) << 2) | 2,
    ])
    fill_keys = (vpn * 4 + size_code)[fill_mask]
    visible, all_keys = _tlb_key_sets(core.tlb)
    if visible:
        vis = np.fromiter(visible, dtype=np.int64, count=len(visible))
        if np.isin(cand, vis).any():
            return None
    if fill_keys.size:
        if all_keys:
            alk = np.fromiter(all_keys, dtype=np.int64, count=len(all_keys))
            if np.isin(fill_keys, alk).any():
                return None
        unique, counts = np.unique(cand, return_counts=True)
        if (counts[np.searchsorted(unique, fill_keys)] > 1).any():
            return None

    # -- per-row timing inputs -------------------------------------------
    timing = core.walker.timing
    plan = _Plan()
    plan.n = n
    plan.T = T
    plan.present = present
    plan.idx_all = np.stack(idx_cols)
    plan.node_ids = node_ids
    plan.vpn = vpn
    plan.words = words
    plan.page_size = _SIZE_OF_LEVEL_ARR[T]
    plan.size_code = size_code
    plan.fill_mask = fill_mask
    plan.walks2 = ~fill_mask
    plan.walk_base = timing.base + timing.level_step * (T + 1)
    if op == "load":
        plan.op_base = cpu.load_base
        plan.has_assist = ~(present & user)
        plan.assist = np.where(plan.has_assist, cpu.assist_load, 0)
    else:
        plan.op_base = cpu.store_base
        plan.has_assist = ~(present & user & writable & dirty)
        plan.assist = np.where(
            ~present, cpu.assist_store_fault,
            np.where(~user | ~writable, cpu.assist_store,
                     np.where(~dirty, cpu.assist_dirty, 0)),
        )

    # -- run / group decomposition ---------------------------------------
    rows = np.arange(n)
    plan.term_node = plan.node_ids[T, rows]
    plan.term_idx = plan.idx_all[T, rows]
    run_first = np.empty(n, dtype=bool)
    run_first[0] = True
    if n > 1:
        run_first[1:] = (
            (plan.node_ids[:, 1:] != plan.node_ids[:, :-1]).any(axis=0)
            | (T[1:] != T[:-1])
        )
    group_first = run_first.copy()
    if n > 1:
        group_first[1:] |= (
            (plan.term_node[1:] != plan.term_node[:-1])
            | ((plan.term_idx[1:] >> 3) != (plan.term_idx[:-1] >> 3))
        )
    plan.run_first = run_first
    plan.boundary = np.flatnonzero(group_first)
    return plan


def _sim_boundary(core, plan, row, walk1_extra):
    """Replay row ``row``'s real replacement-state interaction.

    Run-first rows issue the walker's exact PSC probe / line accesses /
    PSC fills; group-first rows touch just the (new) terminal line.
    Interior rows are never simulated: their walk resumes at the
    terminal level and finds its line hot and MRU, so they have no state
    effect at all (LRU refreshes of an MRU key are no-ops).
    """
    walker = core.walker
    timing = walker.timing
    lines = walker.line_cache
    if not plan.run_first[row]:
        hot = lines.access(int(plan.term_node[row]), int(plan.term_idx[row]))
        walk1_extra[row] = timing.access_hot if hot else timing.access_cold
        return
    terminal = int(plan.T[row])
    indices = tuple(int(x) for x in plan.idx_all[:, row])
    psc = walker.psc
    hit = psc.deepest_hit(indices)
    start = min(hit + 1, terminal) if hit is not None else 0
    extra = 0
    for level in range(start, terminal + 1):
        hot = lines.access(int(plan.node_ids[level, row]), indices[level])
        extra += timing.access_hot if hot else timing.access_cold
    for position in range(start, terminal):
        psc.fill(indices, position, int(plan.node_ids[position + 1, row]))
    walk1_extra[row] = extra


def _row_cycles(core, plan, walk1_extra, lo, hi, ops_per_va):
    """First/steady true cycles for plan rows [lo, hi), post-DVFS."""
    cpu = core.cpu
    timing = core.walker.timing
    window = slice(lo, hi)
    walk_base = plan.walk_base[window]
    assist = plan.assist[window]
    first_raw = plan.op_base + walk_base + walk1_extra[window] + assist
    if ops_per_va == 1:
        steady_raw = first_raw
    else:
        # fillable rows hit their own first-op fill in L1; the rest walk
        # again, resuming at the terminal level with its line hot
        steady_raw = np.where(
            plan.fill_mask[window],
            plan.op_base + cpu.tlb_hit_l1 + assist,
            plan.op_base + walk_base + timing.access_hot + assist,
        )
    scale = core.dvfs_scale
    if scale != 1.0:
        first = np.rint(first_raw * scale).astype(np.int64)
        steady = first if ops_per_va == 1 \
            else np.rint(steady_raw * scale).astype(np.int64)
        return first, steady
    return first_raw, steady_raw


def _run_window(core, plan, state, rounds, warm, seg_start, deadline):
    """Execute plan rows vectorized; stop at the chaos deadline.

    Returns ``(rows_done, walk1_extra)``.  Boundary simulations are only
    applied for rows that actually execute; with a deadline, the stop
    row is predicted exactly (integer cycle arithmetic) so the next
    ``chaos.poll()`` fires at the same clock value as the per-op path's.
    """
    n = plan.n
    timing = core.walker.timing
    walk1_extra = np.full(n, timing.access_hot, dtype=np.int64)
    ops_per_va = 2 * rounds if warm else rounds

    if deadline is None:
        for row in plan.boundary.tolist():
            _sim_boundary(core, plan, row, walk1_extra)
        first, steady = _row_cycles(core, plan, walk1_extra, 0, n, ops_per_va)
        state.first[seg_start:seg_start + n] = first
        state.steady[seg_start:seg_start + n] = steady
        return n, walk1_extra

    cpu = core.cpu
    per_va_overhead = rounds * (cpu.measurement_overhead + cpu.loop_overhead)
    base_clock = core.clock.cycles
    elapsed = 0
    done = n
    boundary = plan.boundary.tolist()
    for k, row in enumerate(boundary):
        if base_clock + elapsed >= deadline:
            done = row
            break
        nxt = boundary[k + 1] if k + 1 < len(boundary) else n
        _sim_boundary(core, plan, row, walk1_extra)
        first, steady = _row_cycles(core, plan, walk1_extra, row, nxt,
                                    ops_per_va)
        state.first[seg_start + row:seg_start + nxt] = first
        state.steady[seg_start + row:seg_start + nxt] = steady
        totals = np.cumsum(
            first + steady * (ops_per_va - 1) + per_va_overhead
        )
        if nxt - row > 1:
            # row ``row`` already cleared its poll; rows row+1.. poll at
            # base + elapsed + totals[j-1]
            tripped = np.flatnonzero(
                base_clock + elapsed + totals[:-1] >= deadline
            )
            if tripped.size:
                j = int(tripped[0])
                done = row + 1 + j
                break
        elapsed += int(totals[-1])
    return done, walk1_extra


def _apply_accounting(core, plan, state, walk1_extra, done, seg_start,
                      rounds, warm, op):
    """Apply clock / perf / TLB effects for executed plan rows [0, done)."""
    if not done:
        return
    ops_per_va = 2 * rounds if warm else rounds
    cpu = core.cpu
    per_va_overhead = rounds * (cpu.measurement_overhead + cpu.loop_overhead)
    first = state.first[seg_start:seg_start + done]
    steady = state.steady[seg_start:seg_start + done]
    core.clock.advance(
        int(first.sum()) + (ops_per_va - 1) * int(steady.sum())
        + done * per_va_overhead
    )

    perf = core.perf
    perf.increment(
        "MEM_INST_RETIRED.ALL_STORES" if op == "store"
        else "MEM_INST_RETIRED.ALL_LOADS",
        done * ops_per_va,
    )
    walks2 = plan.walks2[:done]
    second_walks = int(walks2.sum())
    walks_total = done + second_walks * (ops_per_va - 1)
    perf.increment("DTLB_LOAD_MISSES.WALK_COMPLETED", walks_total)
    core.walker.completed_walks += walks_total
    walk_base = plan.walk_base[:done]
    # walk durations are pre-DVFS, exactly as the walker counts them
    duration = int((walk_base + walk1_extra[:done]).sum())
    if ops_per_va > 1 and second_walks:
        duration += (ops_per_va - 1) * int(
            (walk_base[walks2] + core.walker.timing.access_hot).sum()
        )
    perf.increment("DTLB_LOAD_MISSES.WALK_DURATION", duration)
    assists = int(plan.has_assist[:done].sum())
    if assists:
        perf.increment("ASSISTS.ANY", assists * ops_per_va)

    # -- TLB counters: first op fully misses; the second op either hits
    # the row's own fill in L1 or fully misses again.  Skipped
    # repetitions never touch TLB counters (the engine replays perf
    # counters only), so the second-op effects land exactly once.
    tlb = core.tlb
    l1_arrays = list(tlb.l1.values())
    for array in l1_arrays:
        array.misses += done
    tlb.stlb.misses += 3 * done
    fill_mask = plan.fill_mask[:done]
    fills = int(fill_mask.sum())
    if ops_per_va > 1:
        refused = done - fills
        if refused:
            for array in l1_arrays:
                array.misses += refused
            tlb.stlb.misses += 3 * refused
        if fills:
            for code, size in ((0, PAGE_SIZE), (1, PAGE_SIZE_2M),
                               (2, PAGE_SIZE_1G)):
                count = int((fill_mask & (plan.size_code[:done] == code))
                            .sum())
                if count:
                    tlb.l1[size].hits += count

    if fills:
        # bucket replay: per (array, set), appending k entries to a
        # bucket of b with pop(0)-on-full keeps the last ``ways`` of
        # bucket+fills -- one shared TLBEntry per row, as TLB.fill makes
        asid = tlb.active_asid
        pending = {}
        vpns = plan.vpn[:done]
        words = plan.words[:done]
        sizes = plan.page_size[:done]
        for row in np.flatnonzero(fill_mask).tolist():
            size = int(sizes[row])
            vpn = int(vpns[row])
            word = int(words[row])
            entry = TLBEntry(vpn, (word >> 12) & _pagetable.PFN_MASK,
                             _pagetable.flags_of_word(word), size, False,
                             asid)
            l1 = tlb.l1[size]
            pending.setdefault(
                (id(l1), vpn % l1.sets), (l1, vpn % l1.sets, [])
            )[2].append(entry)
            if size != PAGE_SIZE_1G:
                stlb = tlb.stlb
                pending.setdefault(
                    (id(stlb), vpn % stlb.sets), (stlb, vpn % stlb.sets, [])
                )[2].append(entry)
        for array, set_index, entries in pending.values():
            combined = array._sets[set_index] + entries
            array._sets[set_index] = combined[-array.ways:]


def _delegate_reason(core):
    """Whole-sweep conditions the columnar model does not cover."""
    if core.obs.enabled:
        return "tracing"
    walker_obs = core.walker.obs
    if walker_obs is not None and walker_obs.enabled:
        return "walker-tracing"
    if core.avx.zero_mask_nop:
        return "zero-mask-nop"
    walker = core.walker
    if not walker.use_psc:
        return "no-psc"
    if any(c.capacity < 1 for c in walker.psc._caches.values()):
        return "psc-capacity"
    if walker.line_cache._lines.capacity < 1:
        return "line-capacity"
    return None


def columnar_sweep(core, vas, rounds, op="load", warm=True, reduce="mean"):
    """Columnar probe sweep: engine-equivalent, array-evolved.

    Drop-in replacement for :func:`repro.cpu.engine.probe_sweep` with
    identical semantics (measured matrix, clock, counters, MMU state,
    chaos schedule); windows the compile step cannot prove safe run
    through the engine's per-op row loop instead.
    """
    _engine.validate_sweep_args(op, reduce, rounds)
    vas = list(vas)
    n = len(vas)
    if n == 0:
        return np.empty((0,) if reduce else (0, rounds), dtype=np.float64)

    reason = _delegate_reason(core)
    if reason is None:
        try:
            vas_u64 = np.array(vas, dtype=np.uint64)
        except (OverflowError, TypeError, ValueError):
            reason = "unrepresentable-vas"
    if reason is not None:
        last_info.update(mode="delegated", reason=reason, columnar_rows=0,
                         fallback_rows=n, windows=0)
        return _engine.probe_sweep(core, vas, rounds, op=op, warm=warm,
                                   reduce=reduce)

    chaos = core.chaos if (core.chaos is not None and core.chaos.active) \
        else None
    state = _engine.SweepState(n, rounds, chaos)
    columnar_rows = 0
    fallback_rows = 0
    windows = 0
    start = 0
    while start < n:
        if chaos is not None:
            core.chaos_poll()
        end = min(n, start + WINDOW_ROWS)
        plan = _compile(core, vas_u64[start:end], op)
        if plan is None:
            _engine.sweep_rows(core, vas, rounds, op, warm, state, start, end)
            fallback_rows += end - start
            start = end
            continue
        windows += 1
        deadline = chaos.next_deadline() if chaos is not None else None
        done, walk1_extra = _run_window(core, plan, state, rounds, warm,
                                        start, deadline)
        _apply_accounting(core, plan, state, walk1_extra, done, start,
                          rounds, warm, op)
        if chaos is not None:
            state.spike_col[start] = core.pending_spike_cycles
            core.pending_spike_cycles = 0
            state.resolution[start:start + done] = core.timer_resolution
            for row in range(start, start + done):
                state.noise[row] = core.noise.sample_array(
                    core.rng, (rounds,)
                ).astype(np.int64)
        columnar_rows += done
        start += done
    last_info.update(mode="columnar", reason=None,
                     columnar_rows=columnar_rows,
                     fallback_rows=fallback_rows, windows=windows)
    return _engine.finalize_sweep(core, state, warm, reduce)
