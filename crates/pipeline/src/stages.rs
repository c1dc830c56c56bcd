//! Pipeline stage implementations: event handling (writeback, L2-miss
//! lifecycle), commit, issue, dispatch, fetch, and squash.

use crate::config::FetchPolicyKind;
use crate::core::{Fetched, RobView, Simulator};
use crate::fault::FillFault;
use crate::rob_policy::MissEvent;
use crate::types::{BranchState, Event, EventKind, InstRef, InstState, LsqEntry, MemState};
use smtsim_isa::{OpClass, ThreadId, INST_BYTES};
use smtsim_obs::{DodSource, StallKind, TraceEvent, Tracer};

/// Outcome of the dispatch gate for one thread this cycle, shared by
/// [`Simulator::try_dispatch_one`] and the cycle-skip engine (which
/// replays `Stall` outcomes in closed form over skipped cycles).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum DispatchClass {
    /// Nothing in the fetch queue.
    EmptyQ,
    /// Head of the fetch queue still in decode (`ready_at` in the
    /// future).
    NotReady,
    /// Blocked on a structural resource; counted as a stall.
    Stall(StallKind),
    /// Would dispatch.
    Pass,
}

impl<T: Tracer> Simulator<T> {
    // ------------------------------------------------------------------
    // Events (writeback, miss lifecycle)
    // ------------------------------------------------------------------

    pub(crate) fn process_events(&mut self) {
        let mut due = std::mem::take(&mut self.scratch.events);
        self.events.drain_due(self.now, &mut due);
        if !due.is_empty() {
            // Even a stale event (squashed target) counts as activity:
            // it changed the event queue the skip decision peeks at.
            self.cycle_activity = true;
        }
        for &ev in &due {
            match ev.kind {
                EventKind::Complete => self.handle_complete(ev.inst, ev.slot),
                EventKind::L2MissDetected => self.handle_miss_detected(ev.inst, ev.slot),
                EventKind::L2Fill => self.handle_fill(ev.inst, ev.slot),
            }
        }
        // Handling the sorted batch equals a min-heap's pop loop only
        // while no handler schedules an event (see `event_queue`).
        debug_assert!(
            self.events.next_at().is_none_or(|at| at > self.now),
            "an event handler scheduled an event due at cycle {}",
            self.now
        );
        self.scratch.events = due;
    }

    /// Writeback: the instruction's result becomes valid.
    fn handle_complete(&mut self, r: InstRef, slot: u32) {
        // Squashed instructions leave stale events behind; drop them.
        let Some(idx) = self.threads[r.thread].rob.locate(slot as usize, r.tag) else {
            return;
        };
        let th = &mut self.threads[r.thread];
        debug_assert!(!th.rob.executed(idx), "double completion for {r:?}");
        th.rob.set_executed(idx, true);
        let s = th.rob.slot(idx);
        let di = s.di;
        let tag = s.tag;
        let wrong_path = s.wrong_path;
        let dst = s.dst_phys;
        let branch = s.branch;
        let l1_missed = s.mem.is_some_and(|m| m.l1_miss);

        if let Some(d) = dst {
            self.regs.set_ready(d, true);
            // Wake the consumers parked on this register.
            self.iq.wake_reg(d);
        }
        let th = &mut self.threads[r.thread];
        let mut store_resolved = false;
        if di.op.is_mem() {
            if let Some(li) = th.lsq.index_of(tag) {
                th.lsq.set_resolved(li);
                store_resolved = di.op == OpClass::Store;
            }
        }
        if l1_missed {
            debug_assert!(th.pending_l1d > 0);
            th.pending_l1d -= 1;
        }
        if store_resolved {
            // Only store resolutions can release a disambiguation-
            // blocked load; re-test this thread's waiting loads.
            self.iq.wake_lsq(r.thread, &self.threads[r.thread].lsq);
        }

        // Branch resolution.
        let Some(bs) = branch else { return };
        if wrong_path {
            // Wrong-path branches resolve into the void: the machine
            // cannot tell, but their redirects are never acted upon and
            // predictors are not trained (their "outcomes" are
            // fabrications).
            return;
        }
        if di.op == OpClass::BranchCond {
            self.stats.threads[r.thread].branches += 1;
            self.gshare.train(di.pc, bs.hist, di.taken);
        }
        if di.taken {
            self.btb.update(di.pc, di.next_pc);
        }
        if bs.mispredicted {
            self.stats.threads[r.thread].mispredicts += 1;
            self.squash_from(r.thread, tag + 1, di.next_pc, false);
            if di.op == OpClass::BranchCond {
                self.gshare.restore(r.thread, bs.hist, di.taken);
            }
            let th = &mut self.threads[r.thread];
            th.redirect_tag = None;
            th.fetch_stall_until = self.now + 1 + self.cfg.redirect_penalty;
        }
    }

    /// The core notices an L2 miss (L1 probe + L2 probe have completed).
    fn handle_miss_detected(&mut self, r: InstRef, slot: u32) {
        let Some(idx) = self.threads[r.thread].rob.locate(slot as usize, r.tag) else {
            return;
        };
        if self.threads[r.thread].rob.executed(idx) {
            return; // forwarding or a squash/refetch race resolved it
        }
        let s = self.threads[r.thread].rob.slot_mut(idx);
        let Some(m) = s.mem.as_mut() else { return };
        m.miss_visible = true;
        let ev = MissEvent {
            thread: r.thread,
            tag: r.tag,
            pc: s.di.pc,
            hist: s.dod_hist,
            wrong_path: s.wrong_path,
        };
        let next_pc = s.di.next_pc;
        let wrong_path = s.wrong_path;
        self.threads[r.thread].pending_l2_visible += 1;
        if !wrong_path {
            self.stats.threads[r.thread].l2_misses += 1;
        }
        if T::ENABLED {
            self.tracer.record(
                self.now,
                TraceEvent::L2MissDetected {
                    thread: r.thread,
                    tag: r.tag,
                    pc: ev.pc,
                    wrong_path,
                },
            );
        }

        // FLUSH policy: squash everything behind the missing load and
        // gate fetch until the fill returns.
        if matches!(self.cfg.fetch_policy, FetchPolicyKind::Flush) && !wrong_path {
            self.squash_from(r.thread, r.tag + 1, next_pc, true);
            self.threads[r.thread].flush_gate = Some(r.tag);
        }

        let view = RobView {
            threads: &self.threads,
        };
        self.alloc.on_l2_miss(&view, ev, self.now);
    }

    /// The fill for an L2-missing load arrives: sample the DoD
    /// histogram (Figures 1/3/7) and notify the policy.
    fn handle_fill(&mut self, r: InstRef, slot: u32) {
        let Some(idx) = self.threads[r.thread].rob.locate(slot as usize, r.tag) else {
            return;
        };
        let s = self.threads[r.thread].rob.slot_mut(idx);
        let Some(m) = s.mem.as_mut() else { return };
        let was_visible = std::mem::take(&mut m.miss_visible);
        let ev = MissEvent {
            thread: r.thread,
            tag: r.tag,
            pc: s.di.pc,
            hist: s.dod_hist,
            wrong_path: s.wrong_path,
        };
        if was_visible {
            let th = &mut self.threads[r.thread];
            debug_assert!(th.pending_l2_visible > 0);
            th.pending_l2_visible -= 1;
            if th.flush_gate == Some(r.tag) {
                th.flush_gate = None;
            }
        }
        // Two counts are taken at service time:
        // * the *policy* count — the paper's 5-bit hardware counter
        //   scanning the first-level window behind the load (what
        //   trains the DoD predictor);
        // * the *observation* count over the whole ROB (saturated to
        //   the same 5 bits) — the quantity Figures 1/3/7 plot, which
        //   grows as deeper windows capture more of the dependence
        //   shadow.
        let (counted_policy, counted_full) = {
            let rob = &self.threads[r.thread].rob;
            (
                rob.count_unexecuted(idx + 1, self.cfg_dod_window()),
                rob.count_unexecuted(idx + 1, usize::MAX).min(31),
            )
        };
        if T::ENABLED {
            self.tracer.record(
                self.now,
                TraceEvent::L2Fill {
                    thread: r.thread,
                    tag: r.tag,
                    wrong_path: ev.wrong_path,
                },
            );
        }
        if !ev.wrong_path {
            self.stats.dod_at_fill.record(counted_full);
            // Static-oracle cross-check, on the true counter value
            // (fault injection may corrupt the copy handed to the
            // policy below, but the oracle audits the machine, not the
            // fault plan).
            self.oracle_check(r, idx, ev.pc, counted_policy);
            if T::ENABLED {
                // The same pre-fault counter value the oracle audits,
                // so episode DoD agrees with `SimStats::dod_oracle`.
                self.tracer.record(
                    self.now,
                    TraceEvent::DodSampled {
                        thread: r.thread,
                        tag: r.tag,
                        value: counted_policy,
                        source: DodSource::CounterAtFill,
                    },
                );
            }
        }
        // Fault injection: the DoD count handed to the policy may be
        // corrupted, or the notification suppressed altogether (a lost
        // release — policies must degrade, not hang).
        let (counted_policy, deliver) = self.fault.on_fill_notify(counted_policy);
        if deliver {
            let view = RobView {
                threads: &self.threads,
            };
            self.alloc.on_l2_fill(&view, ev, counted_policy, self.now);
        }
    }

    /// Entries scanned by the DoD counter (the 32-entry first level
    /// minus the load itself).
    #[cfg(not(feature = "seeded-dod-bug"))]
    fn cfg_dod_window(&self) -> usize {
        crate::rob_policy::DOD_WINDOW
    }

    /// Mutation self-test variant: deliberately scans one entry past the
    /// first-level window. The bug is timing-only (commit streams stay
    /// identical); the conformance harness must catch it via the
    /// `CounterAtFill` sample bound `value <= DOD_WINDOW`. Never enable
    /// this feature outside the `smtsim-conform` mutation test.
    #[cfg(feature = "seeded-dod-bug")]
    fn cfg_dod_window(&self) -> usize {
        crate::rob_policy::DOD_WINDOW + 1
    }

    // ------------------------------------------------------------------
    // Commit
    // ------------------------------------------------------------------

    pub(crate) fn commit_stage(&mut self) {
        let n = self.cfg.num_threads;
        let mut budget = self.cfg.commit_width;
        let start = self.commit_rr;
        self.commit_rr = (self.commit_rr + 1) % n;
        for k in 0..n {
            if budget == 0 {
                break;
            }
            let t = (start + k) % n;
            while budget > 0 {
                if !self.threads[t].rob.front_executed() {
                    break; // also covers an empty ROB
                }
                // In-place commit: copy the few scalars this stage
                // needs from the head slot, then drop the entry
                // without recomposing the full `InstState`.
                let (tag, seq, op, mem_addr, old_phys, wrong_path, pc, dst, taken) = {
                    let s = self.threads[t].rob.slot(0);
                    (
                        s.tag,
                        s.di.seq,
                        s.di.op,
                        s.di.mem_addr,
                        s.old_phys,
                        s.wrong_path,
                        s.di.pc,
                        s.di.dst,
                        s.di.taken,
                    )
                };
                self.threads[t].rob.drop_front();
                self.cycle_activity = true;
                // Architectural integrity (always-on cheap checks): the
                // committed stream is the functional trace, contiguous
                // and in order, and never wrong-path work.
                if wrong_path {
                    self.report_integrity(format!(
                        "t{t}: wrong-path instruction tag {tag} reached commit"
                    ));
                    break;
                }
                if let Some(prev) = self.threads[t].last_committed_seq {
                    if seq != prev + 1 {
                        self.report_integrity(format!(
                            "t{t}: commit-order hole: seq {seq} committed after seq {prev}"
                        ));
                        break;
                    }
                }
                self.threads[t].last_committed_seq = Some(seq);
                if op.is_mem() {
                    match self.threads[t].lsq.pop_front() {
                        Some(e) if e.tag == tag => {
                            if op == OpClass::Store {
                                self.mem.store_commit(mem_addr, self.now);
                            }
                        }
                        head => {
                            self.report_integrity(format!(
                                "t{t}: LSQ/ROB desync at commit: mem op tag {tag} vs LSQ head {:?}",
                                head.map(|e| e.tag)
                            ));
                            break;
                        }
                    }
                }
                if let Some(old) = old_phys {
                    self.regs.commit_release(t, old);
                }
                if T::ENABLED {
                    self.tracer.record(
                        self.now,
                        TraceEvent::Commit {
                            thread: t,
                            tag,
                            seq,
                            pc,
                            dst: dst.map_or(0, |r| r.flat_index() as u32 + 1),
                            mem_addr,
                            taken,
                        },
                    );
                }
                self.stats.threads[t].committed += 1;
                self.last_commit = self.now;
                budget -= 1;
            }
        }
    }

    // ------------------------------------------------------------------
    // Issue
    // ------------------------------------------------------------------

    pub(crate) fn issue_stage(&mut self) {
        // Select from the ready pool, oldest first. The wakeup network
        // (see [`crate::soa::IqSoa`]) already proved every pooled entry
        // register-ready and disambiguation-clear — there is no
        // per-cycle readiness scan; this stage only validates pool
        // entries against the arena, orders them by global age, and
        // spends the issue width. Stores waited only on their address
        // operand; data is read at commit, by which time the (older)
        // producer has completed.
        let mut cands = std::mem::take(&mut self.scratch.cands);
        cands.clear();
        self.iq.drain_ready_into(&mut cands);
        if cands.is_empty() {
            self.scratch.cands = cands;
            return;
        }
        // A candidate this cycle — even one blocked on a structural FU
        // hazard — means the machine may make progress next cycle
        // without any event, so the cycle is not quiet.
        self.cycle_activity = true;
        cands.sort_unstable();
        let mut width = self.cfg.issue_width;
        for &(seq, slot) in &cands {
            if width == 0 {
                // Out of issue bandwidth: everything still ready stays
                // pooled for next cycle.
                self.iq.requeue_ready(slot, seq);
                continue;
            }
            let (t, tag) = (self.iq.thread(slot), self.iq.tag(slot));
            // Cached physical ROB slot, binary-search fallback when a
            // ring `grow` relocated it. An IQ entry whose instruction
            // is no longer in flight means squash cleanup missed it —
            // an integrity violation, not a panic.
            let Some(idx) = self.threads[t].rob.locate(self.iq.robp(slot), tag) else {
                self.report_integrity(format!(
                    "IQ entry not in flight: now={} t{t} tag {tag} rob=[{:?}..{:?}] len={}",
                    self.now,
                    self.threads[t].rob.front_tag(),
                    self.threads[t].rob.back_tag(),
                    self.threads[t].rob.len()
                ));
                continue;
            };
            let op = self.threads[t].rob.slot(idx).di.op;
            if !self.fu.can_issue(op, self.now) {
                // Structural hazard on this unit class: still ready,
                // back into the pool.
                self.iq.requeue_ready(slot, seq);
                continue;
            }
            self.do_issue(t, tag, idx);
            // Entries are freed at issue, as in the M-Sim baseline.
            self.iq.free_slot(slot);
            self.iq_usage[t] -= 1;
            self.threads[t].icount -= 1;
            width -= 1;
        }
        self.scratch.cands = cands;
    }

    /// Issues one instruction: reserves the FU, performs the cache
    /// access for loads, and schedules completion. `idx` is the
    /// caller's ROB index for `(t, tag)`; nothing between the lookup
    /// and the flag writes below mutates the ROB, so it stays valid.
    fn do_issue(&mut self, t: ThreadId, tag: u64, idx: usize) {
        let (op, addr, wrong_path) = {
            let s = self.threads[t].rob.slot(idx);
            (s.di.op, s.di.mem_addr, s.wrong_path)
        };
        // Every event carries the entry's physical ROB slot, so its
        // handler finds the entry without a search.
        let slot = self.threads[t].rob.phys(idx) as u32;
        let event = |at, kind| Event {
            at,
            kind,
            inst: InstRef { thread: t, tag },
            slot,
        };
        let mut fill_fault = FillFault::None;
        let complete_at;
        match op {
            OpClass::Load => {
                let agen = self.fu.issue(op, self.now);
                // Store-to-load forwarding: youngest older store to the
                // same 8-byte chunk (all older stores are resolved —
                // ready_to_issue guarantees it).
                let fwd = {
                    let lsq = &self.threads[t].lsq;
                    lsq.forwarding_store_before(lsq.lower_bound(tag), addr >> 3)
                };
                if fwd {
                    complete_at = agen + 1;
                    if !wrong_path {
                        self.stats.threads[t].forwarded_loads += 1;
                    }
                } else {
                    let res = self.mem.load(addr, agen);
                    if res.l1_miss {
                        let th = &mut self.threads[t];
                        th.pending_l1d += 1;
                        // Loads carry memory state from dispatch.
                        if let Some(m) = th.rob.slot_mut(idx).mem.as_mut() {
                            m.l1_miss = true;
                        }
                    }
                    if res.l2_miss {
                        // Fault injection: an L2-missing load's fill may
                        // be delayed or lost entirely. The miss
                        // *detection* still happens — the machine saw
                        // the miss; it is the service that misbehaves.
                        fill_fault = self.fault.on_l2_fill_scheduled();
                        let delay = match fill_fault {
                            FillFault::Delay(d) => d,
                            _ => 0,
                        };
                        complete_at = res.complete_at + delay;
                        self.push_event(event(
                            res.l2_miss_detected_at.max(self.now),
                            EventKind::L2MissDetected,
                        ));
                        if fill_fault != FillFault::Drop {
                            self.push_event(event(complete_at.max(self.now), EventKind::L2Fill));
                        }
                    } else {
                        complete_at = res.complete_at;
                    }
                }
                if !wrong_path {
                    self.stats.threads[t].loads += 1;
                }
            }
            _ => {
                // Stores execute address generation only; everything
                // else runs start-to-finish on its unit.
                complete_at = self.fu.issue(op, self.now);
            }
        }
        self.threads[t].rob.set_issued(idx, true);
        if !wrong_path {
            self.stats.threads[t].issued += 1;
        }
        // A dropped fill never completes: the load hangs until the
        // watchdog notices the starved thread.
        if fill_fault != FillFault::Drop {
            self.push_event(event(complete_at.max(self.now + 1), EventKind::Complete));
        }
    }

    // ------------------------------------------------------------------
    // Dispatch (rename + ROB/IQ/LSQ allocation)
    // ------------------------------------------------------------------

    pub(crate) fn dispatch_stage(&mut self) {
        let mut caps = std::mem::take(&mut self.scratch.caps);
        self.dcra_caps_into(&mut caps);
        let n = self.cfg.num_threads;
        let mut budget = self.cfg.dispatch_width;
        let start = self.dispatch_rr;
        self.dispatch_rr = (start + 1) % n;
        for k in 0..n {
            if budget == 0 {
                break;
            }
            let t = (start + k) % n;
            while budget > 0 {
                if !self.try_dispatch_one(t, caps[t]) {
                    break;
                }
                budget -= 1;
            }
        }
        self.scratch.caps = caps;
    }

    /// Classifies thread `t`'s dispatch gate this cycle without
    /// committing to anything. The gate order (and therefore which
    /// stall gets charged) is load-bearing: it must match the order the
    /// pre-factored `try_dispatch_one` checked. (Dispatch consults the
    /// ROB capacity through the fault layer, which may be lying about
    /// it.)
    pub(crate) fn classify_dispatch(&mut self, t: ThreadId, iq_cap: usize) -> DispatchClass {
        let (op, dst, needs_iq) = {
            let th = &self.threads[t];
            let Some(f) = th.fetch_q.front() else {
                return DispatchClass::EmptyQ;
            };
            if f.ready_at > self.now {
                return DispatchClass::NotReady;
            }
            let op = f.di.op;
            (op, f.di.dst.filter(|d| !d.is_zero()), op != OpClass::Nop)
        };
        let rob_cap = self.dispatch_capacity(t);
        if self.threads[t].rob.len() >= rob_cap {
            return DispatchClass::Stall(StallKind::RobFull);
        }
        if needs_iq && self.iq.len() >= self.cfg.iq_size {
            return DispatchClass::Stall(StallKind::IqFull);
        }
        if needs_iq && self.iq_usage[t] >= iq_cap {
            return DispatchClass::Stall(StallKind::DcraCap);
        }
        if op.is_mem() && self.threads[t].lsq.len() >= self.cfg.lsq_size {
            return DispatchClass::Stall(StallKind::LsqFull);
        }
        if let Some(d) = dst {
            if self.regs.free_count(t, d.class()) == 0 {
                return DispatchClass::Stall(StallKind::NoRegs);
            }
        }
        DispatchClass::Pass
    }

    /// Charges `k` cycles of the given dispatch stall to thread `t`'s
    /// statistics (`k` = 1 from the dispatch stage; the cycle-skip
    /// engine replays whole quiescent stretches at once).
    pub(crate) fn bump_stall(&mut self, t: ThreadId, kind: StallKind, k: u64) {
        let st = &mut self.stats.threads[t];
        match kind {
            StallKind::RobFull => st.rob_stall_cycles += k,
            StallKind::IqFull => st.stall_iq += k,
            StallKind::DcraCap => st.stall_caps += k,
            StallKind::LsqFull => st.stall_lsq += k,
            StallKind::NoRegs => st.stall_regs += k,
        }
    }

    /// Attempts to dispatch the head of thread `t`'s fetch queue.
    /// Returns false when the thread cannot dispatch this cycle.
    fn try_dispatch_one(&mut self, t: ThreadId, iq_cap: usize) -> bool {
        match self.classify_dispatch(t, iq_cap) {
            DispatchClass::EmptyQ | DispatchClass::NotReady => return false,
            DispatchClass::Stall(kind) => {
                self.bump_stall(t, kind, 1);
                self.trace_stall(t, kind);
                return false;
            }
            DispatchClass::Pass => {}
        }

        // Commit to dispatching.
        let Some(f) = self.threads[t].fetch_q.pop_front() else {
            return false; // unreachable: classify saw the head
        };
        let op = f.di.op;
        let dst = f.di.dst.filter(|d| !d.is_zero());
        let needs_iq = op != OpClass::Nop;
        let src_phys = f.di.srcs.map(|s| s.map(|a| self.regs.map(t, a)));
        let (dst_phys, old_phys) = match dst {
            Some(d) => match self.regs.rename_dst(t, d) {
                Some((new, old)) => (Some(new), Some(old)),
                None => {
                    self.report_integrity(format!(
                        "t{t}: rename_dst failed after free_count reported headroom"
                    ));
                    self.threads[t].fetch_q.push_front(f);
                    return false;
                }
            },
            None => (None, None),
        };
        let tag = self.threads[t].next_tag;
        self.threads[t].next_tag += 1;
        let seq = self.global_seq;
        self.global_seq += 1;
        let inst = InstState {
            tag,
            di: f.di,
            wrong_path: f.wrong_path,
            dst_phys,
            old_phys,
            issued: !needs_iq,
            executed: !needs_iq, // NOPs complete at dispatch
            branch: f.branch,
            mem: f.di.op.is_mem().then(MemState::default),
            dod_hist: self.gshare.history(t),
        };
        // The ROB entry lands first so the IQ can cache its physical
        // slot (nothing below reads the ROB this cycle, so the order
        // relative to the IQ/LSQ inserts is not observable).
        self.threads[t].rob.push_back(inst);
        if needs_iq {
            // The IQ's wait conditions: stores wait only on their
            // address operand (src 0); loads additionally wait on
            // older-store resolution. The disambiguation verdict is
            // taken now — every LSQ entry present is older than this
            // instruction, whose own LSQ entry lands below — and
            // re-tested only on store resolutions ([`IqSoa::wake_lsq`]).
            let iq_srcs = if op == OpClass::Store {
                [src_phys[0], None]
            } else {
                src_phys
            };
            let th = &self.threads[t];
            let lsq_blocked = op == OpClass::Load && th.lsq.unresolved_store_before(th.lsq.len());
            let robp = th.rob.back_phys();
            let regs = &self.regs;
            self.iq.push(t, tag, seq, robp, iq_srcs, lsq_blocked, |r| {
                regs.is_ready(r)
            });
            self.iq_usage[t] += 1;
        } else {
            // NOPs leave the front end without entering the IQ.
            self.threads[t].icount -= 1;
        }
        if op.is_mem() {
            self.threads[t].lsq.push_back(LsqEntry {
                tag,
                is_store: op == OpClass::Store,
                addr: f.di.mem_addr,
                resolved: false,
            });
        }
        if let Some(bs) = f.branch {
            if bs.mispredicted && !f.wrong_path {
                debug_assert!(self.threads[t].redirect_tag.is_none());
                self.threads[t].redirect_tag = Some(tag);
            }
        }
        self.stats.threads[t].dispatched += 1;
        self.cycle_activity = true;
        true
    }

    /// Records a dispatch stall (no-op and fully compiled away when the
    /// tracer is disabled).
    #[inline]
    fn trace_stall(&mut self, thread: ThreadId, kind: StallKind) {
        if T::ENABLED {
            self.tracer
                .record(self.now, TraceEvent::ThreadStall { thread, kind });
        }
    }

    // ------------------------------------------------------------------
    // Fetch
    // ------------------------------------------------------------------

    pub(crate) fn fetch_stage(&mut self) {
        let mut order = std::mem::take(&mut self.scratch.order);
        self.fetch_order_into(&mut order);
        let mut budget = self.cfg.fetch_width;
        let mut threads_used = 0usize;
        for &t in &order {
            if budget == 0 || threads_used >= self.cfg.fetch_threads {
                break;
            }
            if !self.can_fetch(t) {
                continue;
            }
            // A thread allowed into fetch is activity even when it
            // fetches nothing: the zero-fetch paths mutate fetch state
            // (an I-miss arms `fetch_stall_until`, an exhausted
            // wrong-path walk sets `fetch_halted`).
            self.cycle_activity = true;
            let fetched = self.fetch_thread(t, budget);
            budget -= fetched;
            if fetched > 0 {
                threads_used += 1;
            }
        }
        self.scratch.order = order;
    }

    /// Fetches up to `budget` instructions from thread `t`; returns the
    /// number fetched.
    fn fetch_thread(&mut self, t: ThreadId, budget: usize) -> usize {
        let mut fetched = 0usize;
        while fetched < budget {
            if self.threads[t].fetch_q.len() >= self.cfg.fetch_queue {
                break;
            }
            let pc = self.threads[t].fetch_pc;
            // I-cache: one probe per line transition.
            let line = pc & !(self.cfg.l1i.line - 1);
            if line != self.threads[t].last_fetch_line {
                let res = self.mem.ifetch(pc, self.now);
                self.threads[t].last_fetch_line = line;
                if res.l1_miss {
                    self.threads[t].fetch_stall_until = res.complete_at;
                    break;
                }
            }
            // Obtain the instruction: wrong-path fabrication, FLUSH
            // replay, or the live trace.
            let (di, wrong) = {
                let th = &mut self.threads[t];
                if th.in_wrong_path {
                    match th.exec.wrong_path(pc, th.wp_counter) {
                        Some(d) => {
                            th.wp_counter += 1;
                            (d, true)
                        }
                        None => {
                            // Ran outside the program; a real machine
                            // would be fetching unmapped memory. Halt
                            // until the redirect resolves.
                            th.fetch_halted = true;
                            break;
                        }
                    }
                } else if let Some(front) = th.replay_q.pop_front() {
                    debug_assert_eq!(front.pc, pc, "replay stream out of position");
                    (front, false)
                } else {
                    let d = th.exec.next_inst();
                    debug_assert_eq!(d.pc, pc, "front end diverged from trace");
                    (d, false)
                }
            };

            // Branch prediction and next-PC selection.
            let mut branch_state: Option<BranchState> = None;
            let mut ends_group = false;
            let next_pc = if di.op.is_branch() {
                let cond = di.op == OpClass::BranchCond;
                let (dir, hist) = if cond {
                    self.gshare.predict(t, pc)
                } else {
                    (true, self.gshare.history(t))
                };
                let target = self.btb.predict(pc);
                let eff_taken = dir && target.is_some();
                let predicted_next = if eff_taken {
                    // eff_taken implies target.is_some(); the fallback
                    // arm is unreachable.
                    target.unwrap_or(pc + INST_BYTES)
                } else {
                    pc + INST_BYTES
                };
                if cond {
                    self.gshare.spec_update(t, dir);
                }
                let mispredicted = !wrong && predicted_next != di.next_pc;
                branch_state = Some(BranchState { hist, mispredicted });
                if mispredicted {
                    let th = &mut self.threads[t];
                    th.in_wrong_path = true;
                    th.wp_counter = 0;
                }
                ends_group = eff_taken;
                predicted_next
            } else {
                pc + INST_BYTES
            };

            let th = &mut self.threads[t];
            th.fetch_pc = next_pc;
            th.fetch_q.push_back(Fetched {
                di,
                wrong_path: wrong,
                branch: branch_state,
                ready_at: self.now + self.cfg.decode_latency,
            });
            th.icount += 1;
            fetched += 1;
            self.stats.threads[t].fetched += 1;
            if wrong {
                self.stats.threads[t].wrong_path_fetched += 1;
            }
            if ends_group {
                break; // predicted-taken branch ends the fetch group
            }
        }
        fetched
    }

    // ------------------------------------------------------------------
    // Squash
    // ------------------------------------------------------------------

    /// Squashes all instructions of `thread` with tags >= `from_tag`,
    /// redirecting fetch to `resume_pc`. With `collect_replay`
    /// (FLUSH), squashed *correct-path* instructions are queued for
    /// refetch — their dynamic instances were already drawn from the
    /// trace and must not be regenerated.
    pub(crate) fn squash_from(
        &mut self,
        thread: ThreadId,
        from_tag: u64,
        resume_pc: u64,
        collect_replay: bool,
    ) {
        if T::ENABLED {
            self.tracer.record(
                self.now,
                TraceEvent::Squash {
                    thread,
                    first_tag: from_tag,
                },
            );
        }
        // 1. Front end: drain the fetch queue (younger than all ROB
        //    entries). Replay collection reuses the scratch buffers
        //    (squash never nests — it is only entered from the event
        //    handlers, one at a time).
        let mut fetch_replay = std::mem::take(&mut self.scratch.fetch_replay);
        fetch_replay.clear();
        {
            let th = &mut self.threads[thread];
            for f in th.fetch_q.drain(..) {
                th.icount -= 1;
                if collect_replay && !f.wrong_path {
                    fetch_replay.push(f.di);
                }
            }
        }

        // 2. ROB: walk youngest-first, undoing rename state.
        let mut rob_replay = std::mem::take(&mut self.scratch.rob_replay);
        rob_replay.clear();
        let mut oldest_branch_hist: Option<u16> = None;
        let mut squashed = 0u64;
        loop {
            let th = &mut self.threads[thread];
            if th.rob.back_tag().is_none_or(|b| b < from_tag) {
                break;
            }
            let Some(i) = th.rob.pop_back() else {
                break; // unreachable: back presence checked above
            };
            squashed += 1;
            if let (Some(new), Some(old)) = (i.dst_phys, i.old_phys) {
                match i.di.dst {
                    Some(arch) => self.regs.squash_undo(thread, arch, new, old),
                    None => self.report_integrity(format!(
                        "t{thread}: renamed instruction tag {} has no architectural dst",
                        i.tag
                    )),
                }
            }
            let th = &mut self.threads[thread];
            if !i.executed {
                if let Some(m) = i.mem {
                    if m.l1_miss {
                        debug_assert!(th.pending_l1d > 0);
                        th.pending_l1d -= 1;
                    }
                }
            }
            if let Some(m) = i.mem {
                if m.miss_visible {
                    debug_assert!(th.pending_l2_visible > 0);
                    th.pending_l2_visible -= 1;
                }
            }
            if let Some(bs) = i.branch {
                oldest_branch_hist = Some(bs.hist);
            }
            if collect_replay && !i.wrong_path {
                rob_replay.push(i.di);
            }
        }
        self.stats.threads[thread].squashed += squashed;

        // 3. Shared IQ: free the squashed range's arena slots (stale
        //    waiter-list and ready-pool references fall out at their
        //    next validation).
        let iq_usage = &mut self.iq_usage;
        let threads = &mut self.threads;
        self.iq.squash(thread, from_tag, || {
            iq_usage[thread] -= 1;
            threads[thread].icount -= 1;
        });

        // 4. LSQ: truncate from the back.
        {
            let th = &mut self.threads[thread];
            while th.lsq.back_tag().is_some_and(|e| e >= from_tag) {
                th.lsq.pop_back();
            }
        }

        // 5. Fetch-state reset and replay queue assembly.
        {
            let th = &mut self.threads[thread];
            th.in_wrong_path = false;
            th.wp_counter = 0;
            th.fetch_halted = false;
            th.fetch_pc = resume_pc;
            th.last_fetch_line = u64::MAX;
            if th.redirect_tag.is_some_and(|rt| rt >= from_tag) {
                th.redirect_tag = None;
            }
            if th.flush_gate.is_some_and(|g| g >= from_tag) {
                th.flush_gate = None;
            }
            if collect_replay {
                // Program order: ROB entries (collected youngest-first,
                // so reversed) then fetch-queue entries, then whatever
                // was already awaiting replay.
                for di in fetch_replay.drain(..).rev() {
                    th.replay_q.push_front(di);
                }
                for di in rob_replay.drain(..) {
                    th.replay_q.push_front(di);
                }
            } else {
                debug_assert!(
                    rob_replay.is_empty() && fetch_replay.is_empty(),
                    "mispredict squash should only discard wrong-path work"
                );
            }
        }
        self.scratch.fetch_replay = fetch_replay;
        self.scratch.rob_replay = rob_replay;

        // 6. Branch-history repair: restore the snapshot of the oldest
        //    squashed branch (callers may further adjust, e.g. shifting
        //    in the resolving branch's actual outcome).
        if let Some(h) = oldest_branch_hist {
            self.gshare.set_history(thread, h);
        }

        self.alloc.on_squash(thread, from_tag, self.now);
    }
}
