#include "sim/machine.h"

#include <algorithm>

#include "common/macros.h"
#include "obs/telemetry.h"
// crono-lint: allow(include-layering): the instrumentation hooks fire from inside the simulated cores — same documented sim→runtime coupling as machine.h
#include "runtime/instrumentation.h"

namespace crono::sim {

Machine::Machine(const Config& cfg) : cfg_(cfg)
{
    CRONO_REQUIRE(cfg.num_cores >= 1, "machine needs >= 1 core");
}

Machine::~Machine() = default;

SimRunStats
Machine::run(int nthreads, std::function<void(SimCtx&)> body)
{
    CRONO_REQUIRE(nthreads >= 1, "run needs >= 1 thread");

    // Fresh machine state: cold caches, zeroed clocks and counters.
    // The memory system is built once and reset for later runs.
    if (mem_ == nullptr) {
        mem_ = std::make_unique<MemorySystem>(cfg_);
    } else {
        mem_->reset();
    }
    threads_.clear();
    threads_.resize(nthreads);
    phys_.assign(cfg_.num_cores, PhysCore{});
    barrierWaiters_.clear();
    barrierArrived_ = 0;
    nthreads_ = nthreads;
    CRONO_ASSERT(ready_.empty(), "stale ready queue");
    if (observer_ != nullptr) {
        observer_->onRegionBegin(nthreads);
    }

    for (int tid = 0; tid < nthreads; ++tid) {
        ThreadState& ts = threads_[tid];
        ts.core = CoreModel::create(cfg_);
        ts.physCore = tid % cfg_.num_cores;
        ts.fiber = std::make_unique<Fiber>(
            [this, tid, &body] {
                SimCtx ctx(this, tid, nthreads_);
                body(ctx);
                threads_[tid].core->drain();
            },
            cfg_.fiber_stack_bytes);
        ready_.push({0, tid});
    }

    schedule();

    // Assemble the run's statistics.
    SimRunStats st;
    for (ThreadState& ts : threads_) {
        st.completion_cycles =
            std::max(st.completion_cycles, ts.core->now());
        st.breakdown += ts.core->breakdown();
        st.thread_ops.push_back(ts.ops);
    }
    st.l1d = mem_->l1dStats();
    st.l1i_accesses = mem_->l1iAccesses();
    st.l2 = mem_->l2Stats();
    st.network = mem_->networkStats();
    st.dram = mem_->dramStats();
    st.directory = mem_->directoryStats();
    st.energy = computeEnergy(energyParams_, st.l1i_accesses, st.l1d,
                              st.l2, st.directory, st.network, st.dram);
    lastStats_ = st;

    // Telemetry: one epoch span per software thread on its sim-thread
    // track (busy = compute cycles, stall = everything else), and one
    // utilization span per physical core. Emitted after the run is
    // fully assembled, so the modeled statistics cannot be perturbed.
    if (obs::Recorder* rec = obs::sink()) {
        for (int tid = 0; tid < nthreads; ++tid) {
            ThreadState& ts = threads_[tid];
            obs::Track* t =
                obs::trackFor(rec, obs::TrackKind::kSimThread, tid);
            if (t == nullptr) {
                continue;
            }
            const Breakdown& bd = ts.core->breakdown();
            const auto busy =
                static_cast<std::uint64_t>(bd[Component::compute]);
            const std::uint64_t end = ts.core->now();
            obs::spanRecord(t, {0, end, "sim-thread", ts.ops,
                                obs::SpanCat::kSimEpoch});
            obs::counterBump(t, obs::Counter::kBusyCycles, busy);
            obs::counterBump(t, obs::Counter::kStallCycles,
                             end > busy ? end - busy : 0);
        }
        for (std::size_t c = 0; c < phys_.size(); ++c) {
            if (phys_[c].lastThread == -1) {
                continue; // core never scheduled a thread
            }
            obs::Track* t = obs::trackFor(
                rec, obs::TrackKind::kSimCore, static_cast<int>(c));
            if (t == nullptr) {
                continue;
            }
            std::uint64_t busy = 0;
            for (int tid = 0; tid < nthreads; ++tid) {
                if (threads_[tid].physCore == static_cast<int>(c)) {
                    busy += static_cast<std::uint64_t>(
                        threads_[tid].core->breakdown()[Component::compute]);
                }
            }
            obs::spanRecord(t, {0, phys_[c].clock, "core", busy,
                                obs::SpanCat::kSimEpoch});
            obs::counterBump(t, obs::Counter::kBusyCycles, busy);
            obs::counterBump(
                t, obs::Counter::kStallCycles,
                phys_[c].clock > busy ? phys_[c].clock - busy : 0);
        }
    }
    return st;
}

rt::RunInfo
Machine::parallel(int nthreads, std::function<void(SimCtx&)> body)
{
    const SimRunStats st = run(nthreads, std::move(body));
    rt::RunInfo info;
    info.time = static_cast<double>(st.completion_cycles);
    info.thread_ops = st.thread_ops;
    info.variability = rt::variability(st.thread_ops);
    return info;
}

void
Machine::schedule()
{
    while (!ready_.empty()) {
        const auto [when, tid] = ready_.top();
        ready_.pop();
        ThreadState& ts = threads_[tid];
        PhysCore& pc = phys_[ts.physCore];

        // Timesharing: a fiber cannot run while its physical core's
        // clock is ahead of it; switching fibers costs extra.
        std::uint64_t core_free = pc.clock;
        if (pc.lastThread != tid && pc.lastThread != -1) {
            core_free += cfg_.context_switch_cycles;
        }
        ts.core->waitUntil(core_free, Component::synchronization);
        pc.lastThread = tid;

        ts.fiber->resume();

        pc.clock = std::max(pc.clock, ts.core->now());
        // A voluntarily yielding fiber re-queued itself before the
        // switch; a blocked fiber is re-queued by wake(); a finished
        // fiber is done. Nothing to do here.
    }

    for (std::size_t tid = 0; tid < threads_.size(); ++tid) {
        CRONO_ASSERT(threads_[tid].fiber->finished(),
                     "deadlock: runnable queue empty with live threads");
    }
}

void
Machine::maybeYield(int tid)
{
    ThreadState& ts = threads_[tid];
    if (!ready_.empty() &&
        ts.core->now() > ready_.top().first + cfg_.scheduler_quantum) {
        ready_.push({ts.core->now(), tid});
        phys_[ts.physCore].clock = ts.core->now();
        ts.fiber->yieldToHost();
    }
}

void
Machine::blockCurrent(int tid)
{
    ThreadState& ts = threads_[tid];
    ts.blocked = true;
    phys_[ts.physCore].clock = ts.core->now();
    ts.fiber->yieldToHost();
    // Resumed by the scheduler after wake(): charge the sleep.
    ts.blocked = false;
    ts.core->waitUntil(ts.wakeTime, Component::synchronization);
}

void
Machine::wake(int tid, std::uint64_t when)
{
    ThreadState& ts = threads_[tid];
    CRONO_ASSERT(ts.blocked, "wake of non-blocked thread");
    ts.wakeTime = when;
    ready_.push({when, tid});
}

void
Machine::modelAccess(int tid, std::uintptr_t addr, std::uint32_t size,
                     bool is_store)
{
    ThreadState& ts = threads_[tid];
    mem_->instructionFetch(1);
    const AccessLatency lat =
        mem_->access(ts.physCore, addr, size, is_store, ts.core->now());
    ts.core->addAccess(is_store, lat);
    ++ts.ops;
    maybeYield(tid);
}

void
Machine::modelWork(int tid, std::uint64_t n)
{
    ThreadState& ts = threads_[tid];
    mem_->instructionFetch(n);
    ts.core->addCompute(n);
    ts.ops += n;
    maybeYield(tid);
}

void
Machine::mutexLock(int tid, SimMutex& m)
{
    ThreadState& ts = threads_[tid];
    ts.core->drain(); // acquire fence
    modelAccess(tid, reinterpret_cast<std::uintptr_t>(&m.word),
                sizeof(m.word), /*is_store=*/true);
    if (!m.held) {
        m.held = true;
        m.holder = tid;
        if (observer_ != nullptr) {
            observer_->onLockAcquire(
                tid, reinterpret_cast<std::uintptr_t>(&m));
        }
        return;
    }
    m.waiters.push_back(tid);
    const std::uint64_t wait_begin = ts.core->now();
    blockCurrent(tid);
    if (obs::Track* t = obs::trackFor(
            obs::sink(), obs::TrackKind::kSimThread, tid)) {
        obs::spanRecord(t, {wait_begin, ts.core->now(), "lock-wait", 0,
                            obs::SpanCat::kBarrierWait});
    }
    // The releaser handed the lock to us directly.
    CRONO_ASSERT(m.holder == tid, "lock handoff mismatch");
    // Acquiring RMW after the handoff (the lock line changes hands).
    modelAccess(tid, reinterpret_cast<std::uintptr_t>(&m.word),
                sizeof(m.word), /*is_store=*/true);
    if (observer_ != nullptr) {
        observer_->onLockAcquire(tid,
                                 reinterpret_cast<std::uintptr_t>(&m));
    }
}

void
Machine::mutexUnlock(int tid, SimMutex& m)
{
    ThreadState& ts = threads_[tid];
    CRONO_ASSERT(m.held && m.holder == tid, "unlock by non-holder");
    ts.core->drain(); // release fence
    // Release edge published before the handoff below, so the next
    // holder's acquire callback observes it in order.
    if (observer_ != nullptr) {
        observer_->onLockRelease(tid,
                                 reinterpret_cast<std::uintptr_t>(&m));
    }
    modelAccess(tid, reinterpret_cast<std::uintptr_t>(&m.word),
                sizeof(m.word), /*is_store=*/true);
    if (m.waiters.empty()) {
        m.held = false;
        m.holder = -1;
        return;
    }
    const int next = m.waiters.front();
    m.waiters.erase(m.waiters.begin());
    m.holder = next;
    wake(next, ts.core->now() + cfg_.sync_notify_cycles);
}

void
Machine::regionBarrier(int tid)
{
    ThreadState& ts = threads_[tid];
    ts.core->drain();
    modelAccess(tid, reinterpret_cast<std::uintptr_t>(&barrierWord_.word),
                sizeof(barrierWord_.word), /*is_store=*/true);
    // Arrival published after the modeled RMW (its maybeYield is the
    // last scheduling point before this thread blocks or releases), so
    // the observer sees exactly nthreads arrivals per episode, the
    // releasing one last.
    if (observer_ != nullptr) {
        observer_->onBarrierArrive(tid);
    }
    if (++barrierArrived_ < nthreads_) {
        barrierWaiters_.push_back(tid);
        const std::uint64_t wait_begin = ts.core->now();
        blockCurrent(tid);
        if (obs::Track* t = obs::trackFor(
                obs::sink(), obs::TrackKind::kSimThread, tid)) {
            obs::spanRecord(t, {wait_begin, ts.core->now(), "barrier", 0,
                                obs::SpanCat::kBarrierWait});
            obs::counterBump(t, obs::Counter::kBarrierWaits, 1);
        }
        return;
    }
    // Last arriver releases everyone.
    const std::uint64_t release =
        ts.core->now() + cfg_.sync_notify_cycles;
    for (int w : barrierWaiters_) {
        wake(w, release);
    }
    barrierWaiters_.clear();
    barrierArrived_ = 0;
}

std::uint64_t
Machine::threadOps(int tid) const
{
    return threads_[tid].ops;
}

} // namespace crono::sim
