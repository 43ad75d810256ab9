#pragma once
/**
 * @file
 * The lifeguard programming model.
 *
 * A lifeguard is "primarily organized as a collection of event handlers"
 * (paper Section 2): it consumes event records one at a time and performs
 * its checking work. Handlers here are written in C++ but report their
 * *simulated cost* — handler instruction counts and metadata memory
 * accesses — through a CostSink, exactly mirroring the paper's own
 * methodology of event-driven lifeguard execution on a modelled core.
 * docs/LIFEGUARD_GUIDE.md is the start-to-finish authoring guide;
 * examples/custom_lifeguard.cpp shows a complete worked lifeguard;
 * docs/ARCHITECTURE.md describes where it sits in the system.
 *
 * Handler registration mirrors the paper's `nlba` handler table: a
 * lifeguard registers one handler function per event type at
 * construction (onEvent<&MyGuard::onLoad>(EventType::kLoad)), and the
 * dispatch engine jumps straight through that table — no virtual call,
 * no per-record switch. Event types without a handler cost dispatch
 * cycles only. handleEvent() is the same table call for direct callers
 * (tests, the DBI platform). Register handlers in the constructor: a
 * dispatch engine seals the table when it resolves it, and later
 * registration asserts. A lifeguard that registers nothing is a valid
 * no-op monitor (every event costs dispatch cycles only) — if your
 * checker finds nothing, check your registrations first.
 *
 * The same Lifeguard instance runs unchanged on both platforms:
 *  - LBA: the dispatch engine on the lifeguard core feeds it records from
 *    the log buffer and charges costs to the lifeguard core's clock/caches.
 *  - DBI baseline: the inline instrumentation engine feeds it the same
 *    records on the application core, charging costs there.
 * Platform changes *when/where* the cost is paid, never the findings.
 */

#include <array>
#include <vector>

#include "common/assert.h"
#include "common/types.h"
#include "lifeguard/finding.h"
#include "log/event.h"

namespace lba::lifeguard {

/**
 * Receives the simulated cost of handler execution. Implemented by each
 * monitoring platform.
 */
class CostSink
{
  public:
    virtual ~CostSink() = default;

    /** Charge @p count single-cycle handler instructions. */
    virtual void instrs(std::uint32_t count) = 0;

    /**
     * Charge one handler load/store of lifeguard metadata at simulated
     * address @p addr (routed through the consuming core's caches; the
     * access cycle itself is included, do not double count with instrs()).
     */
    virtual void memAccess(Addr addr, bool is_write) = 0;
};

/** A CostSink that discards costs (for functional-only runs and tests). */
class NullCostSink : public CostSink
{
  public:
    void instrs(std::uint32_t) override {}
    void memAccess(Addr, bool) override {}
};

namespace detail {

/** The class a pointer-to-member-function belongs to. */
template <typename> struct MemberClass;

template <typename C, typename R, typename... Args>
struct MemberClass<R (C::*)(Args...)>
{
    using type = C;
};

} // namespace detail

/**
 * Base class for all lifeguards.
 */
class Lifeguard
{
  public:
    /**
     * One entry of the per-event-type handler table. @p self is the
     * registering lifeguard (handlers are plain functions so the table
     * is a flat array of jump targets, like the hardware's).
     */
    using Handler = void (*)(Lifeguard& self,
                             const log::EventRecord& record,
                             CostSink& cost);

    virtual ~Lifeguard() = default;

    /** Human-readable lifeguard name ("AddrCheck", ...). */
    virtual const char* name() const = 0;

    /**
     * Process one event record through the handler table, charging
     * handler cost to @p cost (a type with no handler is a no-op).
     */
    void
    handleEvent(const log::EventRecord& record, CostSink& cost)
    {
        Handler handler =
            handlers_[static_cast<std::size_t>(record.type)];
        if (handler) handler(*this, record, cost);
    }

    /**
     * End-of-program hook (e.g. AddrCheck's leak scan). Called once after
     * the last record has been consumed.
     */
    virtual void finish(CostSink& cost) { (void)cost; }

    /** The per-event-type handler table (null = event ignored). */
    const std::array<Handler, log::kNumEventTypes>&
    handlers() const
    {
        return handlers_;
    }

    /**
     * Freeze the handler table. Called by a dispatch engine when it
     * resolves the table; registering a handler afterwards would make
     * the engine's snapshot diverge from the live table (and the
     * engine diverge from direct handleEvent() callers), so
     * setHandler() asserts against it. Idempotent.
     */
    void sealHandlerTable() { handlers_sealed_ = true; }

    /** All problems reported so far, in detection order. */
    const std::vector<Finding>& findings() const { return findings_; }

    /** Number of findings of a particular kind. */
    std::size_t
    countFindings(FindingKind kind) const
    {
        std::size_t n = 0;
        for (const Finding& f : findings_) {
            if (f.kind == kind) ++n;
        }
        return n;
    }

  protected:
    /** Report a problem. */
    void report(Finding finding) { findings_.push_back(std::move(finding)); }

    /**
     * Register @p handler for @p type. Call from the constructor;
     * re-registering a type replaces its entry. Asserts once a
     * dispatch engine has sealed the table (see sealHandlerTable()).
     */
    void
    setHandler(log::EventType type, Handler handler)
    {
        LBA_ASSERT(!handlers_sealed_,
                   "handler registered after a dispatch engine "
                   "resolved the table; register in the constructor");
        handlers_[static_cast<std::size_t>(type)] = handler;
    }

    /**
     * Register a member function as the handler for @p type:
     *
     * @code
     *   onEvent<&AddrCheck::checkAccess>(log::EventType::kLoad);
     * @endcode
     *
     * The member must have the signature
     * `void (const log::EventRecord&, CostSink&)` on the registering
     * class (or a base of it).
     */
    template <auto Method>
    void
    onEvent(log::EventType type)
    {
        setHandler(type, [](Lifeguard& self,
                            const log::EventRecord& record,
                            CostSink& cost) {
            using Class = typename detail::MemberClass<
                decltype(Method)>::type;
            (static_cast<Class&>(self).*Method)(record, cost);
        });
    }

  private:
    std::vector<Finding> findings_;
    std::array<Handler, log::kNumEventTypes> handlers_{};
    bool handlers_sealed_ = false;
};

} // namespace lba::lifeguard
