/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * A span is one timed call the benchmark makes into a layer: its layer,
 * start and end on the host clock, and the span that was open when it
 * began (its parent). Spans are appended in memory while the run
 * executes and only read after it ends; a layer's self time is the sum
 * of its spans' durations minus the durations of their direct children.
 */

#ifndef PERFBENCH_SPANS_HPP_
#define PERFBENCH_SPANS_HPP_

#include <array>
#include <chrono>
#include <cstdint>
#include <deque>

namespace perfbench {

/** The timed boundaries, one per layer call the benchmark wraps. */
enum class Layer : std::uint8_t {
    SimEvent,        //!< one EventQueue::step() (root of every tree)
    WorkloadNext,    //!< SyntheticSource::next
    CpuDone,         //!< the core's completion callback
    CoherenceAccess, //!< Protocol::access
    ArchSearch,      //!< L2Org::search
    ArchFill,        //!< L2Org::onMemFill
    ArchEvict,       //!< L2Org::onL1Eviction
    ArchReadHit,     //!< L2Org::onL2ReadHit
    kCount,
};

inline constexpr std::size_t kNumLayers =
    static_cast<std::size_t>(Layer::kCount);

inline const char *
toString(Layer l)
{
    switch (l) {
      case Layer::SimEvent: return "sim.event";
      case Layer::WorkloadNext: return "workload.next";
      case Layer::CpuDone: return "cpu.done";
      case Layer::CoherenceAccess: return "coherence.access";
      case Layer::ArchSearch: return "arch.search";
      case Layer::ArchFill: return "arch.fill";
      case Layer::ArchEvict: return "arch.evict";
      case Layer::ArchReadHit: return "arch.readhit";
      default: return "?";
    }
}

inline constexpr std::uint32_t kNoParent = 0xffffffffu;

struct Span
{
    std::uint64_t start = 0; //!< host ns since the recorder's epoch
    std::uint64_t end = 0;
    std::uint32_t parent = kNoParent; //!< index of the enclosing span
    Layer layer = Layer::SimEvent;
};

/** Per-layer totals derived from a span list. */
struct SelfTimes
{
    std::array<double, kNumLayers> selfNs{};
    std::array<std::uint64_t, kNumLayers> calls{};
    double rootNs = 0.0; //!< summed duration of parentless spans

    double
    totalSelfNs() const
    {
        double sum = 0.0;
        for (double v : selfNs)
            sum += v;
        return sum;
    }

    double ns(Layer l) const { return selfNs[static_cast<std::size_t>(l)]; }
    std::uint64_t
    count(Layer l) const
    {
        return calls[static_cast<std::size_t>(l)];
    }
};

/**
 * Self time per layer: every span adds its duration to its own layer
 * and subtracts it from its parent's layer. The self times therefore
 * sum to the duration of the root spans. `Spans` is any indexable
 * sequence of Span.
 */
template <typename Spans>
SelfTimes
selfTimes(const Spans &spans)
{
    SelfTimes st;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const auto dur = static_cast<double>(s.end - s.start);
        st.selfNs[static_cast<std::size_t>(s.layer)] += dur;
        ++st.calls[static_cast<std::size_t>(s.layer)];
        if (s.parent == kNoParent)
            st.rootNs += dur;
        else
            st.selfNs[static_cast<std::size_t>(spans[s.parent].layer)] -=
                dur;
    }
    return st;
}

/**
 * Records spans in call order. The open spans form a stack threaded
 * through their parent indices, so the innermost open span is the
 * parent of the next one opened.
 */
class SpanRecorder
{
  public:
    SpanRecorder() : epoch_(Clock::now()) {}

    void
    open(Layer l)
    {
        const auto id = static_cast<std::uint32_t>(spans_.size());
        Span &s = spans_.emplace_back();
        s.parent = open_;
        s.layer = l;
        s.start = nowNs();
        open_ = id;
    }

    void
    close()
    {
        Span &s = spans_[open_];
        s.end = nowNs();
        open_ = s.parent;
    }

    bool balanced() const { return open_ == kNoParent; }
    const std::deque<Span> &spans() const { return spans_; }

  private:
    using Clock = std::chrono::steady_clock;

    std::uint64_t
    nowNs() const
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - epoch_)
                .count());
    }

    Clock::time_point epoch_;
    std::deque<Span> spans_; //!< grows without moving recorded spans
    std::uint32_t open_ = kNoParent;
};

/** RAII span around one call. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, Layer l) : rec_(rec) { rec_.open(l); }
    ~ScopedSpan() { rec_.close(); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder &rec_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HPP_
