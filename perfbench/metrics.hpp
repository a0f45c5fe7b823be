/**
 * @file
 * Metric plumbing of the benchmark: the name grammar, the windowed
 * tail-percentile rule, the ratios derived from one run's statistics,
 * and the result line.
 */

#ifndef PERFBENCH_METRICS_HPP_
#define PERFBENCH_METRICS_HPP_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "stats/stats_registry.hpp"

namespace perfbench {

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * Metric names: 1..64 characters from [A-Za-z0-9_.-], starting with a
 * letter or a digit.
 */
inline bool
validMetricName(std::string_view name)
{
    if (name.empty() || name.size() > 64)
        return false;
    const auto alnum = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9');
    };
    if (!alnum(name.front()))
        return false;
    return std::all_of(name.begin(), name.end(), [&](char c) {
        return alnum(c) || c == '_' || c == '.' || c == '-';
    });
}

/** A percentile together with the evidence behind it. */
struct Percentile
{
    double value = 0.0;
    double pct = 0.0;        //!< the percentile actually reported
    std::size_t samples = 0; //!< sample count
    std::size_t beyond = 0;  //!< samples strictly after its rank
};

/** Nearest-rank percentile `pct` of `sorted` (ascending, non-empty). */
inline Percentile
rankPercentile(const std::vector<double> &sorted, double pct)
{
    Percentile p;
    p.samples = sorted.size();
    p.pct = pct;
    const auto n = static_cast<double>(sorted.size());
    std::size_t rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n));
    rank = std::clamp<std::size_t>(rank, 1, sorted.size());
    p.value = sorted[rank - 1];
    p.beyond = sorted.size() - rank;
    return p;
}

/**
 * The highest percentile no higher than `wanted`, from a fixed ladder,
 * that has at least `min_beyond` samples after it. With too few samples
 * for any rung it falls back to the median and says so through
 * `beyond`.
 */
inline Percentile
tailPercentile(std::vector<double> samples, double wanted,
               std::size_t min_beyond = 10)
{
    if (samples.empty())
        return {};
    std::sort(samples.begin(), samples.end());
    static constexpr double kLadder[] = {99.9, 99.0, 98.0, 95.0,
                                         90.0, 75.0, 50.0};
    for (double pct : kLadder) {
        if (pct > wanted)
            continue;
        const Percentile p = rankPercentile(samples, pct);
        if (p.beyond >= min_beyond)
            return p;
    }
    return rankPercentile(samples, 50.0);
}

inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Counters of one run that do not live in the stats registry. */
struct RunCounts
{
    std::uint64_t issuedRefs = 0; //!< every reference generated, warmup too
    std::uint64_t replicas = 0;   //!< ESP-NUCA replicas created
    std::uint64_t victims = 0;    //!< ESP-NUCA victims created
};

/**
 * Per-layer count metrics of one run. Two windows exist: sim.* counts
 * the whole run, so it is divided by every reference issued; the proto,
 * level, mesh, mc and bank counters restart at the warmup boundary, so
 * they are divided by the references completed after it (the sum of
 * the level.* counts, the base of RunResult::avgAccessTime). The
 * helping-block counts are whole-run and use the whole-run base.
 */
inline std::vector<Metric>
countMetrics(const espnuca::StatsRegistry &reg, const RunCounts &rc)
{
    using espnuca::ServiceLevel;
    const auto c = [&reg](const std::string &n) {
        return static_cast<double>(reg.counterValue(n));
    };
    const auto div = [](double a, double b) { return b == 0.0 ? 0.0 : a / b; };
    const auto whole = static_cast<double>(rc.issuedRefs);
    double refs = 0.0;
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(ServiceLevel::kNumLevels); ++i) {
        refs += c(std::string("level.") +
                  toString(static_cast<ServiceLevel>(i)) + ".count");
    }

    std::vector<Metric> m;
    m.push_back({"coherence.tx_per_ref",
                 div(c("proto.transactions"), refs), "tx/ref"});
    m.push_back({"coherence.l1_hit_ratio",
                 div(c("proto.l1_hits"), c("proto.accesses")), "ratio"});
    m.push_back({"coherence.invals_per_kref",
                 1000.0 * div(c("proto.invals_sent"), refs), "1/kref"});
    m.push_back({"coherence.writebacks_per_kref",
                 1000.0 * div(c("proto.writebacks"), refs), "1/kref"});
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(ServiceLevel::kNumLevels); ++i) {
        const std::string lvl = toString(static_cast<ServiceLevel>(i));
        m.push_back({"coherence.level." + lvl + ".cycles_per_ref",
                     div(c("level." + lvl + ".cycles"), refs),
                     "cycles/ref"});
    }

    double demand = 0.0, hits = 0.0, accesses = 0.0, evictions = 0.0;
    double max_accesses = 0.0, nmax = 0.0;
    std::size_t banks = 0, monitored = 0;
    for (;; ++banks) {
        const std::string b = "bank." + std::to_string(banks) + ".";
        if (reg.counters().find(b + "accesses") == reg.counters().end())
            break;
        demand += c(b + "demand");
        hits += c(b + "demand_hits");
        accesses += c(b + "accesses");
        max_accesses = std::max(max_accesses, c(b + "accesses"));
        evictions += c(b + "evictions");
        if (reg.counters().count(b + "nmax") != 0) {
            nmax += c(b + "nmax");
            ++monitored;
        }
    }
    m.push_back({"arch.l2_hit_ratio", div(hits, demand), "ratio"});
    m.push_back({"arch.mean_nmax",
                 div(nmax, static_cast<double>(monitored)), "ways"});
    m.push_back({"arch.replicas",
                 1000.0 * div(static_cast<double>(rc.replicas), whole),
                 "1/kref"});
    m.push_back({"arch.victims",
                 1000.0 * div(static_cast<double>(rc.victims), whole),
                 "1/kref"});

    m.push_back({"cache.bank_accesses_per_ref", div(accesses, refs),
                 "accesses/ref"});
    m.push_back({"cache.evictions_per_kref", 1000.0 * div(evictions, refs),
                 "1/kref"});
    m.push_back({"cache.bank_imbalance",
                 div(max_accesses, div(accesses, static_cast<double>(banks))),
                 "max/mean"});

    m.push_back({"net.flits_per_ref", div(c("mesh.flits"), refs),
                 "flits/ref"});
    m.push_back({"net.link_wait_cycles_per_ref",
                 div(c("mesh.link_wait"), refs), "cycles/ref"});
    m.push_back({"net.link_peak_intervals", c("mesh.link_peak_intervals"),
                 "count"});
    m.push_back({"net.link_compactions", c("mesh.link_compactions"),
                 "count"});

    double mc_accesses = 0.0, mc_wait = 0.0;
    for (std::size_t i = 0;; ++i) {
        const std::string p = "mc." + std::to_string(i) + ".";
        if (reg.counters().find(p + "accesses") == reg.counters().end())
            break;
        mc_accesses += c(p + "accesses");
        mc_wait += c(p + "queue_wait");
    }
    m.push_back({"mem.accesses_per_kref", 1000.0 * div(mc_accesses, refs),
                 "1/kref"});
    m.push_back({"mem.queue_wait_per_access", div(mc_wait, mc_accesses),
                 "cycles/access"});

    m.push_back({"sim.events_per_ref", div(c("sim.events"), whole),
                 "events/ref"});
    return m;
}

/** JSON number with every digit the double carries. */
inline std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

inline std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        out += ch;
    }
    return out + "\"";
}

/** The result line: {"correct", "attempted", "failed", "metrics"}. */
inline std::string
resultLine(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const std::vector<Metric> &metrics)
{
    std::string s = "{\"correct\": ";
    s += correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed);
    s += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i != 0)
            s += ", ";
        s += jsonString(metrics[i].name) + ": {\"value\": " +
             jsonNumber(metrics[i].value) +
             ", \"unit\": " + jsonString(metrics[i].unit) + "}";
    }
    return s + "}}";
}

} // namespace perfbench

#endif // PERFBENCH_METRICS_HPP_
